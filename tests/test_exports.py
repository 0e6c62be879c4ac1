"""Every name the package and its modules export resolves."""
import importlib

# the nine modules whose public functions bench/spans.py wraps by name
MODULES = ("groups", "perms", "braces", "algebras", "factorizations", "census", "hgs", "formats", "cli")


def test_every_exported_name_resolves():
    for name in ("bracelab",) + tuple(f"bracelab.{m}" for m in MODULES):
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)

"""Spans around the calls into bracelab's public functions, recorded from outside.

:meth:`Tracer.install` replaces every public function of the nine
modules (and ``PermutationGroup.__init__``) with a wrapper, at every
module namespace that holds a reference to it, so calls from inside
bracelab are caught too.  Each call becomes a span (name, start, end,
parent) in process CPU seconds, kept in memory and written out at the
end.  A span's self time is its duration minus the time its children
cover.

``perms.compose`` runs millions of times in a census, too often for one
span per call: it is counted and timed in aggregate instead, and its
time is charged to ``perms`` and taken out of the enclosing span's self
time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

MODULES = ("groups", "perms", "braces", "algebras", "factorizations", "census", "hgs", "formats", "cli")
AGGREGATE = {"perms.compose"}
ORDER_SUMS = {"groups.automorphism_group", "groups.holomorph"}


class Tracer:
    def __init__(self) -> None:
        self.clock = time.process_time
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[Any]] = []      # [name id, start, end, parent, child time]
        self.stack: list[int] = []
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.perms: Counter = Counter()
        self._active: Counter = Counter()

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.calls[name] += 1
        self._active[name] += 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_id, self.clock(), 0.0, parent, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int, name: str) -> None:
        end = self.clock()
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        duration = end - span[1]
        self.self_time[name] += duration - span[4]
        if span[3] >= 0:
            self.spans[span[3]][4] += duration
        self._active[name] -= 1
        if not self._active[name]:
            self.inclusive[name] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        sums_order = name in ORDER_SUMS

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index, name)
            if sums_order:
                self.perms[name] += result.order
            return result

        return traced

    def wrap_aggregate(self, name: str, fn: Callable) -> Callable:
        clock = self.clock
        calls, own, spans, stack = self.calls, self.self_time, self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args: Any) -> Any:
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            calls[name] += 1
            own[name] += elapsed
            if stack:
                spans[stack[-1]][4] += elapsed
            return result

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the nine modules wherever they are bound."""
        wrappers: dict[int, Callable] = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"bracelab.{mod_name}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{mod_name}.{attr}"
                    make = self.wrap_aggregate if name in AGGREGATE else self.wrap
                    wrappers[id(obj)] = make(name, obj)
        namespaces = [importlib.import_module("bracelab")] + [
            importlib.import_module(f"bracelab.{m}") for m in MODULES
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    setattr(ns, attr, wrappers[id(value)])
        perm_group = importlib.import_module("bracelab.perms").PermutationGroup
        perm_group.__init__ = self.wrap("perms.PermutationGroup", perm_group.__init__)

    # -- results -----------------------------------------------------------

    def module_self(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, value in self.self_time.items():
            module = name.split(".")[0]
            if module in out:
                out[module] += value
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name_id, start, end, parent, _child in self.spans:
                fh.write(json.dumps({"name": self.names[name_id], "start": start,
                                     "end": end, "parent": parent}) + "\n")

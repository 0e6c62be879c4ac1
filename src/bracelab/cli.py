"""Command-line interface: build, check, count, and enumerate skew braces.

Subcommands mirror the library layers:

  validate     check a brace file against the compatibility law
  construct    trivial / opposite / radical / catalog / factorization builders
  aut          automorphism group order of a group file
  count        Hopf-Galois structure count for a brace file
  reciprocity  forward and swapped structure counts for a bi-skew brace
  enumerate    all braces on a given additive group via its holomorph
  demo         s4 | heisenberg | ratio | exponent | sixdim

Exit status is 0 for success (or "the property holds"), 1 for a negative
verdict (an axiom fails; the witness is printed), and 2 for usage or
input errors and when memory runs out.  Output is plain ``key = value``
text by default; ``--format kv`` switches to one-per-line ``key=value``
pairs with stable key order, for scripting.  A subcommand's node budget
bounds every node of every backtracking search it runs, together: it is
``--budget``, else the environment variable BRACELAB_BUDGET.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from .algebras import (
    CATALOG_NAMES,
    catalog,
    cubes_vanish,
    power_ideal_dims,
    to_brace,
)
from .braces import (
    CounterexampleTriple,
    SkewBrace,
    exponent_compare,
    is_biskew,
    is_two_sided,
    opposite_brace,
    prepare_brace_groups,
    square_agreement_set,
    trivial_brace,
    validate_direct,
    validate_via_holomorph,
)
from .census import DEFAULT_CAP, classify_braces, enumerate_braces
from .errors import BraceLabError
from .factorizations import (
    circle_from_factorization,
    demo_s4,
    left_group,
    right_group,
    validate_factorization,
)
from .formats import (
    brace_text,
    read_algebra,
    read_brace,
    read_brace_tables,
    read_group,
    write_brace,
)
from .groups import _Budget, _aut_chain, recognize, subgroup_closure, symmetric_group
from .hgs import count_hgs, reciprocity_check
from .perms import all_perms, parse_cycles

__all__ = ["main", "build_parser"]

Pairs = list[tuple[str, str]]


def _emit(pairs: Pairs, fmt: str) -> None:
    if fmt == "kv":
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        width = max(len(key) for key, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {value}")


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _parse_indices(text: str) -> list[int]:
    """Comma- or whitespace-separated integers; the library checks their range."""
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an index list: {text!r}")


def _output_brace(brace: SkewBrace, out: Optional[str], pairs: Pairs, fmt: str) -> None:
    """Write the brace to --out and report, or dump the file to stdout."""
    if out is None:
        sys.stdout.write(brace_text(brace))
    else:
        write_brace(out, brace)
        _emit(pairs + [("written", out)], fmt)


# ---------------------------------------------------------------------------
# verdict commands


def _witness_pairs(witness: CounterexampleTriple) -> Pairs:
    """The failing triple of the law and its two sides."""
    return [
        ("witness_a", str(witness.a)),
        ("witness_b", str(witness.b)),
        ("witness_c", str(witness.c)),
        ("left_side", str(witness.left)),
        ("right_side", str(witness.right)),
    ]


def _cmd_validate(args: argparse.Namespace) -> int:
    add_t, mult_t = read_brace_tables(args.brace)
    if args.swap:
        add_t, mult_t = mult_t, add_t
    label = "swapped" if args.swap else "forward"
    try:
        add, mult = prepare_brace_groups(add_t, mult_t)
    except BraceLabError as exc:
        _emit(
            [("orientation", label), ("valid", "false"), ("reason", str(exc))],
            args.format,
        )
        return 1
    witness = validate_direct(add, mult)
    if witness is None:
        _emit(
            [
                ("orientation", label),
                ("valid", "true"),
                ("add", recognize(add)),
                ("mult", recognize(mult)),
            ],
            args.format,
        )
        return 0
    _emit([("orientation", label), ("valid", "false")] + _witness_pairs(witness), args.format)
    return 1


def _cmd_aut(args: argparse.Namespace) -> int:
    g = read_group(args.group)
    aut_order = _aut_chain(g, _Budget(args.budget, "automorphism order search"))[0]
    _emit(
        [
            ("group", recognize(g)),
            ("order", str(g.order)),
            ("aut_order", str(aut_order)),
        ],
        args.format,
    )
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    brace = read_brace(args.brace)
    report = count_hgs(brace, budget=args.budget)
    _emit(report.lines(), args.format)
    return 0


def _cmd_reciprocity(args: argparse.Namespace) -> int:
    brace = read_brace(args.brace)
    witness = brace._direct(True)  # cached, so reciprocity_check does not scan again
    if witness is not None:
        _emit([("biskew", "false")] + _witness_pairs(witness), args.format)
        return 1
    report = reciprocity_check(brace, budget=args.budget)
    _emit(report.lines(), args.format)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    g = read_group(args.group)
    braces = enumerate_braces(g, cap=args.cap, budget=args.budget)
    census = classify_braces(braces)
    pairs: Pairs = [
        ("group", recognize(g)),
        ("raw", str(census.raw_count)),
        ("classes", str(len(census.entries))),
    ]
    for k, entry in enumerate(census.entries, start=1):
        pairs.append((f"class_{k}_circle", entry.circle_name))
        pairs.append((f"class_{k}_size", str(entry.size)))
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for k, entry in enumerate(census.entries, start=1):
            write_brace(outdir / f"brace_{k}.brc", entry.brace)
        pairs.append(("written", str(outdir)))
    _emit(pairs, args.format)
    return 0


# ---------------------------------------------------------------------------
# constructions


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.what == "trivial":
        g = read_group(args.group)
        brace = trivial_brace(g)
        pairs = [("construction", "trivial"), ("group", recognize(g))]
    elif args.what == "opposite":
        g = read_group(args.group)
        brace = opposite_brace(g)
        pairs = [("construction", "opposite"), ("group", recognize(g))]
    elif args.what == "radical":
        algebra = read_algebra(args.algebra)
        brace = to_brace(algebra)
        pairs = [
            ("construction", "radical"),
            ("order", str(brace.order)),
            ("biskew", _bool(is_biskew(brace))),
        ]
    elif args.what == "catalog":
        algebra = catalog(args.name, args.p, m=args.m, r=args.r)
        brace = to_brace(algebra)
        pairs = [
            ("construction", f"catalog {args.name}"),
            ("order", str(brace.order)),
            ("circle", recognize(brace.mult)),
        ]
    else:  # factorization
        brace, pairs = _build_factorization(args)
    _output_brace(brace, args.out, pairs, args.format)
    return 0


def _build_factorization(args: argparse.Namespace) -> tuple[SkewBrace, Pairs]:
    if args.sym is not None:
        if args.left_gens is None or args.right_gens is None:
            raise argparse.ArgumentTypeError(
                "--sym needs both --left-gens and --right-gens"
            )
        g = symmetric_group(args.sym)
        index = {p: i for i, p in enumerate(all_perms(args.sym))}

        def span(gen_text: str) -> list[int]:
            try:
                gens = [index[parse_cycles(c, args.sym)] for c in gen_text.split(";") if c.strip()]
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"bad cycles {gen_text!r}: {exc}")
            return subgroup_closure(g, gens)

        left, right = span(args.left_gens), span(args.right_gens)
    else:
        if args.group is None or args.left is None or args.right is None:
            raise argparse.ArgumentTypeError(
                "factorization needs --group, --left and --right (or --sym form)"
            )
        g = read_group(args.group)
        left = subgroup_closure(g, _parse_indices(args.left))
        right = subgroup_closure(g, _parse_indices(args.right))
    fact = validate_factorization(g, left, right)
    brace = circle_from_factorization(fact)
    pairs = [
        ("construction", "factorization"),
        ("left", recognize(left_group(fact))),
        ("right", recognize(right_group(fact))),
        ("circle", recognize(brace.mult)),
        ("biskew", _bool(is_biskew(brace))),
    ]
    return brace, pairs


# ---------------------------------------------------------------------------
# demos


def _demo_s4(fmt: str) -> int:
    report = demo_s4()
    fa, fb, fc = report.featured
    xa, xb, xc = report.contrast_triple
    _emit(
        [
            ("factors", f"{report.left_name} . {report.right_name}"),
            ("forward_valid", _bool(report.forward_valid)),
            ("swapped_valid", _bool(report.swapped_valid)),
            ("swapped_failures", str(report.swapped_failure_count)),
            ("failing_triple", f"a={fa} b={fb} c={fc}"),
            ("left_side", report.featured_sides[0]),
            ("right_side", report.featured_sides[1]),
            ("first_failing_triple", " ".join(report.first_failure)),
            ("first_failure_sides", " vs ".join(report.first_failure_sides)),
            ("agreeing_triple", f"a={xa} b={xb} c={xc}"),
            ("agreeing_sides", " = ".join(report.contrast_sides)),
        ],
        fmt,
    )
    return 0


def _demo_heisenberg(fmt: str) -> int:
    brace = to_brace(catalog("degraaf_A340", 3))
    direct = validate_direct(brace.add, brace.mult) is None
    holo = validate_via_holomorph(brace.add, brace.mult) is None
    _emit(
        [
            ("order", str(brace.order)),
            ("additive", recognize(brace.add)),
            ("circle", recognize(brace.mult)),
            ("circle_exponent", str(brace.mult.exponent())),
            ("direct_check", _bool(direct)),
            ("holomorph_check", _bool(holo)),
            ("biskew", _bool(is_biskew(brace))),
            ("two_sided", _bool(is_two_sided(brace))),
        ],
        fmt,
    )
    return 0


def _demo_ratio(fmt: str) -> int:
    brace = to_brace(catalog("degraaf_A340", 3))
    report = reciprocity_check(brace)
    _emit(
        [
            ("aut_add", str(report.aut_add)),
            ("aut_mult", str(report.aut_mult)),
            ("aut_brace", str(report.aut_brace)),
            ("count_forward", str(report.count_forward)),
            ("count_swapped", str(report.count_swapped)),
            ("ratio", str(report.aut_add // report.aut_mult)),
        ],
        fmt,
    )
    return 0


def _demo_exponent(fmt: str) -> int:
    # boundary case: 4-element truncated-polynomial brace, orders split
    tight = exponent_compare(to_brace(catalog("truncated_poly", 2, m=2)))
    # safe case: dimension + 2 <= p forces equal orders everywhere
    safe = exponent_compare(to_brace(catalog("degraaf_A340", 5)))
    element, add_order, mult_order = tight.first_mismatch
    _emit(
        [
            ("boundary_add_exponent", str(tight.add_exponent)),
            ("boundary_circle_exponent", str(tight.mult_exponent)),
            ("boundary_mismatch", f"element {element}: {add_order} vs {mult_order}"),
            ("safe_add_exponent", str(safe.add_exponent)),
            ("safe_circle_exponent", str(safe.mult_exponent)),
            ("safe_orders_agree", _bool(safe.orders_agree)),
        ],
        fmt,
    )
    return 0


def _demo_sixdim(fmt: str) -> int:
    algebra = catalog("sixdim_wedge", 3)
    dims = power_ideal_dims(algebra)
    brace = to_brace(algebra)
    agree = square_agreement_set(brace)
    _emit(
        [
            ("order", str(brace.order)),
            ("power_ideal_dims", " ".join(str(d) for d in dims)),
            ("cubes_vanish", _bool(cubes_vanish(algebra))),
            ("biskew", _bool(is_biskew(brace))),
            ("square_agreement", str(len(agree))),
        ],
        fmt,
    )
    return 0


_DEMOS = {
    "s4": _demo_s4,
    "heisenberg": _demo_heisenberg,
    "ratio": _demo_ratio,
    "exponent": _demo_exponent,
    "sixdim": _demo_sixdim,
}


def _cmd_demo(args: argparse.Namespace) -> int:
    return _DEMOS[args.name](args.format)


# ---------------------------------------------------------------------------
# parser


def _common(p: argparse.ArgumentParser, budget: bool = False) -> None:
    p.add_argument("--format", choices=("text", "kv"), default="text")
    if budget:
        p.add_argument("--budget", type=int, default=None,
                       help="search node budget (default: BRACELAB_BUDGET)")


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--brace", required=True, metavar="FILE")
    p.add_argument("--swap", action="store_true",
                   help="check the swapped orientation instead")
    _common(p)


def _construct_args(p: argparse.ArgumentParser) -> None:
    what = p.add_subparsers(dest="what", required=True)

    q = what.add_parser("trivial", help="both operations equal to one group")
    q.add_argument("--group", required=True, metavar="FILE")

    q = what.add_parser("opposite", help="addition is the opposite group")
    q.add_argument("--group", required=True, metavar="FILE")

    q = what.add_parser("radical", help="circle operation of a nilpotent algebra")
    q.add_argument("--algebra", required=True, metavar="FILE")

    q = what.add_parser("catalog", help="named example algebras")
    q.add_argument("--name", required=True, choices=CATALOG_NAMES)
    q.add_argument("--p", required=True, type=int)
    q.add_argument("--m", type=int, default=None, help="degree for truncated_poly")
    q.add_argument("--r", type=int, default=None, help="level for cyclic")

    q = what.add_parser(
        "factorization", help="circle operation from complementary subgroups"
    )
    q.add_argument("--group", metavar="FILE")
    q.add_argument("--left", metavar="INDICES", help="generators of the left factor")
    q.add_argument("--right", metavar="INDICES", help="generators of the right factor")
    q.add_argument("--sym", type=int, metavar="N",
                   help="use the symmetric group on N letters instead of --group")
    q.add_argument("--left-gens", metavar="CYCLES",
                   help="';'-separated cycle-notation generators (with --sym)")
    q.add_argument("--right-gens", metavar="CYCLES")

    for q in what.choices.values():
        q.add_argument("--out", metavar="FILE", default=None)
        _common(q)


def _group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, metavar="FILE")
    _common(p, budget=True)


def _brace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--brace", required=True, metavar="FILE")
    _common(p, budget=True)


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, metavar="FILE")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest number of regular subgroups (braces) to enumerate "
                        f"(default {DEFAULT_CAP})")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="write one brace file per isomorphism class")
    _common(p, budget=True)


def _demo_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=tuple(_DEMOS))
    _common(p)


# each subcommand's help line, arguments and handler, in help order;
# parsing, help and dispatch all read this one table
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None], Callable[..., int]]] = {
    "validate": ("check a brace file against the law", _validate_args, _cmd_validate),
    "construct": ("build a brace and print or save it", _construct_args, _cmd_construct),
    "aut": ("automorphism group order", _group_args, _cmd_aut),
    "count": ("Hopf-Galois structure count", _brace_args, _cmd_count),
    "reciprocity": ("both orientation counts, bi-skew only", _brace_args, _cmd_reciprocity),
    "enumerate": ("all braces on an additive group", _enumerate_args, _cmd_enumerate),
    "demo": ("scripted showcases", _demo_args, _cmd_demo),
}


def _parser(names: Sequence[str]) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of ``names`` only.

    Its usage line lists every subcommand either way, so an error it
    reports reads as the full tree's would.
    """
    parser = argparse.ArgumentParser(
        prog="bracelab",
        description="construct, validate, count, and enumerate finite skew braces",
    )
    listed = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name in names:
        help_line, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(tuple(_COMMANDS))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call builds the parser of the subcommand it names; top-level help,
    # no arguments and an unknown command need the full tree
    names = argv[:1] if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    try:
        args = _parser(names).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command][2](args)
    except (BraceLabError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

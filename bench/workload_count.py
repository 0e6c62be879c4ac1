"""The ``count`` workload: Hopf-Galois counts on 71 braces of order 8-125.

Each job builds a brace from raw tables, runs hgs.count_hgs (which names
both groups with groups.recognize), and hgs.reciprocity_check when the
brace is bi-skew.  Braces that take milliseconds each are counted in
batches, one job per batch, so that no job is small enough for timer or
host noise to rule it.  Three jobs count six of the braces again through
``bracelab count --format kv``, on files written during set-up under
other labellings.

Every pass relabels every brace by a fresh seeded bijection fixing 0,
so the per-table automorphism cache never serves one pass from another:
each pass starts its automorphism searches from an empty cache.

One job fails today: count_hgs on the order-125 degraaf_A340 brace at
p = 5 under a caller budget of 20,000 nodes.  The unpruned automorphism
search of C5^3 needs 124^3 nodes; it raises SearchLimitExceeded after
about 6-8 s.  A pruned or orbit-counting search finishes inside that
budget, and then the job's output is checked like any other.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import Any, Optional

import numpy as np

import checks
import inputs
from jobs import Job
from bracelab import algebras, braces, cli, factorizations, groups, hgs
from bracelab.errors import SearchLimitExceeded

WORKLOAD_ID = 2
FAILING_BUDGET = 20_000


def _semidirect(m: int, k: int, unit: int) -> groups.FiniteGroup:
    return groups.semidirect_product(
        groups.cyclic_group(m), groups.cyclic_group(k), inputs.unit_action(m, unit, k))


def _factorization(g: groups.FiniteGroup, left: list[int], right: list[int]) -> braces.SkewBrace:
    return factorizations.circle_from_factorization(factorizations.validate_factorization(g, left, right))


def _both_sides(label: str, g: groups.FiniteGroup, nj: int) -> list[tuple[str, braces.SkewBrace]]:
    """Factorization braces of H x| J (index h * nj + j) with either factor on the left."""
    h_side = list(range(0, g.order, nj))
    j_side = list(range(nj))
    return [(f"{label}/H", _factorization(g, h_side, j_side)),
            (f"{label}/J", _factorization(g, j_side, h_side))]


def _ring(name: str, p: int, **params: int) -> tuple[str, braces.SkewBrace]:
    label = f"{name}:p{p}" + "".join(f":{k}{v}" for k, v in params.items())
    return label, algebras.to_brace(algebras.catalog(name, p, **params))


def _group_braces(label: str, g: groups.FiniteGroup, opposite: bool = True) -> list[tuple[str, braces.SkewBrace]]:
    out = [(f"trivial:{label}", braces.trivial_brace(g))]
    if opposite:
        out.append((f"opposite:{label}", braces.opposite_brace(g)))
    return out


def brace_sets(quick: bool) -> list[tuple[str, list[tuple[str, braces.SkewBrace]]]]:
    """(job name, braces) in job order; a job with one brace is a single count."""
    if quick:
        return [
            ("ring:degraaf_A340:p3", [_ring("degraaf_A340", 3)]),
            ("batch:order8", [_ring("truncated_poly", 2, m=3)]
             + _group_braces("D4", groups.dihedral_group(4))
             + _both_sides("C4:C2", _semidirect(4, 2, 3), 2)),
            ("factorization:C7:C3", _both_sides("C7:C3", _semidirect(7, 3, 2), 3)),
        ]
    q8 = groups.make_group(inputs.quaternion_table())
    a4 = groups.semidirect_product(groups.abelian_group([2, 2]), groups.cyclic_group(3), inputs.A4_ACTION)
    dic3, d6 = _semidirect(3, 4, 2), _semidirect(6, 2, 5)
    s3 = groups.symmetric_group(3)
    order16 = []
    for label, g, nj in [("D8", _semidirect(8, 2, 7), 2), ("SD16", _semidirect(8, 2, 3), 2),
                         ("M16", _semidirect(8, 2, 5), 2), ("C4:C4", _semidirect(4, 4, 3), 4)]:
        order16 += _group_braces(label, g) + _both_sides(label, g, nj)
    return [
        ("ring:degraaf_A340:p3", [_ring("degraaf_A340", 3)]),
        ("ring:truncated_poly:p3:m3", [_ring("truncated_poly", 3, m=3)]),
        ("batch:rings-p5", [_ring("truncated_poly", 5, m=2), _ring("cyclic", 5, r=1), _ring("cyclic", 5, r=2)]),
        ("trivial:C2^4", _group_braces("C2^4", groups.abelian_group([2, 2, 2, 2]), opposite=False)),
        ("opposite:C2^4", _group_braces("C2^4", groups.abelian_group([2, 2, 2, 2]))[1:]),
        ("batch:order9-27", _group_braces("heis3", groups.heisenberg_group(3))
         + _group_braces("M3(3)", groups.m3_group(3)) + _group_braces("S4", groups.symmetric_group(4))
         + [_ring("truncated_poly", 3, m=2), _ring("cyclic", 3, r=1), _ring("cyclic", 3, r=2)]),
        ("batch:order8-39",
         # order 8
         [_ring("truncated_poly", 2, m=3)]
         + _group_braces("C8", groups.cyclic_group(8), opposite=False)
         + _group_braces("C2xC4", groups.abelian_group([2, 4]), opposite=False)
         + _group_braces("C2^3", groups.abelian_group([2, 2, 2]), opposite=False)
         + _group_braces("D4", groups.dihedral_group(4)) + _group_braces("Q8", q8)
         + _both_sides("C4:C2", _semidirect(4, 2, 3), 2)
         + [("C4xC2", _factorization(groups.abelian_group([4, 2]), [0, 2, 4, 6], [0, 1]))]
         # order 12
         + _group_braces("C12", groups.cyclic_group(12), opposite=False)
         + _group_braces("C2xC6", groups.abelian_group([2, 6]), opposite=False)
         + _group_braces("A4", a4) + _group_braces("Dic3", dic3) + _group_braces("D6", d6)
         + _both_sides("A4", a4, 3) + _both_sides("Dic3", dic3, 4) + _both_sides("D6", d6, 2)
         # order 16
         + order16
         # order 20-39
         + _both_sides("C7:C3", _semidirect(7, 3, 2), 3) + _both_sides("C5:C4", _semidirect(5, 4, 2), 4)
         + _both_sides("C13:C3", _semidirect(13, 3, 3), 3)
         + [("S3xS3", _factorization(groups.direct_product(s3, s3), list(range(0, 36, 6)), list(range(6))))]),
    ]


# braces counted a second time through the command line, as (job name, labels)
CLI_TWINS = [
    ("cli:count:degraaf_A340:p3", ["degraaf_A340:p3"]),
    ("cli:count:truncated_poly:p3:m3", ["truncated_poly:p3:m3"]),
    ("cli:count:batch", ["truncated_poly:p5:m2", "cyclic:p5:r1", "cyclic:p5:r2", "opposite:heis3"]),
]
QUICK_CLI_TWINS = [("cli:count:degraaf_A340:p3", ["degraaf_A340:p3"])]


def count_one(add: np.ndarray, mult: np.ndarray, budget: Optional[int] = None) -> dict[str, Any]:
    """Everything the library reports for one brace given as raw tables."""
    brace = braces.make_brace(add, mult)
    report = dict(hgs.count_hgs(brace, budget=budget).lines())
    recip = None
    if braces.is_biskew(brace):
        recip = dict(hgs.reciprocity_check(brace, budget=budget).lines())
    return {"report": report, "reciprocity": recip}


def _as_ints(report: dict[str, str]) -> dict[str, Any]:
    return {k: (v if k in ("galois_group", "type") else v == "true" if k == "balanced" else int(v))
            for k, v in report.items()}


def brace_errors(label: str, add: np.ndarray, mult: np.ndarray, out: dict[str, Any]) -> list[str]:
    """Checks on one brace's counts made apart from bracelab."""
    report = _as_ints(out["report"])
    errors = checks.count_report_errors(
        report, checks.closed_form_aut_order(add), checks.closed_form_aut_order(mult))
    if add.shape[0] <= 8:
        brute = checks.brute_force_aut_orders(add, mult)
        got = (report["aut_add"], report["aut_mult"], report["aut_brace"])
        if got != brute:
            errors.append(f"automorphism orders {got}, brute force gives {brute}")
    if label.startswith("trivial:") and not report["aut_add"] == report["aut_mult"] == report["aut_brace"]:
        errors.append("a trivial brace must have every automorphism of its group")
    biskew = checks.first_law_failure(mult, add) is None
    if biskew != (out["reciprocity"] is not None):
        errors.append(f"reciprocity ran: {out['reciprocity'] is not None}; swapped law holds: {biskew}")
    if out["reciprocity"] is not None:
        errors += checks.reciprocity_errors(report, _as_ints(out["reciprocity"]))
    return [f"{label}: {e}" for e in errors]


def make_jobs(seed: int, passes: int, quick: bool, workdir: Path) -> list[Job]:
    sets = brace_sets(quick)
    # per-pass relabelled tables, made before timing starts
    tables: dict[str, list[list[tuple[np.ndarray, np.ndarray]]]] = {}
    for i, (job_name, members) in enumerate(sets):
        tables[job_name] = []
        for k in range(passes):
            rng = inputs.stream(seed, WORKLOAD_ID, i, k)
            per_pass = []
            for _label, brace in members:
                sigma = inputs.bijection_fixing_zero(brace.order, rng)
                per_pass.append((inputs.relabel(brace.add.table, sigma),
                                 inputs.relabel(brace.mult.table, sigma)))
            tables[job_name].append(per_pass)
    reference: dict[str, dict] = {}      # first report per brace label
    jobs = [_library_job(name, [label for label, _ in members], tables[name], reference)
            for name, members in sets]
    if not quick:
        jobs.append(_failing_job(passes))
    for i, (name, twins) in enumerate(QUICK_CLI_TWINS if quick else CLI_TWINS):
        paths: list[list[Path]] = [[] for _ in range(passes)]
        for t, twin in enumerate(twins):
            brace = next(b for _name, members in sets for label, b in members if label == twin)
            for k in range(passes):
                rng = inputs.stream(seed, WORKLOAD_ID, 1000 + i, t, k)
                sigma = inputs.bijection_fixing_zero(brace.order, rng)
                path = workdir / f"cli{i}-{t}-{k}.brc"
                path.write_text(inputs.brace_file_text(inputs.relabel(brace.add.table, sigma),
                                                       inputs.relabel(brace.mult.table, sigma)))
                paths[k].append(path)
        jobs.append(_cli_job(name, twins, paths, reference))
    return jobs


def _library_job(name: str, labels: list[str], tables: list, reference: dict) -> Job:
    def run(k: int) -> list[dict[str, Any]]:
        return [count_one(add, mult) for add, mult in tables[k]]

    def check(k: int, outs: list[dict[str, Any]]) -> list[str]:
        errors = []
        for label, (add, mult), out in zip(labels, tables[k], outs):
            errors += brace_errors(label, add, mult, out)
            first = reference.setdefault(label, out["report"])
            if out["report"] != first:
                errors.append(f"{label}: report changed under relabelling: {out['report']} vs {first}")
        return errors

    return Job(name, run, check)


def _failing_job(passes: int) -> Job:
    """The known failure, on inputs that do not depend on the seed.

    Pass 0 takes the catalog labelling; later passes take fixed
    relabellings, so the cache never serves one pass from another.
    """
    label, brace = _ring("degraaf_A340", 5)
    tables = [(brace.add.table, brace.mult.table)]
    for k in range(1, passes):
        sigma = inputs.bijection_fixing_zero(brace.order, inputs.stream(0, WORKLOAD_ID, 999, k))
        tables.append((inputs.relabel(brace.add.table, sigma), inputs.relabel(brace.mult.table, sigma)))

    def run(k: int) -> dict[str, Any]:
        return count_one(*tables[k], budget=FAILING_BUDGET)

    def check(k: int, out: dict[str, Any]) -> list[str]:
        return brace_errors(label, *tables[k], out)

    def known(exc: Exception) -> bool:
        return isinstance(exc, SearchLimitExceeded) and exc.budget == FAILING_BUDGET

    return Job(f"ring:{label}:budget{FAILING_BUDGET}", run, check, known)


def _cli_job(name: str, labels: list[str], paths: list[list[Path]], reference: dict) -> Job:
    def run(k: int) -> list[tuple[int, str]]:
        outs = []
        for path in paths[k]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["count", "--brace", str(path), "--format", "kv"])
            outs.append((code, buf.getvalue()))
        return outs

    def check(_k: int, outs: list[tuple[int, str]]) -> list[str]:
        errors = []
        for label, (code, text) in zip(labels, outs):
            pairs = dict(line.split("=", 1) for line in text.splitlines())
            if code != 0:
                errors.append(f"{label}: exit code {code}")
            elif pairs != reference[label]:
                errors.append(f"{label}: key=value output {pairs} differs from the library report")
        return errors

    return Job(name, run, check)

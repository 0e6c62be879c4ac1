"""The ``census`` workload: every skew brace on 14 additive groups of order 8-16.

Each job enumerates the braces on its groups through regular subgroups
of the holomorph (census.enumerate_braces) and classifies them
(census.classify_braces).  That exercises holomorph construction,
permutation closure and canonical transport over one cached Aut(A); it
also makes thousands of small make_group and validate_direct calls.
The order-8 and order-12 groups form one job, whose class totals per
order are the published s(n) and b(n); C16, C2xC8 and C4xC4 form a
second job and C2^2xC4 a third.  C2^4 is left out: its search exceeds
the default budget.

Every pass relabels every group by a fresh seeded bijection fixing 0,
so Aut(A) is searched again in each pass.
"""
from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import inputs
from jobs import Job
from bracelab import census, groups

WORKLOAD_ID = 3
CAP = 100_000


def _a4() -> groups.FiniteGroup:
    return groups.semidirect_product(groups.abelian_group([2, 2]), groups.cyclic_group(3), inputs.A4_ACTION)


def _dic3() -> groups.FiniteGroup:
    return groups.semidirect_product(groups.cyclic_group(3), groups.cyclic_group(4), inputs.unit_action(3, 2, 4))


ABELIAN = {"C4", "C2^2", "C6", "C8", "C2xC4", "C2^3", "C12", "C2xC6", "C16", "C2xC8", "C4xC4", "C2^2xC4"}

# (job name, groups).  Orders 8 and 12 form one job, checked against the
# published totals; the order-16 groups are split so that the job near the
# median runs for seconds, long enough for host noise to average out.
JOBS: list[tuple[str, list[tuple[str, Callable[[], groups.FiniteGroup]]]]] = [
    ("order8-12", [("C8", lambda: groups.cyclic_group(8)), ("C2xC4", lambda: groups.abelian_group([2, 4])),
                   ("C2^3", lambda: groups.abelian_group([2, 2, 2])), ("D4", lambda: groups.dihedral_group(4)),
                   ("Q8", lambda: groups.make_group(inputs.quaternion_table())),
                   ("C12", lambda: groups.cyclic_group(12)), ("C2xC6", lambda: groups.abelian_group([2, 6])),
                   ("D6", lambda: groups.dihedral_group(6)), ("A4", _a4), ("Dic3", _dic3)]),
    ("C16,C2xC8,C4xC4", [("C16", lambda: groups.cyclic_group(16)), ("C2xC8", lambda: groups.abelian_group([2, 8])),
                         ("C4xC4", lambda: groups.abelian_group([4, 4]))]),
    ("C2^2xC4", [("C2^2xC4", lambda: groups.abelian_group([2, 2, 4]))]),
]
QUICK_JOBS = [
    ("order4-6", [("C4", lambda: groups.cyclic_group(4)), ("C2^2", lambda: groups.abelian_group([2, 2])),
                  ("C6", lambda: groups.cyclic_group(6)), ("S3", lambda: groups.symmetric_group(3))]),
]


def census_of(table: np.ndarray) -> dict[str, Any]:
    """Enumerate and classify the braces on one additive table."""
    g = groups.make_group(table)
    found = census.enumerate_braces(g, cap=CAP)
    return {"group": g, "braces": found, "census": census.classify_braces(found),
            "auts": groups.automorphism_group(g)}


def census_errors(label: str, table: np.ndarray, out: dict[str, Any]) -> list[str]:
    errors = checks.tables_errors("additive", out["group"].table, table)
    auts = np.array(out["auts"].elements)
    errors += checks.automorphism_list_errors(table, auts, checks.AUT_ORDERS[label])
    if not errors:
        classes = [(e.size, e.brace.mult.table) for e in out["census"].entries]
        circles = [b.mult.table for b in out["braces"]]
        errors = checks.census_errors(table, auts, circles, classes, out["census"].raw_count)
    return [f"{label}: {e}" for e in errors]


def _job(index: int, name: str, members: list, seed: int, passes: int) -> Job:
    labels = [label for label, _ in members]
    bases = [make() for _label, make in members]
    tables = []
    for k in range(passes):
        rng = inputs.stream(seed, WORKLOAD_ID, index, k)
        tables.append([inputs.relabel(g.table, inputs.bijection_fixing_zero(g.order, rng)) for g in bases])

    def run(k: int) -> list[dict[str, Any]]:
        return [census_of(t) for t in tables[k]]

    def check(k: int, outs: list[dict[str, Any]]) -> list[str]:
        errors = []
        for label, table, out in zip(labels, tables[k], outs):
            errors += census_errors(label, table, out)
        classes = {label: len(out["census"].entries) for label, out in zip(labels, outs)}
        for order in sorted({g.order for g in bases} & set(checks.SKEW_BRACE_COUNTS)):
            of_order = {label: classes[label] for label, g in zip(labels, bases) if g.order == order}
            errors += checks.totals_errors(order, of_order, ABELIAN)
        return errors

    return Job(f"census:{name}", run, check)


def make_jobs(seed: int, passes: int, quick: bool, workdir: Path) -> list[Job]:
    return [_job(i, name, members, seed, passes)
            for i, (name, members) in enumerate(QUICK_JOBS if quick else JOBS)]

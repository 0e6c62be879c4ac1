"""Enumerating every skew brace on a fixed additive group.

Braces with additive group G correspond to regular subgroups of the
holomorph of G: the subgroup element sending 0 to x becomes row x of the
multiplicative table.  The search grows closed permutation sets one
generator at a time, always branching on the smallest point of the
carrier not yet hit from 0 — which visits each regular subgroup along
exactly one path, so no deduplication is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .braces import SkewBrace, brace_from_groups
from .errors import CapExceeded, SearchLimitExceeded
from .groups import (
    FiniteGroup,
    _relabel,
    are_isomorphic,
    automorphism_group,
    holomorph,
    make_group,
    recognize,
    search_budget,
)
from .perms import Perm, PermutationGroup, compose, identity_perm, is_fixed_point_free

__all__ = [
    "CensusEntry",
    "BraceCensus",
    "regular_subgroups_of_holomorph",
    "circle_table_from_regular",
    "enumerate_braces",
    "classify_braces",
]

DEFAULT_CAP = 10_000


@dataclass(frozen=True)
class CensusEntry:
    """One isomorphism class: a representative brace and its class size."""

    brace: SkewBrace
    circle_name: str
    size: int


@dataclass(frozen=True)
class BraceCensus:
    """All braces on one additive group, grouped up to brace isomorphism."""

    group: FiniteGroup
    raw_count: int
    entries: tuple[CensusEntry, ...]


def regular_subgroups_of_holomorph(
    g: FiniteGroup, cap: int = DEFAULT_CAP, budget: Optional[int] = None
) -> list[PermutationGroup]:
    """All regular subgroups of the holomorph, sorted deterministically.

    Raises CapExceeded when more than ``cap`` subgroups exist and
    SearchLimitExceeded when the search outgrows its node budget.
    """
    n = g.order
    hol = holomorph(g, budget)
    ident = identity_perm(n)
    usable = frozenset(p for p in hol if p == ident or is_fixed_point_free(p))
    by_start: dict[int, list[Perm]] = {x: [] for x in range(1, n)}
    for p in usable:
        if p != ident:
            by_start[p[0]].append(p)
    for lst in by_start.values():
        lst.sort()

    limit = search_budget(budget)
    nodes = 0
    found: list[frozenset[Perm]] = []

    def closure(base: frozenset[Perm], extra: Perm) -> Optional[frozenset[Perm]]:
        """Grow to a closed set, or None when it leaves the usable pool."""
        elems = set(base)
        frontier = [extra]
        elems.add(extra)
        while frontier:
            nxt = []
            for p in frontier:
                for q in list(elems):
                    for r in (compose(p, q), compose(q, p)):
                        if r not in elems:
                            if r not in usable or len(elems) >= n:
                                return None
                            elems.add(r)
                            nxt.append(r)
            frontier = nxt
        return frozenset(elems)

    def grow(current: frozenset[Perm]) -> None:
        nonlocal nodes
        covered = {p[0] for p in current}
        target = min(x for x in range(n) if x not in covered)
        for q in by_start[target]:
            nodes += 1
            if nodes > limit:
                raise SearchLimitExceeded(limit, "regular subgroup search")
            grown = closure(current, q)
            if grown is None or n % len(grown):
                continue
            if len(grown) == n:
                found.append(grown)
                if len(found) > cap:
                    raise CapExceeded(cap, "regular subgroup enumeration")
            elif len({p[0] for p in grown}) == len(grown):
                grow(grown)

    if n == 1:
        return [PermutationGroup(1, [(0,)])]
    grow(frozenset([ident]))
    groups = [PermutationGroup(n, fs) for fs in found]
    groups.sort(key=lambda pg: pg.elements)
    return groups


def circle_table_from_regular(n_sub: PermutationGroup) -> np.ndarray:
    """Multiplicative table read off a regular subgroup: row x sends 0 to x."""
    n = n_sub.degree
    rows = {p[0]: p for p in n_sub.elements}
    if len(rows) != n:
        raise ValueError("subgroup is not regular: images of 0 collide")
    table = np.array([rows[x] for x in range(n)], dtype=np.int32)
    return table


def enumerate_braces(
    g: FiniteGroup, cap: int = DEFAULT_CAP, budget: Optional[int] = None
) -> list[SkewBrace]:
    """Every skew brace with additive group g, one per regular subgroup.

    Each produced pair is re-validated against the brace law.
    """
    braces = []
    for sub in regular_subgroups_of_holomorph(g, cap=cap, budget=budget):
        mult = make_group(circle_table_from_regular(sub))
        braces.append(brace_from_groups(g, mult))
    return braces


# ---------------------------------------------------------------------------
# classification


def classify_braces(braces: Sequence[SkewBrace]) -> BraceCensus:
    """Group braces into isomorphism classes, in order of first occurrence.

    Braces on one additive table are isomorphic exactly when an additive
    automorphism transports one circle table to the other, so each class
    is an Aut(A)-orbit of circle tables.  A brace on another labelling of
    an additive group already seen is first moved into that group's
    labelling by a group isomorphism.
    """
    if not braces:
        raise ValueError("cannot classify an empty brace list")
    adds: list[FiniteGroup] = []  # one labelling per additive isomorphism type
    orbits: list[dict[bytes, int]] = []  # per entry of adds: circle table -> class
    classes: list[list[SkewBrace]] = []
    for b in braces:
        table = b.mult.table
        for k, add in enumerate(adds):
            if add == b.add:
                break
            iso = are_isomorphic(b.add, add)
            if iso is not None:
                table = _relabel(table, np.asarray(iso.images, dtype=np.int32))
                break
        else:
            k = len(adds)
            adds.append(b.add)
            orbits.append({})
        cls = orbits[k].get(table.tobytes())
        if cls is None:
            cls = len(classes)
            for alpha in automorphism_group(adds[k]):
                moved = _relabel(table, np.asarray(alpha, dtype=np.int32))
                orbits[k][moved.tobytes()] = cls
            classes.append([])
        classes[cls].append(b)
    entries = tuple(
        CensusEntry(cls[0], recognize(cls[0].mult), len(cls)) for cls in classes
    )
    return BraceCensus(adds[0], len(braces), entries)

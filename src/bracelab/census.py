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

from .braces import SkewBrace
from .errors import CapExceeded
from .groups import (
    FiniteGroup,
    _Budget,
    _relabel,
    are_isomorphic,
    automorphism_group,
    recognize,
)
from .perms import PermutationGroup, compose, identity_perm

__all__ = [
    "CensusEntry",
    "BraceCensus",
    "regular_subgroups_of_holomorph",
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

    Element x of each is the one sending 0 to x, read straight off the
    search.  Raises CapExceeded when more than ``cap`` subgroups exist
    and SearchLimitExceeded when the search outgrows its node budget.
    """
    return [PermutationGroup(g.order, t.tolist()) for t, _ in _circle_tables(g, cap, budget)]


def enumerate_braces(
    g: FiniteGroup, cap: int = DEFAULT_CAP, budget: Optional[int] = None
) -> list[SkewBrace]:
    """Every skew brace with additive group g, one per regular subgroup.

    Each brace is read straight off the search: regular subgroups of the
    holomorph are exactly the braces on g, so neither the circle table nor
    the brace law is validated again.  The tests and the benchmark's
    census checker verify both independently.
    """
    return [SkewBrace(g, FiniteGroup(t, gens)) for t, gens in _circle_tables(g, cap, budget)]


def _circle_tables(
    g: FiniteGroup, cap: int, budget: Optional[int]
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Circle table and generating set of every regular subgroup, sorted.

    A holomorph element x -> a * alpha_k(x) is coded as the pair (a, k):
    a is its image of 0 and k indexes ``automorphism_group(g).elements``.
    Then (a, k)(b, l) = (a * alpha_k(b), kl), two table lookups and one
    product in Aut(g).  Candidates with image a are tried in the order of
    their permutation tuples, so the search visits the holomorph as if it
    were listed sorted; it is never built as tuples.

    Row x of a circle table is the subgroup element (x, k) with image x,
    so row x starts with x and the tables sort as the subgroups' sorted
    element lists do.  The generating set is the branch targets on the
    search path: each is the smallest point the earlier ones do not
    reach, which is the set ``make_group`` would pick.
    """
    n = g.order
    aut = automorphism_group(g, budget)
    auts = aut.elements
    m = len(auts)
    rows = g.table.tolist()
    alphas = np.array(auts, dtype=np.int32)
    idx = np.arange(n)
    fpf: list[list[bool]] = []  # fpf[a][k]: (a, k) moves every point
    by_start: dict[int, list[int]] = {}  # a -> usable k, in tuple order
    for a in range(n):
        moved = g.table[a][alphas]  # row k is the permutation (a, k)
        free = (moved != idx).all(axis=1)
        fpf.append(free.tolist())
        if a:
            order = np.lexsort(moved.T[::-1])
            by_start[a] = order[free[order]].tolist()
    # k * m + l -> index of alpha_k alpha_l; a full table would be m^2
    products: dict[int, int] = {}

    spend = _Budget(budget, "regular subgroup search").spend
    found: list[tuple[np.ndarray, tuple[int, ...]]] = []

    def closure(base: dict[int, int], gens: list[tuple[int, int]]) -> Optional[dict[int, int]]:
        """The group ``gens`` generate, as image of 0 -> k, grown from ``base``.

        ``base`` is the group gens[:-1] generate, so its elements need only
        the newest generator.  None at the first element with a fixed point
        or an image of 0 already taken: the group is then not semiregular.
        """
        elems = dict(base)
        frontier, step = list(base.items()), gens[-1:]
        while frontier:
            nxt = []
            for a, k in frontier:
                row, alpha = rows[a], auts[k]
                for b, l in step:
                    c = row[alpha[b]]
                    kl = products.get(k * m + l)
                    if kl is None:
                        kl = products[k * m + l] = aut.index(compose(alpha, auts[l]))
                    old = elems.get(c)
                    if old is None:
                        if not fpf[c][kl]:
                            return None
                        elems[c] = kl
                        nxt.append((c, kl))
                    elif old != kl:
                        return None
            frontier, step = nxt, gens
        return elems

    def grow(elems: dict[int, int], gens: list[tuple[int, int]]) -> None:
        if len(elems) == n:
            table = g.table[idx[:, None], alphas[[elems[x] for x in range(n)]]]
            found.append((table, tuple(t for t, _ in gens)))
            if len(found) > cap:
                raise CapExceeded(cap, "regular subgroup enumeration")
            return
        # branch on the smallest point not yet hit from 0
        target = next(x for x in range(n) if x not in elems)
        for k in by_start[target]:
            spend()
            grown = closure(elems, gens + [(target, k)])
            if grown is not None:
                grow(grown, gens + [(target, k)])

    grow({0: aut.index(identity_perm(n))}, [])
    # fixed-width big-endian bytes sort as the entries' lists would, and
    # hold all keys at once in a fraction of the memory
    found.sort(key=lambda entry: entry[0].astype(">u4").tobytes())
    return found


# ---------------------------------------------------------------------------
# classification


def classify_braces(braces: Sequence[SkewBrace]) -> BraceCensus:
    """Group braces into isomorphism classes, in order of first occurrence.

    Braces on one additive table are isomorphic exactly when an additive
    automorphism transports one circle table to the other, so each class
    is an Aut(A)-orbit of circle tables.  A brace on another labelling of
    an additive group already seen is first moved into that group's
    labelling by a group isomorphism, found once per additive table.
    """
    if not braces:
        raise ValueError("cannot classify an empty brace list")
    adds: list[FiniteGroup] = []  # one labelling per additive isomorphism type
    orbits: list[dict[bytes, int]] = []  # per entry of adds: circle table -> class
    # per entry of adds: its automorphisms as rows of images, and their inverses
    auts: list[tuple[np.ndarray, np.ndarray]] = []
    classes: list[list[SkewBrace]] = []
    # additive table digest -> (entry of adds, relabelling into it or None)
    placed: dict[bytes, tuple[int, Optional[np.ndarray]]] = {}
    for b in braces:
        if b.add.digest not in placed:
            for k, add in enumerate(adds):
                if add == b.add:
                    placed[b.add.digest] = (k, None)
                    break
                iso = are_isomorphic(b.add, add)
                if iso is not None:
                    placed[b.add.digest] = (k, np.asarray(iso.images, dtype=np.int32))
                    break
            else:
                placed[b.add.digest] = (len(adds), None)
                adds.append(b.add)
                orbits.append({})
                images = np.array(automorphism_group(b.add).elements, dtype=np.int32)
                auts.append((images, np.argsort(images, axis=1)))
        k, sigma = placed[b.add.digest]
        table = b.mult.table if sigma is None else _relabel(b.mult.table, sigma)
        cls = orbits[k].get(table.tobytes())
        if cls is None:
            cls = len(classes)
            for moved in _transports(table, *auts[k]):
                orbits[k][moved.tobytes()] = cls
            classes.append([])
        classes[cls].append(b)
    entries = tuple(
        CensusEntry(cls[0], recognize(cls[0].mult), len(cls)) for cls in classes
    )
    return BraceCensus(adds[0], len(braces), entries)


def _transports(table: np.ndarray, sigma: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Row j is the table relabelled by automorphism j, flattened.

    ``sigma[j]`` lists the images of automorphism j and ``inv[j]`` its
    inverse.  One gather for the whole group: row j equals
    ``_relabel(table, sigma[j]).ravel()`` and has the same bytes.
    """
    moved = table[inv[:, :, None], inv[:, None, :]].reshape(len(sigma), -1)
    return np.take_along_axis(sigma, moved, axis=1)

"""Enumerating every skew brace on a fixed additive group.

Braces with additive group G correspond to regular subgroups of the
holomorph of G: the subgroup element sending 0 to x becomes row x of the
multiplicative table.  The search grows closed permutation sets one
generator at a time, always branching on the smallest point of the
carrier not yet hit from 0 — which visits each regular subgroup along
exactly one path, so no deduplication is needed.  Two necessary
conditions drop candidates before they are closed: every cycle of a
candidate has one length, as in every semiregular group, and a candidate
sends no point of the orbit of 0 under the group so far back into that
orbit.  A candidate that either condition drops lies in no regular
subgroup containing the group so far, so the search finds the same
subgroups, in the same order, as one that closes every candidate.
Braces are classified by walking each new class's orbit of circle
tables under the generators of Aut(G) that its order search keeps.
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
    _aut_chain,
    _relabel,
    are_isomorphic,
    automorphism_group,
    recognize,
)
from .perms import PermutationGroup, _reached, compose, identity_perm

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

    One node is one candidate that passes both filters of the module
    docstring and is closed.
    """
    n = g.order
    aut = automorphism_group(g, budget)
    auts = aut.elements
    m = len(auts)
    rows = g.table.tolist()
    alphas = np.array(auts, dtype=np.int32)
    idx = np.arange(n)
    # automorphisms agreeing on g.generators are equal, so these columns sort ``moved``
    width = max(g.generators, default=0) + 1
    # uniform[a][k]: every cycle of (a, k) has one length, as in every
    # semiregular group; for a != 0 this implies no fixed point
    uniform: list[list[bool]] = []
    by_start: dict[int, np.ndarray] = {}  # a -> usable k, in tuple order
    rank = np.empty((n, m), dtype=np.int32)  # rank[a][k]: place of (a, k) in tuple order
    for a in range(n):
        moved = g.table[a][alphas]  # row k is the permutation (a, k)
        ok = _equal_cycles(moved)
        uniform.append(ok.tolist())
        order = np.lexsort(moved[:, :width].T[::-1])
        rank[a, order] = np.arange(m)
        by_start[a] = order[ok[order]]
    # k * m + l -> index of alpha_k alpha_l; a full table would be m^2
    products = _Products(aut)
    inverses = g.inverses.tolist()

    spend = _Budget(budget, "regular subgroup search").spend
    lambdas: list[list[int]] = []  # per subgroup found: k of its element with image x, by x
    paths: list[tuple[int, ...]] = []  # per subgroup found: its branch targets

    def closure(base: dict[int, int], t: int, l: int) -> Optional[dict[int, int]]:
        """The group ``base`` and (t, l) generate, as image of 0 -> k.

        ``base`` is a group H, so the new group is a union of left cosets
        of H.  Each product of an element with (t, l) that lies outside
        them starts a new coset, added whole by right multiplication with
        every element of H; the group is complete once every element's
        product with (t, l) lies inside.  None at the first element with
        cycles of different lengths or an image of 0 already taken: the
        group is then not semiregular.
        """
        elems = dict(base)
        coset = list(base.items())
        todo = list(coset)
        for a, k in todo:
            c, kl = rows[a][auts[k][t]], products[k * m + l]
            old = elems.get(c)
            if old is None:
                row, alpha, km = rows[c], auts[kl], kl * m
                for b, j in coset:
                    x, xj = row[alpha[b]], products[km + j]
                    if x in elems or not uniform[x][xj]:
                        return None
                    elems[x] = xj
                    todo.append((x, xj))
            elif old != kl:
                return None
        return elems

    def grow(elems: dict[int, int], gens: list[tuple[int, int]]) -> None:
        if len(elems) == n:
            lambdas.append([elems[x] for x in range(n)])
            paths.append(tuple(t for t, _ in gens))
            if len(paths) > cap:
                raise CapExceeded(cap, "regular subgroup enumeration")
            return
        # branch on the smallest point not yet hit from 0
        target = next(x for x in range(n) if x not in elems)
        ks = by_start[target]
        # a candidate q = (target, k) sending a point h(0) of the orbit of 0
        # back into it would put q∘h, and so q, in this group in any regular
        # overgroup; it does so when alpha_k(h(0)) lies in target^-1 * orbit
        orbit = list(elems)
        back = np.zeros(n, dtype=bool)
        back[g.table[inverses[target], orbit]] = True
        for k in ks[~back[alphas[ks[:, None], orbit]].any(axis=1)].tolist():
            spend()
            grown = closure(elems, target, k)
            if grown is not None:
                grow(grown, gens + [(target, k)])

    grow({0: aut.index(identity_perm(n))}, [])
    # grow refers to itself; unbinding it frees the search state on return
    # rather than at the next garbage collection
    del grow
    # row x of a circle table is the permutation (x, k) for its k, so the
    # tables sort as the tuple-order ranks of their rows do
    found = np.array(lambdas, dtype=np.intp)
    order = np.lexsort(rank[idx, found].T[::-1])
    found = found[order]
    tables = np.empty((len(found), n, n), dtype=g.table.dtype)
    for x in range(n):
        tables[:, x] = g.table[x][alphas[found[:, x]]]
    return [(table, paths[j]) for table, j in zip(tables, order.tolist())]


class _Products(dict):
    """k * m + l -> index of alpha_k alpha_l in Aut(g), each found on first use.

    A full table would hold m^2 entries; a search reads few of them.
    """

    def __init__(self, aut: PermutationGroup) -> None:
        super().__init__()
        self.aut = aut

    def __missing__(self, key: int) -> int:
        k, l = divmod(key, len(self.aut))
        elements = self.aut.elements
        value = self[key] = self.aut.index(compose(elements[k], elements[l]))
        return value


def _equal_cycles(perms: np.ndarray) -> np.ndarray:
    """Whether each row, a permutation, has all its cycles of one length.

    A point first returns after its cycle's length, so a row is settled at
    the first power at which any of its points returns: all must return
    there.  Only the unsettled rows are raised to the next power.
    """
    equal = np.zeros(len(perms), dtype=bool)
    live = np.arange(len(perms))
    base = power = perms
    points = np.arange(perms.shape[1])
    while live.size:
        back = power == points
        hit = back.any(axis=1)
        equal[live[hit]] = back[hit].all(axis=1)
        live, base, power = live[~hit], base[~hit], power[~hit]
        power = np.take_along_axis(base, power, axis=1)
    return equal


# ---------------------------------------------------------------------------
# classification


def classify_braces(braces: Sequence[SkewBrace]) -> BraceCensus:
    """Group braces into isomorphism classes, in order of first occurrence.

    Braces on one additive table are isomorphic exactly when an additive
    automorphism transports one circle table to the other, so each class
    is an Aut(A)-orbit of circle tables, walked under the generators its
    order search keeps.  A brace on another labelling of an additive group
    already seen is first moved into that group's labelling by a group
    isomorphism, found once per additive table.
    """
    if not braces:
        raise ValueError("cannot classify an empty brace list")
    adds: list[FiniteGroup] = []  # one labelling per additive isomorphism type
    orbits: list[dict[bytes, int]] = []  # per entry of adds: circle table -> class
    gens: list[np.ndarray] = []  # per entry of adds: generators of Aut, as rows of images
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
                kept = _aut_chain([b.add], None, "automorphism search")[1]
                gens.append(np.array(kept, dtype=np.int32).reshape(len(kept), b.order))
        k, sigma = placed[b.add.digest]
        table = b.mult.table if sigma is None else _relabel(b.mult.table, sigma)
        cls = orbits[k].get(table.tobytes())
        if cls is None:
            cls = len(classes)
            orbits[k].update(dict.fromkeys(_orbit_tables(table, gens[k]), cls))
            classes.append([])
        classes[cls].append(b)
    entries = tuple(
        CensusEntry(cls[0], recognize(cls[0].mult), len(cls)) for cls in classes
    )
    return BraceCensus(adds[0], len(braces), entries)


def _orbit_tables(table: np.ndarray, sigma: np.ndarray) -> set[bytes]:
    """The bytes of every table the automorphisms ``sigma`` generate carry ``table`` to.

    A level relabels every new table t by every row of sigma at once:
    ``_relabel(t, sigma[j])`` holds sigma[j] of the entry of t at (inverse
    x, inverse y), read from the flattened sigma at offset j * n.
    """
    m, n = sigma.shape
    inv = np.argsort(sigma, axis=1).astype(table.dtype)
    positions = (inv[:, :, None] * n + inv[:, None, :]).reshape(m, n * n)
    offsets = np.arange(m, dtype=table.dtype)[:, None] * n
    images = sigma.ravel()
    return _reached(table.ravel(), lambda t: images.take(t.take(positions, axis=1) + offsets))

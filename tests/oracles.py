"""Slow, independent reference computations used only by the tests.

Each one answers a question the library answers too, by a route that
shares none of the library's search code: trying every bijection,
transporting every abstract group, or scanning every tuple of generator
images without pruning (only the choice of generators is shared, so the
scan's first map is comparable with the library's).
"""
import itertools
from typing import Optional, Sequence

import numpy as np

from bracelab.braces import validate_direct
from bracelab.groups import (
    FiniteGroup,
    abelian_group,
    cyclic_group,
    generating_sequence,
    make_group,
    symmetric_group,
)
from bracelab.perms import PermutationGroup


def brute_force_automorphisms(g: FiniteGroup) -> PermutationGroup:
    """Automorphisms by trying every identity-fixing bijection (order <= 8)."""
    n = g.order
    if n > 8:
        raise ValueError(f"brute force is limited to order <= 8, got {n}")
    auts = []
    for rest in itertools.permutations(range(1, n)):
        img = np.array((0,) + rest, dtype=np.int32)
        if np.array_equal(img[g.table], g.table[np.ix_(img, img)]):
            auts.append(tuple(int(v) for v in img))
    return PermutationGroup(n, auts)


def _abstract_groups_of_order(n: int) -> list[FiniteGroup]:
    if n == 4:
        return [cyclic_group(4), abelian_group([2, 2])]
    if n == 6:
        return [cyclic_group(6), symmetric_group(3)]
    if 1 <= n <= 5:
        return [cyclic_group(n)]
    raise ValueError(f"the abstract catalog stops at order 6, got {n}")


def oracle_tables(g: FiniteGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Brute-force multiplicative tables for every brace on g (order <= 6).

    Transports each catalog group through all identity-fixing bijections and
    keeps the tables satisfying the brace law with g additive.  The result
    is a sorted, duplicate-free list, suitable for set comparison with the
    holomorph route.
    """
    n = g.order
    keep: set[tuple[tuple[int, ...], ...]] = set()
    for h in _abstract_groups_of_order(n):
        base = h.table
        for rest in itertools.permutations(range(1, n)):
            sigma = np.array((0,) + rest, dtype=np.int32)
            inv = np.argsort(sigma)
            transported = sigma[base[np.ix_(inv, inv)]]
            if validate_direct(g, make_group(transported)) is None:
                keep.add(tuple(tuple(int(v) for v in row) for row in transported))
    return sorted(keep)


def relabel(g: FiniteGroup, sigma: Sequence[int]) -> FiniteGroup:
    """The copy of g whose element sigma[x] plays the role of x (sigma[0] == 0)."""
    s = np.asarray(sigma, dtype=np.int32)
    inv = np.argsort(s)
    return make_group(s[g.table[np.ix_(inv, inv)]])


def product_scan_isomorphism(
    src: Sequence[FiniteGroup], dst: Sequence[FiniteGroup]
) -> Optional[tuple[int, ...]]:
    """First bijection carrying every src[k] table to dst[k], by a plain scan.

    Every tuple of generator images for ``generating_sequence(src[0])``
    whose element orders match under every table is tried in
    lexicographic order, with no pruning; each is extended along a
    breadth-first definition chain and checked as a bijective
    homomorphism on every pair of tables.
    """
    g = src[0]
    n = g.order
    gens = generating_sequence(g)
    # breadth-first definition chain: parent[y] = (x, i) with y = x * gens[i]
    parent = [(-1, -1)] * n
    order = [0]
    seen = {0}
    for x in order:
        for i, gen in enumerate(gens):
            y = int(g.table[x, gen])
            if y not in seen:
                seen.add(y)
                parent[y] = (x, i)
                order.append(y)
    assert len(order) == n
    cands = [
        [
            x
            for x in range(n)
            if all(h.element_orders()[x] == s.element_orders()[gen] for s, h in zip(src, dst))
        ]
        for gen in gens
    ]
    for images in itertools.product(*cands):
        img = np.zeros(n, dtype=np.int32)
        for y in order[1:]:
            x, i = parent[y]
            img[y] = dst[0].table[img[x], images[i]]
        if np.bincount(img, minlength=n).max() != 1:
            continue
        if all(
            np.array_equal(img[s.table], h.table[np.ix_(img, img)])
            for s, h in zip(src, dst)
        ):
            return tuple(int(v) for v in img)
    return None

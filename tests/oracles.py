"""Slow, independent reference computations used only by the tests.

Each one answers a question the library answers too, by a different
route: trying every bijection, transporting every abstract group,
testing each automorphism of one brace operation against the other's
table where the library searches both tables at once,
scanning every tuple of generator images without pruning (only the
choice of generators is shared, so the scan's first map is comparable
with the library's), listing automorphisms by exhausting the
generator-image search where the library closes the maps its order
search keeps, settling every candidate image of an automorphism
order count by its own search where the library closes orbits under the
maps it has found, closing every candidate at every step of a greedy
generating sequence where the library skips the ones an earlier
closure covers, evaluating a law on every triple of elements where
the library checks generators only, sorting every row and column of
a table before its associativity is decided where the library sorts
only a table that fails as a group, checking every displacement map
where the library checks those of the circle generators, comparing braces pairwise where
the library compares orbits of circle tables, or closing candidate
subgroups of the holomorph as permutation tuples, filtering their
candidates by tuple powers and products and conjugating them and the
leaves by automorphism tuples, where the library multiplies
(translation, automorphism) codes, filters by array gathers and walks
orbits of lambda-vectors, or naming a group by
isomorphism search where the library counts elements, or building the
stock group and ring tables entry by entry or by each ring kind's own
formula where the library broadcasts one coordinate rule, or reading
a file as text and table rows one line and one token at a time where
the library parses the file's bytes a block of rows at a time, or
writing table rows one entry at a time where the library prints whole
blocks of rows.  It also lists
one group of each isomorphism type up to order 31, among them the
quaternion group, whose table no library constructor builds, and the
nine nonabelian groups of order 16, and the endomorphisms of a group
whose image is abelian, by closing every tuple of generator images.
"""
import itertools
import re
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from bracelab.algebras import NilpotentAlgebra
from bracelab.braces import (
    HolomorphWitness,
    SkewBrace,
    are_brace_isomorphic,
    validate_direct,
)
from bracelab.errors import FileFormatError
from bracelab.formats import _parse_order
from bracelab.groups import (
    FiniteGroup,
    _Budget,
    _HomSearch,
    _prime_cube_root,
    abelian_group,
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    generating_sequence,
    heisenberg_group,
    holomorph,
    m3_group,
    make_group,
    recognize,
    semidirect_product,
    subgroup_closure,
    symmetric_group,
)
from bracelab.perms import (
    Perm,
    PermutationGroup,
    compose,
    identity_perm,
    invert,
    is_fixed_point_free,
    perm_order,
)

# the quaternion units 1,-1,i,-i,j,-j,k,-k as indices 0..7
_QUAT = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]


def quaternion_group() -> FiniteGroup:
    return make_group(_QUAT)


def _metacyclic(m: int, r: int, s: int) -> FiniteGroup:
    """<x, y | x^m = 1, y^2 = x^s, y x y^-1 = x^r>; x^i y^j has index 2i + j."""
    table = [
        [
            2 * ((i1 + pow(r, j1, m) * i2 + (s if j1 and j2 else 0)) % m) + (j1 ^ j2)
            for i2 in range(m)
            for j2 in range(2)
        ]
        for i1 in range(m)
        for j1 in range(2)
    ]
    return make_group(table)


def nonabelian_groups_of_order_16() -> dict[str, FiniteGroup]:
    """The nine nonabelian groups of order 16, each built from its definition.

    D8, Q16, SD16 and M16 extend C8 by y with y x y^-1 = x^-1, x^-1 (and
    y^2 = x^4), x^3 and x^5.  C4 o D4 is (C4 x C2) x| C2 with the outer
    generator fixing a and sending b to a^2 b, the Pauli group.  In
    C2^2 x| C4 the generator of C4 swaps two involutions of C2^2; in
    C4 x| C4 it inverts.
    """
    klein, c2, c4 = abelian_group([2, 2]), cyclic_group(2), cyclic_group(4)
    # C4 x C2 indexes (a, b) as 2a + b
    pauli = [list(range(8)), [2 * ((a + 2 * b) % 4) + b for a in range(4) for b in range(2)]]
    return {
        "D8": dihedral_group(8),
        "Q16": _metacyclic(8, 7, 4),
        "SD16": _metacyclic(8, 3, 0),
        "M16": _metacyclic(8, 5, 0),
        "C2 x D4": direct_product(c2, dihedral_group(4)),
        "C2 x Q8": direct_product(c2, quaternion_group()),
        "C4 o D4": semidirect_product(abelian_group([4, 2]), c2, pauli),
        "C2^2 x| C4": semidirect_product(klein, c4, [[0, 1, 2, 3], [0, 2, 1, 3]] * 2),
        "C4 x| C4": semidirect_product(c4, c4, [[0, 1, 2, 3], [0, 3, 2, 1]] * 2),
    }


def filtered_brace_automorphisms(brace: SkewBrace) -> PermutationGroup:
    """Brace automorphisms by testing each automorphism of one operation.

    The automorphisms of whichever operation has fewer of them are kept
    when they also carry the other operation's table to itself.
    """
    aut_add = automorphism_group(brace.add)
    aut_mult = automorphism_group(brace.mult)
    small, other = (
        (aut_add, brace.mult) if aut_add.order <= aut_mult.order else (aut_mult, brace.add)
    )
    t = other.table
    keep = []
    for alpha in small:
        img = np.asarray(alpha, dtype=np.int32)
        if np.array_equal(img[t], t[np.ix_(img, img)]):
            keep.append(alpha)
    return PermutationGroup(brace.order, keep)


def searched_name(g: FiniteGroup) -> str:
    """The name ``recognize`` gives, with S4, M(p), M3(p) and D_m found by search.

    Each of those families is tried with ``are_isomorphic`` against a
    group built from its definition; abelian groups and the nonabelian
    groups of order 6, 8, 12 and 16 are named by ``recognize`` itself.
    """
    n = g.order
    if g.is_abelian() or n in (6, 8, 12, 16):
        return recognize(g)
    if n == 24 and are_isomorphic(g, symmetric_group(4)) is not None:
        return "S4"
    p = _prime_cube_root(n)
    if p is not None and p % 2 == 1:
        if g.exponent() == p and are_isomorphic(g, heisenberg_group(p)) is not None:
            return f"M({p})"
        if g.exponent() == p * p and are_isomorphic(g, m3_group(p)) is not None:
            return f"M3({p})"
    if n % 2 == 0 and n >= 8 and are_isomorphic(g, dihedral_group(n // 2)) is not None:
        return f"D{n // 2}"
    return "unrecognized"


def searched_automorphisms(tables: Sequence[FiniteGroup]) -> PermutationGroup:
    """Every bijection preserving all the tables, by exhausting the search.

    Each map of the generator-image search is listed, where the library
    closes the maps its order search keeps.  Pass ``[g]`` for Aut(g) and
    ``[brace.add, brace.mult]`` for the automorphisms of a brace.
    """
    search = _HomSearch(tables, tables, _Budget(None, "automorphism listing search"))
    return PermutationGroup(tables[0].order, search.maps())


def aut_order_by_candidates(tables: Sequence[FiniteGroup]) -> int:
    """|Aut| of the tables with every candidate image settled on its own.

    Down the chain of g_1, ..., g_k = generating_sequence(tables[0]), the
    order is the product over i of the images v of g_i that some map fixing
    g_1, ..., g_(i-1) reaches; each candidate v other than g_i is settled by
    the first map of its own search from g_1, ..., g_(i-1), v, with no orbit
    closed under the maps already found.
    """
    search = _HomSearch(tables, tables, _Budget(None, "per-candidate order search"))
    order = 1
    for depth, gen in enumerate(search.gens):
        order *= 1 + sum(
            next(search.maps(depth, v), None) is not None
            for v in search.cands[depth]
            if v != gen
        )
    return order


def greedy_generators_by_closure(g: FiniteGroup, candidates: Sequence[int]) -> tuple[int, ...]:
    """Generators picked one at a time, each growing the span the most.

    Every candidate is closed with the generators so far at every step, and
    among those that grow the span equally the first in ``candidates``
    wins; the library skips candidates an earlier closure already covers.
    """
    gens: list[int] = []
    size = 1
    while size < g.order:
        best_g, best_size = -1, size
        for cand in candidates:
            grown = len(subgroup_closure(g, gens + [cand]))
            if grown > best_size:
                best_g, best_size = cand, grown
                if grown == g.order:
                    break
        gens.append(best_g)
        size = best_size
    return tuple(gens)


def greedy_generators_from_identity(g: FiniteGroup) -> tuple[int, ...]:
    """The greedy generating sequence with each candidate closed from element 0.

    Candidates are ranked by centraliser size, then by index.  At each
    step every candidate outside the spans closed so far is closed, with
    the generators so far, from element 0 over a fresh slice of the
    table's columns, and the first that grows the span the most wins; the
    library closes each from the span of the generators so far instead.
    """
    ranked = np.argsort((g.table == g.table.T).sum(axis=1)[1:], kind="stable") + 1
    gens: list[int] = []
    span = [0]
    while len(span) < g.order:
        best_g, best = -1, span
        covered = np.zeros(g.order, dtype=bool)
        covered[span] = True
        for cand in ranked.tolist():
            if covered[cand]:
                continue
            grown = subgroup_closure(g, gens + [cand])
            covered[grown] = True
            if len(grown) > len(best):
                best_g, best = cand, grown
                if len(grown) == g.order:
                    break
        gens.append(best_g)
        span = best
    return tuple(gens)


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


def abelian_image_endomorphisms(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every endomorphism of g whose image is abelian, as a tuple of images.

    Each tuple of pairwise commuting images of ``generating_sequence(g)``
    is closed as a map; the tuples that close are the endomorphisms, and
    their images are generated by commuting elements.
    """
    t = g.table.tolist()
    gens = generating_sequence(g)
    found = []
    for images in itertools.product(range(g.order), repeat=len(gens)):
        if all(t[a][b] == t[b][a] for a, b in itertools.combinations(images, 2)):
            psi = _closed_map(t, gens, images)
            if psi is not None:
                found.append(psi)
    return found


def _closed_map(
    t: list[list[int]], gens: Sequence[int], images: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """The map x * s -> psi(x) * psi(s) over generators s with psi(s) given.

    It starts from psi(0) = 0 and is None at the first element that gets
    two images.  Otherwise it covers the group the generators generate and
    is a homomorphism, as it respects right multiplication by each of them.
    """
    psi = [-1] * len(t)
    psi[0] = 0
    todo = [0]
    for x in todo:
        for s, v in zip(gens, images):
            y, w = t[x][s], t[psi[x]][v]
            if psi[y] < 0:
                psi[y] = w
                todo.append(y)
            elif psi[y] != w:
                return None
    return tuple(psi)


def _scaling(m: int, r: int, k: int) -> list[list[int]]:
    """The action of C_k on C_m in which element j multiplies by r^j."""
    return [[pow(r, j, m) * x % m for x in range(m)] for j in range(k)]


# invariant factors of every abelian group of order n, where there are several
_ABELIAN_FACTORS = {
    4: [[4], [2, 2]], 8: [[8], [2, 4], [2, 2, 2]], 9: [[9], [3, 3]], 12: [[12], [2, 6]],
    16: [[16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2]], 18: [[18], [3, 6]], 20: [[20], [2, 10]],
    24: [[24], [2, 12], [2, 2, 6]], 25: [[25], [5, 5]], 27: [[27], [3, 9], [3, 3, 3]],
    28: [[28], [2, 14]],
}


def _abstract_groups_of_order(n: int) -> list[FiniteGroup]:
    """One group of each isomorphism type of order n, for 1 <= n <= 31.

    The abelian groups by invariant factors come first, then the
    nonabelian ones, each built from its definition: dihedral groups, Q8,
    A4 = C2^2 x| C3, Dic3 = C3 x| C4 and the nonabelian groups of order
    16.  Dic_k, for k > 3, is <x, y | x^2k = 1, y^2 = x^k, y x y^-1 = x^-1>.
    In F20, C7 x| C3 and C3 x| C8 a generator multiplies by 2.  SL(2,3)
    is Q8 x| C3 under an automorphism of order 3.  In C3 x| D4 the
    rotations of odd index invert C3, so the kernel is a Klein group; a C4
    kernel would give D12.
    """
    if not 1 <= n <= 31:
        raise ValueError(f"the abstract catalog covers orders 1 to 31, got {n}")
    found = [abelian_group(f) for f in _ABELIAN_FACTORS.get(n, [[n]])]
    klein, c2, c3, c4 = abelian_group([2, 2]), cyclic_group(2), cyclic_group(3), cyclic_group(4)
    a4_action = [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    if n == 6:
        found.append(symmetric_group(3))
    elif n == 8:
        found += [dihedral_group(4), quaternion_group()]
    elif n == 12:
        found += [
            dihedral_group(6),
            semidirect_product(klein, c3, a4_action),
            semidirect_product(c3, c4, _scaling(3, 2, 4)),
        ]
    elif n in (10, 14, 22, 26):
        found.append(dihedral_group(n // 2))
    elif n == 16:
        found += nonabelian_groups_of_order_16().values()
    elif n == 18:
        c33 = abelian_group([3, 3])
        found += [
            dihedral_group(9),
            direct_product(c3, symmetric_group(3)),
            semidirect_product(c33, c2, [list(range(9)), c33.inverses.tolist()]),
        ]
    elif n == 20:
        found += [
            dihedral_group(10),
            _metacyclic(10, 9, 5),
            semidirect_product(cyclic_group(5), c4, _scaling(5, 2, 4)),
        ]
    elif n == 21:
        found.append(semidirect_product(cyclic_group(7), c3, _scaling(7, 2, 3)))
    elif n == 24:
        s3, q8 = symmetric_group(3), quaternion_group()
        alpha = next(p for p in automorphism_group(q8) if perm_order(p) == 3)
        found += [
            symmetric_group(4),
            semidirect_product(q8, c3, [list(range(8)), list(alpha), list(compose(alpha, alpha))]),
            dihedral_group(12),
            _metacyclic(12, 11, 6),
            semidirect_product(c3, cyclic_group(8), _scaling(3, 2, 8)),
            semidirect_product(c3, dihedral_group(4), [_scaling(3, 2, 2)[j % 2] for j in range(8)]),
            direct_product(c2, semidirect_product(klein, c3, a4_action)),
            direct_product(klein, s3),
            direct_product(c2, semidirect_product(c3, c4, _scaling(3, 2, 4))),
            direct_product(c4, s3),
            direct_product(c3, dihedral_group(4)),
            direct_product(c3, q8),
        ]
    elif n == 27:
        found += [heisenberg_group(3), m3_group(3)]
    elif n == 28:
        found += [dihedral_group(14), _metacyclic(14, 13, 7)]
    elif n == 30:
        found += [
            dihedral_group(15),
            direct_product(cyclic_group(5), symmetric_group(3)),
            direct_product(c3, dihedral_group(5)),
        ]
    return found


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


def tuple_closure_regular_subgroups(
    g: FiniteGroup,
    filtered: bool = True,
    dropped: Optional[list[tuple[Perm, frozenset[Perm]]]] = None,
    pruned: bool = True,
) -> tuple[list[PermutationGroup], int]:
    """Regular subgroups of the holomorph built as tuples, and the nodes used.

    The same search as ``census.enumerate_braces`` with every
    holomorph element a permutation tuple: candidates are the sorted
    elements whose cycles all have one length, found by taking tuple
    powers, with the smallest point not yet hit from 0 as image of 0; a
    candidate q that sends a point h(0) of the orbit of 0 back into it
    (``compose(q, h)[0]`` already hit, for some h in the group so far) is
    dropped, and each other one is closed by composing tuples.  With
    ``pruned``, each node keeps the automorphism tuples b that fix every
    branch target and commute with every generator so far, and a
    candidate b∘q∘b^-1 of a candidate q closed earlier at the node, for a
    kept b fixing the target, is not closed; the leaves are then
    conjugated by every automorphism.  One node is one candidate closed.
    With ``filtered`` false the search closes every fixed-point-free
    candidate.  Each candidate the filters drop is appended to ``dropped``
    with the group it was dropped at, empty for a candidate dropped by its
    cycles.
    """
    n = g.order
    hol = holomorph(g)
    auts = automorphism_group(g).elements
    usable = {p for p in hol if (equal_cycle_lengths if filtered else is_fixed_point_free)(p)}
    by_start: dict[int, list[Perm]] = {x: [] for x in range(1, n)}
    for p in hol:  # in sorted order, so each list is sorted
        if not p[0]:
            continue
        if p in usable:
            by_start[p[0]].append(p)
        elif dropped is not None and is_fixed_point_free(p):
            dropped.append((p, frozenset()))
    nodes = 0
    leaves: list[frozenset[Perm]] = []

    def closure(base: dict[int, Perm], gens: list[Perm]) -> Optional[dict[int, Perm]]:
        elems = dict(base)
        frontier, step = list(base.values()), gens[-1:]
        while frontier:
            nxt = []
            for p in frontier:
                for s in step:
                    r = compose(p, s)
                    old = elems.get(r[0])
                    if old is None:
                        if r not in usable:
                            return None
                        elems[r[0]] = r
                        nxt.append(r)
                    elif old != r:
                        return None
            frontier, step = nxt, gens
        return elems

    def grow(elems: dict[int, Perm], gens: list[Perm], kept: list[Perm]) -> None:
        nonlocal nodes
        if len(elems) == n:
            leaves.append(frozenset(elems.values()))
            return
        target = next(x for x in range(n) if x not in elems)
        fixing = [b for b in kept if b[target] == target]
        closed: set[Perm] = set()
        for q in by_start[target]:
            if filtered and any(compose(q, h)[0] in elems for h in elems.values()):
                if dropped is not None:
                    dropped.append((q, frozenset(elems.values())))
                continue
            if q in closed:
                continue
            nodes += 1
            conjugates = [compose(compose(b, q), invert(b)) for b in fixing]
            closed.update(conjugates)
            grown = closure(elems, gens + [q])
            if grown is not None:
                grow(grown, gens + [q], [b for b, c in zip(fixing, conjugates) if c == q])

    grow({0: identity_perm(n)}, [], list(auts) if pruned else [])
    # the unpruned search reaches every subgroup itself
    conjugators = auts if pruned else [identity_perm(n)]
    found: set[frozenset[Perm]] = set()
    for leaf in leaves:
        if leaf not in found:
            found |= {frozenset(compose(compose(b, p), invert(b)) for p in leaf) for b in conjugators}
    return sorted((PermutationGroup(n, sub) for sub in found), key=lambda pg: pg.elements), nodes


def equal_cycle_lengths(p: Perm) -> bool:
    """Whether all cycles of p have one length: at the first power of p
    that fixes a point, every point is fixed."""
    power = p
    while not any(power[x] == x for x in range(len(p))):
        power = compose(p, power)
    return all(power[x] == x for x in range(len(p)))


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


def pairwise_classes(braces: Sequence[SkewBrace]) -> list[list[SkewBrace]]:
    """Braces grouped up to isomorphism by pairwise search, first come first.

    Each brace joins the first class whose first member
    ``are_brace_isomorphic`` maps onto it, or else opens a new class.
    """
    classes: list[list[SkewBrace]] = []
    for b in braces:
        for cls in classes:
            if are_brace_isomorphic(cls[0], b) is not None:
                cls.append(b)
                break
        else:
            classes.append([b])
    return classes


def first_non_associative(table: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Lexicographically first (a, b, c) with (a*b)*c != a*(b*c), or None.

    Both sides are evaluated on the whole n x n x n cube of triples.
    """
    t = np.asarray(table)
    bad = np.argwhere(t[t] != t[:, t])      # [a, b, c]: (a*b)*c vs a*(b*c)
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def table_verdict(table: np.ndarray) -> tuple:
    """make_group's verdict on a table with entries in 0..n-1, by its checks in their first order.

    The first two-sided identity is swapped with 0; then every row, then
    every column, is sorted against 0..n-1; then associativity is decided
    on the whole cube of triples.  The verdict is ("group", the relabelled
    table as lists), ("NoIdentityError",), ("NotBijectiveRowError", index,
    axis) or ("NotAssociativeError", witness).
    """
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    idx = list(range(n))
    identity = next(
        (e for e in idx if t[e].tolist() == idx and t[:, e].tolist() == idx), None
    )
    if identity is None:
        return ("NoIdentityError",)
    swap = np.arange(n)
    swap[0], swap[identity] = identity, 0
    t = swap[t[np.ix_(swap, swap)]]         # swapping is its own inverse
    for axis, lines in (("row", t), ("column", t.T)):
        for k, line in enumerate(lines.tolist()):
            if sorted(line) != idx:
                return ("NotBijectiveRowError", k, axis)
    witness = first_non_associative(t)
    if witness is not None:
        return ("NotAssociativeError", witness)
    return ("group", t.tolist())


def law_failures(add: FiniteGroup, m_t: np.ndarray) -> list[tuple[int, int, int, int, int]]:
    """Every triple where a @ (b * c) != (a @ b) * inv(a) * (a @ c), in order.

    Each failure is (a, b, c, left side, right side); ``m_t[a, x]`` is read
    as a @ x.  Both sides are evaluated on the whole n x n x n cube of
    triples.
    """
    a_t, m_t = add.table, np.asarray(m_t)
    n = add.order
    lhs = m_t[np.arange(n)[:, None, None], a_t[None, :, :]]
    u = a_t[m_t, add.inverses[:, None]]     # [a, b] -> (a @ b) * inv(a)
    rhs = a_t[u[:, :, None], m_t[:, None, :]]
    bad = lhs != rhs
    return [
        (a, b, c, left, right)
        for (a, b, c), left, right in zip(
            np.argwhere(bad).tolist(), lhs[bad].tolist(), rhs[bad].tolist()
        )
    ]


def holomorph_scan(add: FiniteGroup, mult: FiniteGroup) -> Optional[HolomorphWitness]:
    """First failure of the holomorph route, by checking every displacement map.

    For a = 0, 1, ... in turn, the map x -> inv(a) * (a @ x) is checked on
    all pairs (x, y); the first pair where it does not respect addition is
    returned, where the library checks only the maps of the circle
    generators unless one of them fails.
    """
    a_t, m_t = add.table, mult.table
    inv = add.inverses
    for a in range(add.order):
        disp = a_t[inv[a]][m_t[a]]          # [x] -> inv(a) * (a @ x)
        lhs = disp[a_t]                     # [x, y] -> disp(x * y)
        rhs = a_t[np.ix_(disp, disp)]       # [x, y] -> disp(x) * disp(y)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)
            x, y = (int(v) for v in bad[0])
            return HolomorphWitness(a, x, y)
    return None


def intercalate_swap(table: np.ndarray, rng: np.random.Generator) -> Optional[np.ndarray]:
    """The table with one 2 x 2 Latin subsquare off row and column 0 swapped.

    Rows r1, r2 and columns c1, c2 with t[r1, c1] = t[r2, c2] = x and
    t[r1, c2] = t[r2, c1] = y have x and y exchanged, which keeps every
    row and column a permutation and 0 the identity.  None when 200 random
    tries find no such subsquare.
    """
    t = np.array(table, dtype=np.int64)
    n = len(t)
    for _ in range(200):
        r1, r2, c1 = (int(v) for v in rng.integers(1, n, 3))
        x, y = t[r1, c1], t[r2, c1]
        c2 = int(np.flatnonzero(t[r1] == y)[0])
        if r1 != r2 and c2 not in (0, c1) and t[r2, c2] == x:
            t[r1, c1], t[r1, c2], t[r2, c1], t[r2, c2] = y, x, x, y
            return t
    return None


def looped_symmetric_table(m: int) -> np.ndarray:
    """S_m entry by entry: "apply i, then j" looked up among the image tuples."""
    perms = [tuple(p) for p in itertools.permutations(range(m))]
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[compose(q, p)]
    return table


def looped_dihedral_table(m: int) -> np.ndarray:
    """D_m entry by entry; index = rotation + m * flip."""
    n = 2 * m
    table = np.empty((n, n), dtype=np.int32)
    for r1 in range(m):
        for s1 in range(2):
            for r2 in range(m):
                for s2 in range(2):
                    r = (r1 + (r2 if s1 == 0 else -r2)) % m
                    table[r1 + m * s1, r2 + m * s2] = r + m * (s1 ^ s2)
    return table


def looped_heisenberg_table(p: int) -> np.ndarray:
    """Unitriangular 3x3 matrices over Z/p entry by entry, triples in order."""
    triples = list(itertools.product(range(p), repeat=3))
    index = {t: i for i, t in enumerate(triples)}
    n = p**3
    table = np.empty((n, n), dtype=np.int32)
    for i, (a1, b1, c1) in enumerate(triples):
        for j, (a2, b2, c2) in enumerate(triples):
            table[i, j] = index[((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)]
    return table


def looped_m3_table(p: int) -> np.ndarray:
    """Z/p^2 extended by Z/p acting through powers of 1 + p, entry by entry."""
    p2 = p * p
    pairs = list(itertools.product(range(p2), range(p)))
    index = {t: i for i, t in enumerate(pairs)}
    n = p2 * p
    table = np.empty((n, n), dtype=np.int32)
    for i, (x1, y1) in enumerate(pairs):
        for j, (x2, y2) in enumerate(pairs):
            table[i, j] = index[((x1 + x2 * pow(1 + p, y1, p2)) % p2, (y1 + y2) % p)]
    return table


def looped_semidirect_table(
    base: FiniteGroup, actor: FiniteGroup, action: Sequence[Sequence[int]]
) -> np.ndarray:
    """(a1, j1)(a2, j2) = (a1 * action[j1](a2), j1 j2) entry by entry; index a |actor| + j.

    The identity action gives the direct product.
    """
    nb, nj = base.order, actor.order
    n = nb * nj
    table = np.empty((n, n), dtype=np.int32)
    for a1, j1, a2, j2 in itertools.product(range(nb), range(nj), range(nb), range(nj)):
        a = base.table[a1, action[j1][a2]]
        table[a1 * nj + j1, a2 * nj + j2] = a * nj + actor.table[j1, j2]
    return table


def ring_tables(algebra: NilpotentAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Additive and circle tables of a ring from its own kind's formula.

    The cyclic kind adds and multiplies integers mod p^3 with the product
    scaled by p^r; the modp kind adds digit rows of every coefficient
    vector and multiplies them through the structure constants.
    """
    p = algebra.p
    if algebra.kind == "cyclic":
        q = p**3
        idx = np.arange(q, dtype=np.int64)
        x, y = idx[:, None], idx[None, :]
        return (x + y) % q, (x + y + p**algebra.r % q * x * y) % q
    digits = np.array(list(itertools.product(range(p), repeat=algebra.dim)), dtype=np.int64)
    powers = p ** np.arange(algebra.dim - 1, -1, -1)
    sums = digits[:, None, :] + digits[None, :, :]
    prods = np.einsum("xi,yj,ijl->xyl", digits, digits, algebra.consts)
    return sums % p @ powers, (sums + prods) % p @ powers


_ENTRY = re.compile("[0-9]{1,18}")
_ROW = re.compile("[0-9]{1,18}([ \t]+[0-9]{1,18})*")


def text_lines(path: Path) -> list[str]:
    """A file's lines from its whole text, read and split by Python's text reading."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(line, f"byte {exc.object[exc.start]:#04x} is not valid text") from None
    return text.splitlines()


def parse_rows_by_line(lines: list[str], start: int, n: int) -> np.ndarray:
    """The n table rows on lines start..start+n-1, one line and one int() at a time.

    A row's entries are separated by runs of spaces and tabs, and each is
    1 to 18 ASCII digits.
    """
    rows = []
    for offset in range(n):
        line_no = start + offset
        if line_no > len(lines):
            raise FileFormatError(line_no, f"expected {n} table rows, file ended early")
        line = lines[line_no - 1]
        tokens = [t for t in line.replace("\t", " ").split(" ") if t]
        if len(tokens) != n:
            raise FileFormatError(
                line_no, f"expected {n} entries in table row, got {len(tokens)}"
            )
        if not _ROW.fullmatch(line.strip(" \t")):
            t = next(t for t in tokens if not _ENTRY.fullmatch(t))
            try:
                int(t)
            except ValueError:
                reason = "an integer"
            else:
                reason = "an unsigned decimal integer of at most 18 digits"
            raise FileFormatError(line_no, f"table entry must be {reason}, got {t!r}")
        rows.append(list(map(int, tokens)))
    return np.asarray(rows, dtype=np.int64)


def read_tables_by_line(path: Path, kind: str) -> list[np.ndarray]:
    """The tables of a group or brace file, from its text split into lines, row by row."""
    lines = text_lines(path)
    n = _parse_order(lines, kind)
    tables = [parse_rows_by_line(lines, 2, n)]
    if kind == "brace":
        sep = 2 + n
        if sep > len(lines) or lines[sep - 1].strip():
            raise FileFormatError(sep, "expected a blank line between the two tables")
        tables.append(parse_rows_by_line(lines, sep + 1, n))
    return tables


def rows_text_by_row(table: np.ndarray) -> str:
    """A table's rows as text, each row joined entry by entry."""
    return "\n".join(" ".join(map(str, row)) for row in table.tolist())

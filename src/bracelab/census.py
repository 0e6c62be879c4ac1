"""Enumerating every skew brace on a fixed additive group.

Braces with additive group G correspond to regular subgroups of the
holomorph of G: the subgroup element sending 0 to x becomes row x of the
multiplicative table.  ``enumerate_braces`` is the one entry into the
search and returns the braces; the subgroup of a brace b, as
permutations, is ``PermutationGroup(G.order, b.mult.table)``.  The
translations are the subgroup whose elements all act by the identity
automorphism, read off the search's record of which automorphism each
element applies.  The search grows closed permutation sets one
generator at a time, always branching on the smallest point of the
carrier not yet hit from 0, which gives each regular subgroup exactly one
path.  Two necessary conditions drop candidates before they are closed:
every cycle of a candidate has one length, as in every semiregular group,
and a candidate sends no point of the orbit of 0 under the group so far
back into that orbit.  A candidate that either condition drops lies in no
regular subgroup containing the group so far, so the search finds the
same subgroups as one that closes every candidate.

Conjugation by an automorphism of G carries regular subgroups to regular
subgroups, and isomorphic braces are exactly such conjugates.  So the
search closes one candidate per orbit of the automorphisms that fix its
node (isomorph rejection, after McKay, J. Algorithms 26, 1998), and the
subgroups it skips are recovered as the Aut(G)-classes of those it
finds.  Those classes are the brace isomorphism classes, so each
enumerated brace keeps the class the search reached it in, and
classification reads them.  Any other list of braces is classified by
walking each new class's orbit of circle tables under the generators of
Aut(G) that its order search keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .braces import SkewBrace
from .errors import CapExceeded
from .groups import (
    _BLOCK,
    FiniteGroup,
    _Budget,
    _aut_chain,
    _automorphisms,
    _isomorphism,
    _relabel,
    recognize,
)
from .perms import Perm, _count, _reached

__all__ = [
    "CensusEntry",
    "BraceCensus",
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


def enumerate_braces(
    g: FiniteGroup, cap: int = DEFAULT_CAP, budget: Optional[int] = None
) -> list[SkewBrace]:
    """Every skew brace with additive group g, one per regular subgroup.

    The braces come sorted as the subgroups' sorted element lists do.  The
    subgroup of brace b, as permutations, is ``PermutationGroup(g.order,
    b.mult.table)``: its element x is the one sending 0 to x, row x of the
    circle table.  Raises CapExceeded when more than ``cap`` subgroups
    exist and SearchLimitExceeded when the call outgrows its node budget,
    which pays for listing Aut(g) too unless the listing is cached on g.
    A cap must be an integer of at least 0, as a budget one of at least 1.

    Each brace is read straight off the search: regular subgroups of the
    holomorph are exactly the braces on g, so neither the circle table nor
    the brace law is validated again.  The tests and the benchmark's
    census checker verify both independently.  Each circle group finds its
    inverses and generating set on first use.  The translations' circle
    table is g's own, so that brace takes g itself as its circle group, as
    ``brace_from_groups`` would.  Each brace also keeps the isomorphism
    class the search reached it in, which ``classify_braces`` reads.

    A holomorph element x -> a * alpha_k(x) is coded as the pair (a, k):
    a is its image of 0 and k indexes ``automorphism_group(g).elements``.
    Then (a, k)(b, l) = (a * alpha_k(b), kl), two table lookups and one
    product in Aut(g).  Candidates with image a are tried in the order of
    their permutation tuples, so the search visits the holomorph as if it
    were listed sorted; it is never built as tuples.  A target's m
    candidates are sorted and cycle-tested when the search first branches
    on it, and the closure reads fixed points off one m x n table.  The
    last level, where the group so far has index 2, is settled by lookups:
    the closure tests the square of the candidate and its conjugates of
    the generators on the search path, and builds no coset to do so.

    Conjugating (a, k) by an automorphism beta gives (beta(a), beta alpha_k
    beta^-1).  Each node keeps the beta that fix every branch target so
    far and every chosen generator, and so fix the group H so far
    elementwise.  At target t it keeps those with beta(t) = t and walks
    the filtered candidates in tuple order, closing (t, k) only when it is
    not beta (t, j) beta^-1 for a kept beta and a candidate j closed
    earlier at the node; the child keeps the beta with beta alpha_k
    beta^-1 = alpha_k.  A regular subgroup R whose path takes a skipped
    (t, k) has the conjugate beta^-1 R beta, which contains H and (t, j),
    so its path agrees with R's down to this node and then takes the
    earlier j.  Paths cannot get earlier for ever, so some conjugate of R
    is a leaf, and the Aut(g)-classes of the leaves, walked under the maps
    ``_aut_chain`` keeps, are every regular subgroup.  A subgroup is walked
    as its lambda-vector: entry x is the k of its element with image x.
    The translations are the one subgroup whose lambda-vector is all the
    identity automorphism.

    Row x of a circle table is the subgroup element (x, k) with image x,
    so row x starts with x and the tables sort as the subgroups' sorted
    element lists do.

    Subgroups in one Aut(g)-class give isomorphic braces, so the class of
    each table is the number of the orbit it was reached in.  That numbers
    the classes by first occurrence in the sorted tables: the leaves come
    in that order, since rows below a node's target are its group's and
    the candidates at the target come in tuple order, and the first table
    of each class is a leaf, since a table that is no leaf has the smaller
    conjugate beta^-1 R beta above.

    One node is one candidate that passes both filters of the module
    docstring, is no such conjugate and is closed.
    """
    cap = _count(cap, 0, "the result cap")
    n = g.order
    spent = _Budget(budget, "regular subgroup search")
    auts = _automorphisms(g, spent).elements
    m = len(auts)
    rows = g.table.tolist()
    alphas = np.array(auts, dtype=np.int32)
    gens = list(g.generators)
    width = max(gens, default=0) + 1
    candidates: dict[int, np.ndarray] = {}  # per target a: the usable k, in tuple order
    # fixes[k][x]: (x, k) fixes a point y, that is x = y * alpha_k(y)^-1
    fixes = np.zeros((m, n), dtype=bool)
    fixes[np.arange(m)[:, None], g.table[np.arange(n), g.inverses[alphas]]] = True
    fixes = [row.tobytes() for row in fixes]
    products = _Products(auts, alphas, gens)
    aut_inverse = products.index_of(np.argsort(alphas, axis=1)[:, gens]).tolist()
    inverses = g.inverses.tolist()

    leaves: list[list[int]] = []  # per leaf: k of its element with image x, by x

    def closure(
        base: dict[int, int], t: int, l: int, path: list[tuple[int, int]]
    ) -> Optional[dict[int, int]]:
        """The group ``base`` and q = (t, l) generate, as image of 0 -> k.

        ``base`` is a group H, so the new group is a union of left cosets
        of H.  Each product of an element with (t, l) that lies outside
        them starts a new coset, added whole by right multiplication with
        every element of H; the group is complete once every element's
        product with (t, l) lies inside.  None at the first new element
        that fixes a point or whose image of 0 is taken: the group is then
        not semiregular.  This is the verdict of testing cycles, as in a
        group every element but the identity fixes no point exactly when
        every element's cycles have one length.

        When H has index 2 the verdict is a few lookups.  A regular
        overgroup of order n holds H with index 2, so H is normal in it
        and q^2 lies in H.  Conversely, if q^2 and q h q^-1, for each
        generator h = (a, k) of H on ``path``, lie in H, then H u qH is a
        group.  The back filter puts q(orbit of 0) outside the orbit, so
        that group hits all n points, and being of order n it is regular.
        """
        if 2 * len(base) == n:
            if base.get(rows[t][auts[l][t]]) != products[l * m + l]:
                return None
            alpha, inv = auts[l], aut_inverse[l]
            u = auts[inv][inverses[t]]  # q^-1 = (u, inv)
            for a, k in path:
                lk = products[l * m + k]
                if base.get(rows[rows[t][alpha[a]]][auts[lk][u]]) != products[lk * m + inv]:
                    return None
            elems = dict(base)
            row, lm = rows[t], l * m
            for b, j in base.items():
                elems[row[alpha[b]]] = products[lm + j]
            return elems
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
                    if x in elems or fixes[xj][x]:
                        return None
                    elems[x] = xj
                    todo.append((x, xj))
            elif old != kl:
                return None
        return elems

    def grow(elems: dict[int, int], stabiliser: list[int], path: list[tuple[int, int]]) -> None:
        if len(elems) == n:
            leaves.append([elems[x] for x in range(n)])
            return
        # branch on the smallest point not yet hit from 0
        target = next(x for x in range(n) if x not in elems)
        ks = candidates.get(target)
        if ks is None:
            # row k is (target, k); automorphisms agreeing on the generators
            # are equal, so the columns up to the last one give tuple order
            moved = g.table[target][alphas]
            order = np.lexsort(moved[:, :width].T[::-1])
            ks = candidates[target] = order[_equal_cycles(moved[order])]
        # a candidate q = (target, k) sending a point h(0) of the orbit of 0
        # back into it would put q∘h, and so q, in this group in any regular
        # overgroup; it does so when alpha_k(h(0)) lies in target^-1 * orbit
        orbit = list(elems)
        back = np.zeros(n, dtype=bool)
        back[g.table[inverses[target], orbit]] = True
        fixing = [b for b in stabiliser if auts[b][target] == target]
        closed: set[int] = set()  # candidates conjugate to one closed here
        for k in ks[~back[alphas[ks[:, None], orbit]].any(axis=1)].tolist():
            if k in closed:
                continue
            spent.spend()
            conjugates = [products[products[b * m + k] * m + aut_inverse[b]] for b in fixing]
            closed.add(k)
            closed.update(conjugates)
            grown = closure(elems, target, k, path)
            if grown is not None:
                stays = [b for b, c in zip(fixing, conjugates) if c == k]
                grow(grown, stays, path + [(target, k)])

    # a listing sorts its elements, so the identity, the smallest
    # permutation, is element 0; the stabilisers hold the others
    grow({0: 0}, list(range(1, m)), [])
    # grow refers to itself; unbinding it frees the search state on return
    # rather than at the next garbage collection
    del grow
    # beta carries lambda-vector v to v' with v'[beta(x)] = index of
    # beta alpha_v[x] beta^-1; conj[j] holds those indices for the j-th
    # kept map, so a level of the walk is one gather per map
    kept = np.array(_aut_chain(g, spent)[1], dtype=np.int32)
    kept = kept.reshape(-1, n)
    kept_inv = np.argsort(kept, axis=1)
    j = np.arange(len(kept))[:, None]
    images = kept[j, alphas[:, kept_inv[:, gens]]]  # [k, j]: beta_j alpha_k beta_j^-1 on gens
    conj = products.index_of(images.reshape(m * len(kept), len(gens))).reshape(m, len(kept)).T

    def step(vs: np.ndarray) -> np.ndarray:
        """Row (i, j) is the image of vs[i] under the j-th kept map."""
        return conj[j, vs[:, kept_inv]].reshape(-1, n)

    reached: dict[bytes, int] = {}  # lambda-vector -> the orbit it was reached in
    orbits = 0
    for leaf in np.array(leaves, dtype=np.int32):
        if leaf.tobytes() not in reached:
            reached.update(dict.fromkeys(_reached(leaf, step), orbits))
            orbits += 1
            if len(reached) > cap:
                raise CapExceeded(cap, "regular subgroup enumeration")
    # row x of a circle table is the permutation (x, k) for its k, so the
    # tables sort as the tuple-order ranks of their rows do, taken in each
    # column x among the k that occur there; big-endian ranks compare
    # bytewise as their tuples do
    found = np.frombuffer(b"".join(reached), dtype=np.int32).reshape(-1, n)
    rank = np.empty(found.shape, dtype=">i4")
    for x in range(n):
        ks, at = np.unique(found[:, x], return_inverse=True)
        rank[:, x] = np.argsort(np.lexsort(g.table[x][alphas[ks, :width]].T[::-1]))[at]
    order = np.argsort(rank.view(np.dtype((np.void, 4 * n))).ravel())
    del rank
    found = found[order]
    classes = np.fromiter(reached.values(), dtype=np.intp, count=len(reached))[order]
    translations = ~found.any(axis=1)  # lambda-vector all the identity
    # entry (i, x, y) is x * alpha_k(y) for k = found[i, x], read from the
    # flat table at x * n + alpha_k(y), a block of at most _BLOCK entries
    # at a time through one reused index buffer
    tables = np.empty((len(found), n, n), dtype=g.table.dtype)
    flat, offsets = g.table.ravel(), np.arange(0, n * n, n, dtype=np.int32)[:, None]
    block = max(1, _BLOCK // (n * n))
    buf = np.empty((block, n, n), dtype=np.int32)
    for lo in range(0, len(found), block):
        chunk = found[lo : lo + block]
        part = buf[: len(chunk)]
        np.take(alphas, chunk, axis=0, out=part, mode="clip")
        part += offsets
        np.take(flat, part, out=tables[lo : lo + block], mode="clip")
    # the search state goes before the braces are built, so that the peak
    # holds only one of them (the C2^4 census: 152 MB, 179 MB keeping both)
    del reached, products, candidates, fixes, leaves, leaf, found, chunk, images, conj
    braces = []
    for table, cls, own in zip(tables, classes.tolist(), translations.tolist()):
        brace = SkewBrace(g, g if own else FiniteGroup(table))
        brace._census_class = cls
        braces.append(brace)
    return braces


class _Products(dict):
    """k * m + l -> index of alpha_k alpha_l in Aut(g), each found on first use.

    An automorphism is known by its images of ``gens``, the generators of
    g, and ``code`` maps those to its index.  A full table would hold m^2
    entries; a search reads few of them.
    """

    def __init__(self, auts: Sequence[Perm], alphas: np.ndarray, gens: list[int]) -> None:
        super().__init__()
        self.auts, self.gens, self.m = auts, gens, len(auts)
        self.code = {row: k for k, row in enumerate(map(tuple, alphas[:, gens].tolist()))}

    def __missing__(self, key: int) -> int:
        k, l = divmod(key, self.m)
        alpha, beta = self.auts[k], self.auts[l]
        value = self[key] = self.code[tuple([alpha[beta[s]] for s in self.gens])]
        return value

    def index_of(self, images: np.ndarray) -> np.ndarray:
        """The index of each automorphism whose images of ``gens`` are a row of ``images``."""
        return np.array([self.code[row] for row in map(tuple, images.tolist())], dtype=np.int32)


def _equal_cycles(perms: np.ndarray) -> np.ndarray:
    """Whether each row, a permutation, has all its cycles of one length.

    A point first returns after its cycle's length, so a row is settled at
    the first power at which any of its points returns: all must return
    there.  Only the unsettled rows are raised to the next power.
    """
    equal = np.zeros(len(perms), dtype=bool)
    live = np.arange(len(perms))
    power = perms
    points = np.arange(perms.shape[1])
    while live.size:
        back = power == points
        hit = back.any(axis=1)
        equal[live[hit]] = back[hit].all(axis=1)
        live, power = live[~hit], power[~hit]
        power = perms[live[:, None], power]
    return equal


# ---------------------------------------------------------------------------
# classification


def classify_braces(braces: Sequence[SkewBrace]) -> BraceCensus:
    """Group braces into isomorphism classes, in order of first occurrence.

    Braces on one additive table are isomorphic exactly when an additive
    automorphism transports one circle table to the other.  When every
    brace comes from ``enumerate_braces`` on one additive group object, the
    search has already found these classes, and they are read off the
    braces.  Any other list is classified by walking each class as an
    Aut(A)-orbit of circle tables, under the generators its order search
    keeps; a brace on another labelling of an additive group already seen
    is first moved into that group's labelling by a group isomorphism,
    found once per additive table; all these searches share one default budget.
    """
    if not braces:
        raise ValueError("cannot classify an empty brace list")
    add = braces[0].add
    if all(b._census_class is not None and b.add is add for b in braces):
        by_class: dict[int, list[SkewBrace]] = {}
        for b in braces:
            by_class.setdefault(b._census_class, []).append(b)
        classes = list(by_class.values())
    else:
        classes = _orbit_classes(braces)
    entries = tuple(
        CensusEntry(cls[0], recognize(cls[0].mult), len(cls)) for cls in classes
    )
    return BraceCensus(add, len(braces), entries)


def _orbit_classes(braces: Sequence[SkewBrace]) -> list[list[SkewBrace]]:
    """The braces grouped by walking each new class's orbit of circle tables."""
    spent = _Budget(None, "classification search")  # one default budget for every search
    adds: list[FiniteGroup] = []  # one labelling per additive isomorphism type
    orbits: list[dict[bytes, int]] = []  # per entry of adds: circle table -> class
    walks: list[Callable[[np.ndarray], set[bytes]]] = []  # per entry of adds: its orbit walk
    classes: list[list[SkewBrace]] = []
    # additive table digest -> (entry of adds, relabelling into it or None)
    placed: dict[bytes, tuple[int, Optional[np.ndarray]]] = {}
    for b in braces:
        if b.add.digest not in placed:
            # every table in adds has its digest in placed, so b.add is none of them
            for k, add in enumerate(adds):
                iso = _isomorphism(b.add, add, spent)
                if iso is not None:
                    placed[b.add.digest] = (k, np.asarray(iso.images, dtype=np.int32))
                    break
            else:
                placed[b.add.digest] = (len(adds), None)
                adds.append(b.add)
                orbits.append({})
                kept = _aut_chain(b.add, spent)[1]
                walks.append(_orbit_tables(np.array(kept, dtype=np.int32).reshape(len(kept), b.order)))
        k, sigma = placed[b.add.digest]
        table = b.mult.table if sigma is None else _relabel(b.mult.table, sigma)
        cls = orbits[k].get(table.tobytes())
        if cls is None:
            cls = len(classes)
            orbits[k].update(dict.fromkeys(walks[k](table), cls))
            classes.append([])
        classes[cls].append(b)
    return classes


def _orbit_tables(sigma: np.ndarray) -> Callable[[np.ndarray], set[bytes]]:
    """The walk from a table to the bytes of every table ``sigma`` carries it to.

    ``sigma`` holds automorphisms as rows of images, and the walk closes
    under the group they generate.

    A level relabels every new table t by every row of sigma at once:
    ``_relabel(t, sigma[j])`` holds sigma[j] of the entry of t at (inverse
    x, inverse y), read from the flattened sigma at offset j * n.  The
    index is built once per additive group and serves each of its classes.
    """
    m, n = sigma.shape
    inv = np.argsort(sigma, axis=1).astype(sigma.dtype)
    positions = (inv[:, :, None] * n + inv[:, None, :]).reshape(m, n * n)
    offsets = np.arange(m, dtype=sigma.dtype)[:, None] * n
    images = sigma.ravel()
    return lambda table: _reached(
        table.ravel(), lambda t: images.take(t.take(positions, axis=1) + offsets)
    )

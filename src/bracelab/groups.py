"""Finite groups as dense multiplication tables.

Elements are the indices 0..n-1 and the identity is always element 0
(constructors relabel if needed).  Tables are immutable numpy arrays:
``table[a, b]`` is the product of ``a`` and ``b``.

Symmetric groups built by :func:`symmetric_group` multiply left-to-right
("apply a, then b"), which is the usual convention for composing
permutations written on the right.  Permutation-*valued* maps in this
package (regular representations, automorphisms, holomorphs) compose as
functions instead; the two conventions never mix because abstract tables
and permutation tuples are distinct types.

Every map search, for isomorphisms or for automorphisms of a group or of
a brace, is the one generator-image search :class:`_HomSearch` over
:func:`generating_sequence`.  Automorphisms come from one stabiliser
chain per owner, :func:`_aut_chain`, cached on the group or brace: its
order serves the counts, and the maps it keeps generate the group, so a
listing, :func:`_automorphisms`, is their closure.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from math import factorial, gcd, lcm, prod
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    BraceLabError,
    InvalidTableError,
    NoIdentityError,
    NotAssociativeError,
    NotBijectiveRowError,
    SearchLimitExceeded,
)
from .perms import Perm, PermutationGroup, _indices, all_perms, compose, identity_perm

if TYPE_CHECKING:
    from .braces import SkewBrace

__all__ = [
    "MAX_ORDER",
    "FiniteGroup",
    "GroupHom",
    "PermRepresentation",
    "make_group",
    "cyclic_group",
    "abelian_group",
    "symmetric_group",
    "dihedral_group",
    "heisenberg_group",
    "m3_group",
    "direct_product",
    "semidirect_product",
    "subgroup_closure",
    "subgroup_group",
    "generating_sequence",
    "automorphism_group",
    "are_isomorphic",
    "left_regular",
    "holomorph",
    "group_from_permutations",
    "recognize",
]

MAX_ORDER = 1024
_DEFAULT_BUDGET = 2_000_000
# entries in a block of table rows that a pass over a large table works on
# at once: its buffers stay small enough to be reused, not mapped afresh
_BLOCK = 2**15


class _Budget:
    """The node budget of one public call, spent by every search the call runs.

    The limit is the call's ``budget`` argument, an int or numpy integer,
    else the BRACELAB_BUDGET environment variable's text, else a built-in
    default; BraceLabError unless it is a positive integer.  Spending past
    the limit raises SearchLimitExceeded naming ``context``, the call's search.
    """

    def __init__(self, override: Optional[int], context: str) -> None:
        given, name = override, "the budget= argument or --budget"
        if override is None:
            given, name = os.environ.get("BRACELAB_BUDGET") or _DEFAULT_BUDGET, "BRACELAB_BUDGET"
        limit = int(given) if override is None and str(given).strip().isdecimal() else given
        if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool) or limit < 1:
            raise BraceLabError(f"{name} must be a positive integer, got {given!r}")
        self.limit, self.context, self.nodes = int(limit), context, 0

    def spend(self, nodes: int = 1) -> None:
        """Count ``nodes`` nodes; past the limit, raise SearchLimitExceeded."""
        self.nodes += nodes
        if self.nodes > self.limit:
            raise SearchLimitExceeded(self.limit, self.context)


class FiniteGroup:
    """Immutable finite group on {0, ..., n-1} with identity 0.

    A group is its table.  Construct through :func:`make_group` (or the
    named constructors), which validate the table; the constructor itself
    trusts its input, an int32 group table with identity 0, and freezes
    it.  Everything else, the generating set included, is read off the
    table on first use.
    """

    # cached structure, each set on an instance on first use; the census
    # builds thousands of groups and reads few of these
    _inverses: Optional[np.ndarray] = None
    _digest: Optional[bytes] = None
    _orders: Optional[np.ndarray] = None
    _abelian: Optional[bool] = None
    _derived: Optional[int] = None
    _auts: Optional[PermutationGroup] = None
    _chain: Optional[tuple[int, tuple[Perm, ...]]] = None
    # what every map search over the group reads: the greedy generating
    # sequence and the table's columns as Python lists
    _gens: Optional[tuple[int, ...]] = None
    _cols: Optional[list[list[int]]] = None
    _generators: Optional[tuple[int, ...]] = None

    def __init__(self, table: np.ndarray) -> None:
        self.order: int = int(table.shape[0])
        self.table = table
        table.flags.writeable = False

    @property
    def generators(self) -> tuple[int, ...]:
        """Each the smallest element the earlier ones do not generate.

        Generated means a left-normed product of the earlier members, so the
        set is defined on any table with identity 0 and make_group tests it;
        in a group each member at least doubles the reached set, so there
        are at most log2(n).  Every map search walks
        :func:`generating_sequence` instead, whose greedy order its maps
        follow.
        """
        if self._generators is None:
            self._generators = tuple(s for s, _ in _spans(self.table))
        return self._generators

    @property
    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            self._inverses = np.argmax(self.table == 0, axis=1).astype(np.int32)
            self._inverses.flags.writeable = False
        return self._inverses

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    # -- cached structure ---------------------------------------------------

    @property
    def digest(self) -> bytes:
        if self._digest is None:
            h = hashlib.sha256()
            h.update(str(self.order).encode())
            h.update(np.ascontiguousarray(self.table).tobytes())
            self._digest = h.digest()
        return self._digest

    def element_orders(self) -> np.ndarray:
        """Vector of element orders: for each x, the least divisor d of n with x^d = e.

        The order of x divides n, so it is that divisor.  Each x^d is built
        from x^(d/p), for p the least prime factor of d, by squaring and
        multiplying; the divisors stop once every order is known.
        """
        if self._orders is None:
            n = self.order
            orders = np.zeros(n, dtype=np.int64)
            orders[0] = 1
            powers = {1: np.arange(n)}  # d -> x^d for every x
            for d in range(2, n + 1):
                if n % d:
                    continue
                if orders.all():
                    break
                p = _prime_factors(d)[0]
                powers[d] = _power(self.table, powers[d // p], p)
                orders[(powers[d] == 0) & (orders == 0)] = d
            orders.flags.writeable = False
            self._orders = orders
        return self._orders

    def element_order(self, g: int) -> int:
        return int(self.element_orders()[g])

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders()))

    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def derived_size(self) -> int:
        """Order of the commutator subgroup."""
        if self._derived is None:
            inv = self.inverses
            t = self.table
            lefts = t[np.ix_(inv, inv)]
            comms = t[lefts, t]
            self._derived = len(subgroup_closure(self, np.unique(comms).tolist()))
        return self._derived

    # -- identity and comparison -------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


# ---------------------------------------------------------------------------
# construction and validation


def _find_identity(arr: np.ndarray) -> Optional[int]:
    n = arr.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(arr[e], idx) and np.array_equal(arr[:, e], idx):
            return e
    return None


def _relabel(arr: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Push the table through a relabeling: new[s(a), s(b)] = s(old[a, b])."""
    inv_s = np.argsort(sigma)
    return sigma[arr[np.ix_(inv_s, inv_s)]]


def make_group(table: Sequence[Sequence[int]] | np.ndarray) -> FiniteGroup:
    """Validate an n x n multiplication table and wrap it as a group.

    Every table passes here, the two of a brace included.  The errors are
    those of these checks in order: shape and entries, integers in 0..n-1
    (InvalidTableError from the index gate, ``perms._indices``, naming the
    first bad entry); a two-sided identity (NoIdentityError), which is
    moved to index 0 by swapping it with 0; bijective rows, then columns
    (NotBijectiveRowError); associativity, with the lexicographically first
    witness (NotAssociativeError).  Associativity is Light's test,
    (x*s)*y == x*(s*y) for all x and y, on each of the group's own
    ``generators``, O(n^2) per member: the elements passing it are closed
    under the product, and every element is a left-normed product of the
    members, so the table is associative.

    A group needs neither sort: an associative table with a two-sided
    identity and 0 in every row is a group, since every element has a
    right inverse, so its rows and columns are bijective.  So "0 in every
    row" and Light's test run first, and each generator must at least
    double the set the earlier ones generate, as in a group.  Only a table
    failing one of them is sorted by rows, then by columns, and scanned
    triple by triple, which gives the error of the order above.
    """
    arr = _table_entries(table)
    return _group(arr, _find_identity(arr))


def _table_entries(table: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """The table as a fresh int32 array; InvalidTableError unless its entries are 0..n-1.

    The shape must be square with 1 to MAX_ORDER rows; then the index
    gate checks the entries.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidTableError(f"table must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise InvalidTableError("table must have at least one element")
    _check_order(n)
    return _indices(arr, n, "table entry {value} at {at}")


def _group(arr: np.ndarray, e: Optional[int]) -> FiniteGroup:
    """make_group past its entry checks, on a fresh int32 table and its identity (None if none)."""
    if e is None:
        raise NoIdentityError("table has no two-sided identity element")
    n = arr.shape[0]
    if e != 0:
        sigma = np.arange(n, dtype=np.int32)
        sigma[0], sigma[e] = e, 0
        arr = _relabel(arr, sigma)
    parts = _group_parts(arr)
    if parts is not None:
        g = FiniteGroup(arr)
        g._inverses, g._generators = parts
        return g
    idx = np.arange(n)
    rows = (np.sort(arr, axis=1) == idx).all(axis=1)
    if not rows.all():
        raise NotBijectiveRowError(int(np.argmin(rows)), "row")
    cols = (np.sort(arr, axis=0) == idx[:, None]).all(axis=0)
    if not cols.all():
        raise NotBijectiveRowError(int(np.argmin(cols)), "column")
    raise NotAssociativeError(_first_non_associative(arr))


def _group_parts(arr: np.ndarray) -> Optional[tuple[np.ndarray, tuple[int, ...]]]:
    """The inverses and generators of a table with identity 0, or None if it is no group.

    None when 0 is missing from a row, a generator does not at least
    double its span, as it does in a group, or Light's test fails.  The
    table is not frozen yet: numpy's argmin copies a read-only array.
    The test compares both sides a block of rows at a time, in two
    buffers of _BLOCK entries reused throughout, so it allocates no n x n
    array; a ``take`` mode other than "raise" writes into them directly,
    and the indices are in range.
    """
    n = arr.shape[0]
    # 0 is the least entry, so each row's first least entry is 0 when it has one
    inverses = np.argmin(arr, axis=1).astype(np.int32)
    if not (arr[np.arange(n), inverses] == 0).all():
        return None
    inverses.flags.writeable = False
    block = min(n, max(1, _BLOCK // n))
    left, right = np.empty((block, n), dtype=np.int32), np.empty((block, n), dtype=np.int32)
    gens, size = [], 1
    for s, span in _spans(arr):
        if span < 2 * size:
            return None
        col, row = arr[:, s], arr[s]
        for lo in range(0, n, block):
            k = min(block, n - lo)
            arr.take(col[lo : lo + k], axis=0, out=left[:k], mode="wrap")   # [x, y] -> (x*s)*y
            arr[lo : lo + k].take(row, axis=1, out=right[:k], mode="wrap")  # [x, y] -> x*(s*y)
            if not (left[:k] == right[:k]).all():
                return None
        gens.append(s)
        size = span
    return inverses, tuple(gens)


def _spans(table: np.ndarray) -> Iterator[tuple[int, int]]:
    """Each member of a table's ``generators``, with the size of the set it and those before generate.

    Each such span is the orbit of the one before under right
    multiplication by every member so far.
    """
    n = table.shape[0]
    maps: list[list[int]] = []
    span = {0}
    while len(span) < n:
        s = next(x for x in range(n) if x not in span)
        maps.append(table[:, s].tolist())
        span = _orbit(span, maps)
        yield s, len(span)


def _first_non_associative(arr: np.ndarray) -> tuple[int, int, int]:
    """The lexicographically first (a, b, c) with (a*b)*c != a*(b*c)."""
    for a in range(arr.shape[0]):
        left = arr[arr[a]]          # [b, c] -> (a*b)*c
        right = arr[a][arr]         # [b, c] -> a*(b*c)
        if not np.array_equal(left, right):
            b, c = (int(v) for v in np.argwhere(left != right)[0])
            return a, b, c
    raise AssertionError("Light's test failed on an associative table")


def _power(t: np.ndarray, xs: np.ndarray, e: int) -> np.ndarray:
    """x^e for every x in ``xs`` (e >= 1), by square-and-multiply in the table t."""
    out = None
    while e:
        if e & 1:
            out = xs if out is None else t[out, xs]
        e >>= 1
        if e:
            xs = t[xs, xs]
    return out


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise InvalidTableError(f"order {n} exceeds the supported cap of {MAX_ORDER}")


def _coordinate_group(radices: Sequence[int], rule: Callable) -> FiniteGroup:
    """The group on the coordinate box ``radices``, labelled big-endian.

    Element k has the mixed-radix digits of k as coordinates.  The table is
    built a block of m rows at a time, m n <= _BLOCK: ``rule(x, y)`` gets
    int32 coordinate arrays of shape (len(radices), m, 1) for the block's
    rows and (len(radices), 1, n), so ``x[i]`` and ``y[i]`` broadcast over
    every pair, and returns or yields the product's coordinates unreduced,
    in order, each an m x n int32 array it does not read again: each is
    folded into the int32 index table as it comes, and taken modulo its
    radix in place.  The radices and the order are checked before anything
    is built.
    """
    if min(radices) < 1:
        raise InvalidTableError(f"every coordinate radix must be positive, got {list(radices)}")
    n = prod(radices)
    _check_order(n)
    coords = np.array(np.unravel_index(np.arange(n), radices), dtype=np.int32)
    x, y = coords[:, :, None], coords[:, None, :]
    index = np.zeros((n, n), dtype=np.int32)
    block = max(1, _BLOCK // n)
    for lo in range(0, n, block):
        rows = index[lo : lo + block]
        for c, r in zip(rule(x[:, lo : lo + block], y), radices):
            # rows * r + c mod r, with c mod r = c - (c // r) * r, which
            # numpy computes several times faster than %
            rows *= r
            rows += c
            np.floor_divide(c, r, out=c)
            c *= r
            rows -= c
    return _group(index, _find_identity(index))


def cyclic_group(n: int) -> FiniteGroup:
    """The integers mod n under addition."""
    if n < 1 or n > MAX_ORDER:
        raise InvalidTableError(f"cyclic group order must be in 1..{MAX_ORDER}, got {n}")
    return _coordinate_group((n,), _sum)


def abelian_group(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders, labelled big-endian."""
    if not len(factors):
        raise InvalidTableError("an abelian group needs at least one cyclic factor")
    radices = _indices(factors, MAX_ORDER + 1, "cyclic factor {value}").tolist()
    return _coordinate_group(radices, _sum)


def _sum(x: np.ndarray, y: np.ndarray) -> Iterator[np.ndarray]:
    """The coordinate rule of a product of cyclic groups, one coordinate at a time in one buffer."""
    out = np.empty((x.shape[1], y.shape[2]), dtype=np.int32)
    for a, b in zip(x, y):
        yield np.add(a, b, out=out)


def symmetric_group(m: int) -> FiniteGroup:
    """All permutations of m letters, in lexicographic order of image tuples.

    ``table[i, j]`` is "apply permutation i, then permutation j", so that
    products read left to right.  Element 0 is the identity.
    """
    if m < 1:
        raise InvalidTableError(f"symmetric group degree must be positive, got {m}")
    # m! passes the cap exactly when min(m, MAX_ORDER)! does, which is cheap
    if factorial(min(m, MAX_ORDER)) > MAX_ORDER:
        raise InvalidTableError(f"order {m}! exceeds the supported cap of {MAX_ORDER}")
    perms = np.array(all_perms(m), dtype=np.int64)
    place = m ** np.arange(m - 1, -1, -1)  # base-m codes rise in lexicographic order
    # perms[:, perms][j, i] applies permutation i, then permutation j
    return make_group(np.searchsorted(perms @ place, (perms[:, perms] @ place).T))


def dihedral_group(m: int) -> FiniteGroup:
    """Symmetries of an m-gon, order 2m; index = rotation + m * flip."""
    if m < 1:
        raise InvalidTableError("dihedral parameter must be positive")
    # coordinates (flip, rotation); a flip reverses the rotation after it
    return _coordinate_group((2, m), lambda x, y: (x[0] + y[0], x[1] + y[1] - 2 * x[0] * y[1]))


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over Z/p; order p^3, exponent p for odd p.

    Index a p^2 + b p + c holds the matrix with entries a, b above the
    diagonal and c in the corner.
    """
    return _coordinate_group(
        (p, p, p), lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])
    )


def m3_group(p: int) -> FiniteGroup:
    """The nonabelian group of order p^3 and exponent p^2 (p odd).

    Presented as Z/p^2 extended by Z/p, with the outer generator acting as
    multiplication by 1 + p, whose y-th power is 1 + y p mod p^2; index
    x p + y.
    """
    _check_order(p**3)  # before the primality test, whose time grows with p
    if p % 2 == 0 or _prime_factors(p) != [p]:
        raise InvalidTableError("the exponent-p^2 construction needs an odd prime")
    return _coordinate_group((p * p, p), lambda x, y: (x[0] + y[0] * (1 + p * x[1]), x[1] + y[1]))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; index = a * |h| + b."""
    return _coordinate_group(
        (g.order, h.order), lambda x, y: (g.table[x[0], y[0]], h.table[x[1], y[1]])
    )


def semidirect_product(
    base: FiniteGroup, actor: FiniteGroup, action: Sequence[Sequence[int]]
) -> FiniteGroup:
    """Split extension of ``base`` by ``actor``.

    ``action[j]`` must be an automorphism of ``base`` for each actor element
    j, and j -> action[j] a homomorphism into the automorphism group (with
    automorphisms composing as functions).  The product rule is
    (a1, j1)(a2, j2) = (a1 * action[j1](a2), j1 j2); index = a * |actor| + j.
    The order is checked against the cap before the action.
    """
    nb, nj = base.order, actor.order
    _check_order(nb * nj)
    act = _indices(action, nb, "action entry {value} at {at}")
    if act.shape != (nj, nb):
        raise ActionNotHomomorphism(
            f"action must give one permutation of {nb} points per actor element, "
            f"got shape {act.shape}"
        )
    idx = np.arange(nb)
    for j in range(nj):
        img = act[j]
        if not np.array_equal(np.sort(img), idx):
            raise ActionNotAutomorphism(j, "not a bijection")
        if not np.array_equal(img[base.table], base.table[np.ix_(img, img)]):
            raise ActionNotAutomorphism(j, "does not preserve the product")
    for j1 in range(nj):
        for j2 in range(nj):
            if not np.array_equal(act[actor.table[j1, j2]], act[j1][act[j2]]):
                raise ActionNotHomomorphism(
                    f"action of product {j1}*{j2} differs from composed actions"
                )
    return _coordinate_group(
        (nb, nj),
        lambda x, y: (base.table[x[0], act[x[1], y[0]]], actor.table[x[1], y[1]]),
    )


# ---------------------------------------------------------------------------
# subgroups


def _members(g: FiniteGroup, elements: Iterable[int]) -> list[int]:
    """The distinct ``elements`` as sorted ints; the index gate names the first bad one."""
    return sorted(set(_indices(list(elements), g.order, "element {value}").tolist()))


def subgroup_closure(g: FiniteGroup, seed: Iterable[int]) -> list[int]:
    """Sorted orbit of 0 under right multiplication by each member of ``seed``.

    In a group table that is the subgroup ``seed`` generates.  ValueError
    names a member that is not an integer in 0..n-1.
    """
    return sorted(_orbit((0,), g.table[:, _members(g, seed)].T.tolist()))


def _orbit(points: Iterable[int], maps: Sequence[Sequence[int]]) -> set[int]:
    """The union of the orbits of ``points`` under the group the maps generate."""
    orbit = set(points)
    todo = list(orbit)
    for x in todo:
        for m in maps:
            y = m[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def subgroup_group(g: FiniteGroup, elements: Iterable[int]) -> FiniteGroup:
    """Reindex a closed subset as a group in its own right.

    Elements are sorted, so local index 0 is the identity.  ValueError if a
    member is not an index of g, the identity is missing or a product escapes.
    """
    elems = _members(g, elements)
    if not elems or elems[0] != 0:
        raise ValueError("subgroup must contain the identity 0")
    escape = _escaping_product(g, elems)
    if escape is not None:
        raise ValueError("subset is not closed: {} * {} = {} escapes".format(*escape))
    arr = np.asarray(elems)
    return make_group(np.searchsorted(arr, g.table[np.ix_(arr, arr)]))


def _escaping_product(g: FiniteGroup, elems: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The lexicographically first (x, y, x * y) leaving the sorted ``elems``, if any."""
    arr = np.asarray(elems)
    inside = np.zeros(g.order, dtype=bool)
    inside[arr] = True
    products = g.table[np.ix_(arr, arr)]
    escapes = np.argwhere(~inside[products])
    if not len(escapes):
        return None
    i, j = escapes[0]
    return int(arr[i]), int(arr[j]), int(products[i, j])


def is_normal(g: FiniteGroup, elements: Iterable[int]) -> bool:
    """Whether a subset is stable under conjugation; ValueError names a member not in 0..n-1."""
    inside = np.zeros(g.order, dtype=bool)
    inside[_members(g, elements)] = True
    t, xs = g.table, np.arange(g.order)[:, None]
    # row x holds x^-1 * a * x for every member a
    return bool(inside[t[t[g.inverses[xs], np.flatnonzero(inside)], xs]].all())


# ---------------------------------------------------------------------------
# homomorphisms and isomorphism search


@dataclass(frozen=True)
class GroupHom:
    """A verified homomorphism, stored as the image of every element.

    ``images`` is kept as a tuple of ints.  ValueError when it does not
    give one target element per source element, the index gate naming the
    first bad image, or when the map is not a homomorphism.
    """

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        img = _indices(self.images, self.target.order, "image {value} of element {at}")
        if img.shape != (self.source.order,):
            raise ValueError("images must list one target element per source element")
        object.__setattr__(self, "images", tuple(img.tolist()))
        st, tt = self.source.table, self.target.table
        if not np.array_equal(img[st], tt[np.ix_(img, img)]):
            bad = np.argwhere(img[st] != tt[np.ix_(img, img)])
            a, b = (int(v) for v in bad[0])
            raise ValueError(f"not a homomorphism: fails at ({a}, {b})")

    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.source.order


def generating_sequence(g: FiniteGroup) -> list[int]:
    """A small generating list, chosen greedily; every map search walks it.

    Repeatedly append the element whose addition grows the generated
    subgroup the most, breaking ties toward the smallest centraliser, then
    the smallest index.  A central element early in the sequence would
    make every non-central candidate image for it a whole subtree to
    refute; on Heis(3) the sequence is two generators where the
    smallest-index tie-break gives three.  Greedy selection keeps
    backtracking searches shallow; it does not promise a minimum-length
    sequence.  The sequence is cached on the group, beside the column
    lists it is chosen over; each call returns a fresh list.
    """
    if g._gens is None:
        g._gens = _greedy_generators(g)
    return list(g._gens)


def _centraliser_sizes(g: FiniteGroup) -> np.ndarray:
    """Entry x is the number of elements commuting with x."""
    return (g.table == g.table.T).sum(axis=1)


def _columns(g: FiniteGroup) -> list[list[int]]:
    """The table's columns as lists, ``cols[a][x] = x * a``; cached on the group."""
    if g._cols is None:
        g._cols = g.table.T.tolist()
    return g._cols


def _greedy_generators(g: FiniteGroup) -> tuple[int, ...]:
    """Generators picked one at a time, each growing the span the most.

    Candidates are ranked by centraliser size, then by index, and among
    elements that grow the span equally the first ranked wins.  Each
    candidate is closed from the current span, over the group's column
    lists.  A candidate already in the span of an earlier one at the same
    step spans no more than it did, so it cannot win and is not closed.
    """
    cols = _columns(g)
    candidates = (np.argsort(_centraliser_sizes(g)[1:], kind="stable") + 1).tolist()
    gens: list[int] = []
    span = {0}
    while len(span) < g.order:
        best_g, best = -1, span
        covered = set(span)
        for cand in candidates:
            if cand in covered:
                continue
            grown = _orbit(span, [cols[x] for x in gens + [cand]])
            covered |= grown
            if len(grown) > len(best):
                best_g, best = cand, grown
                if len(grown) == g.order:
                    break
        gens.append(best_g)
        span = best
    return tuple(gens)


class _HomSearch:
    """Bijections carrying every table src[k] to dst[k], lexicographically.

    Images are assigned to ``generating_sequence(src[0])``, one
    generator at a time, trying in ascending order the elements whose key
    matches the generator's: its order and centraliser size in every table,
    which a bijection carrying each src[k] to dst[k] keeps.  If the sorted
    keys differ, no map exists: no node is spent, and neither the generators
    nor the table columns are built.  Both are built once per group and
    kept on it, so every search over a group, and its generating
    sequence, reads the same lists.  Each partial assignment is
    closed under right multiplication by its generators in every pair of
    tables and abandoned at the first clash with a dst table or with
    injectivity; a clash rules out every completion, so maps come out in
    lexicographic order of generator images.  A full assignment is a
    bijective homomorphism for the first pair of tables; further pairs are
    compared whole.  One node is one candidate image tried, at any depth and
    by any call of :meth:`maps` on the same search, and is spent from the
    search's one running ``budget``.
    """

    def __init__(
        self, src: Sequence[FiniteGroup], dst: Sequence[FiniteGroup], budget: _Budget
    ) -> None:
        self.src, self.dst, self.budget = src, dst, budget
        # an automorphism search (dst is src) has one set of keys to compute
        keys = [
            np.stack([c for t in tables for c in (t.element_orders(), _centraliser_sizes(t))], 1)
            for tables in ((src,) if dst is src else (src, dst))
        ]
        s_keys, d_keys = keys[0], keys[-1]
        # when they differ, maps() yields nothing and nothing more is built
        self.same = dst is src or np.array_equal(*(k[np.lexsort(k.T)] for k in keys))
        if not self.same:
            return
        self.gens = generating_sequence(src[0])
        # cols[k][0][a][x] is x times a in src[k], cols[k][1] the same in dst[k]
        self.cols = [(_columns(g), _columns(h)) for g, h in zip(src, dst)]
        self.spans: dict[int, list[int]] = {}  # k -> the span of gens[:k]
        self.cands = [np.flatnonzero((d_keys == s_keys[gen]).all(axis=1)).tolist() for gen in self.gens]

    def _preserves_rest(self, img: list[int]) -> bool:
        """Whether a full assignment carries every table past the first."""
        arr = np.asarray(img)
        return all(
            np.array_equal(arr[g.table], h.table[np.ix_(arr, arr)])
            for g, h in zip(self.src[1:], self.dst[1:])
        )

    def maps(self, k: int = 0, image: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        """The maps fixing gens[:k] and, when ``image`` is given, sending gens[k] to it.

        k > 0 is for an automorphism search: the map starts as the identity
        on the span of gens[:k], found once per k and kept.  Neither the fixed
        generators nor ``image`` are nodes; the search proper starts after them.
        """
        if not self.same:
            return
        gens, cols, cands, spend = self.gens, self.cols, self.cands, self.budget.spend
        n = self.src[0].order
        if k not in self.spans:
            self.spans[k] = list(_orbit((0,), [s_cols[g] for s_cols, _ in cols for g in gens[:k]]))
        domain = list(self.spans[k])  # elements with an image, in the order they got it
        img = [-1] * n
        used = [False] * n
        for x in domain:
            img[x] = x
            used[x] = True

        def extend(depth: int, image: int) -> bool:
            """Send gens[depth] to ``image`` and close the map over the new span.

            Elements already mapped only need their products with the new
            generator checked; newly mapped ones need every assigned
            generator.
            """
            # right multiplication by the new generator and by every
            # assigned one, in each table, as (source, image) column pairs
            newest = [(s_cols[gens[depth]], d_cols[image]) for s_cols, d_cols in cols]
            every = [
                (s_cols[gen], d_cols[img[gen]]) for s_cols, d_cols in cols for gen in gens[:depth]
            ] + newest
            old = len(domain)
            pos = 0
            while pos < len(domain):
                x = domain[pos]
                ix = img[x]
                for s_col, d_col in (newest if pos < old else every):
                    y, v = s_col[x], d_col[ix]
                    w = img[y]
                    if w < 0:
                        if used[v]:
                            return False
                        img[y] = v
                        used[v] = True
                        domain.append(y)
                    elif w != v:
                        return False
                pos += 1
            return True

        if image is not None and not extend(k, image):
            return
        first = k + (image is not None)
        single = len(cols) == 1
        if first == len(gens):
            if single or self._preserves_rest(img):
                yield tuple(img)
            return
        tried = [iter(cands[first])]  # candidate iterator of each assigned generator
        starts: list[int] = []  # len(domain) before each current assignment
        while tried:
            depth = first + len(tried) - 1
            if len(starts) > depth - first:  # retract the last image tried at this depth
                old = starts.pop()
                for y in domain[old:]:
                    used[img[y]] = False
                    img[y] = -1
                del domain[old:]
            image = next(tried[-1], None)
            if image is None:
                tried.pop()
                continue
            spend()
            starts.append(len(domain))
            if not extend(depth, image):
                continue
            if depth + 1 < len(gens):
                tried.append(iter(cands[depth + 1]))
            elif single or self._preserves_rest(img):
                yield tuple(img)


def automorphism_group(g: FiniteGroup, budget: Optional[int] = None) -> PermutationGroup:
    """All automorphisms of g, listed by :func:`_automorphisms`; cached on the group."""
    return _automorphisms(g, _Budget(budget, "automorphism search"))


def _automorphisms(owner: FiniteGroup | SkewBrace, budget: _Budget) -> PermutationGroup:
    """All automorphisms of a group or brace, closed from the maps :func:`_aut_chain` keeps.

    The caller's ``budget`` pays for that search (unless it is cached) and
    for one node per listed map, charged on the exact order: past the
    budget, SearchLimitExceeded is raised before any map is composed.  The
    listing is cached on the owner.
    """
    if owner._auts is None:
        order, kept = _aut_chain(owner, budget)
        budget.spend(order)
        owner._auts = PermutationGroup.from_generators(owner.order, kept)
    return owner._auts


def _aut_chain(owner: FiniteGroup | SkewBrace, budget: _Budget) -> tuple[int, tuple[Perm, ...]]:
    """The order of a group's or brace's automorphism group, and maps generating it.

    A brace's automorphisms are the bijections preserving both its
    tables.  The table with the shortest :func:`generating_sequence` goes
    first (the additive one among equals) and its sequence b_1, ..., b_k
    is searched.  The order is the product over i of the orbit of b_i
    under the maps fixing b_1, ..., b_(i-1) (orbit-stabiliser down that
    chain), and the levels are walked from i = k up.  Every map
    found is kept: one found at level j fixes b_1, ..., b_(j-1), so it
    lies in the stabiliser of every level i <= j.  At each level the orbit
    of b_i is closed under the maps kept so far, and each candidate image
    outside it that is not yet ruled out is one node, settled by the first
    map of one search started from the fixed images b_1, ..., b_(i-1), v.
    A hit keeps the map and closes the orbit again; a miss rules out v's
    whole orbit under the kept maps, as they all fix b_1, ..., b_(i-1).
    So every orbit is settled exactly, and the kept maps generate the
    group: by induction up the chain, those kept from level i down
    generate the stabiliser of b_1, ..., b_(i-1).  The nodes of every such
    search are spent from the caller's ``budget``; none are spent once the
    pair is cached on the owner (``_chain``), where it is kept once found.
    """
    if owner._chain is not None:
        return owner._chain
    tables = [owner] if isinstance(owner, FiniteGroup) else [owner.add, owner.mult]
    tables.sort(key=lambda t: len(generating_sequence(t)))
    search = _HomSearch(tables, tables, budget)
    kept: list[Perm] = []
    order = 1
    for depth in reversed(range(len(search.gens))):
        point = search.gens[depth]
        orbit = _orbit((point,), kept)
        ruled_out: set[int] = set()
        for v in search.cands[depth]:
            if v in orbit or v in ruled_out:
                continue
            budget.spend()
            found = next(search.maps(depth, v), None)
            if found is None:
                ruled_out |= _orbit((v,), kept)
            else:
                kept.append(found)
                orbit = _orbit((point,), kept)
        order *= len(orbit)
    owner._chain = (order, tuple(kept))
    return owner._chain


def are_isomorphic(
    g: FiniteGroup, h: FiniteGroup, budget: Optional[int] = None
) -> Optional[GroupHom]:
    """An isomorphism g -> h if one exists, else None.

    The orders and derived subgroup orders are compared first; then the
    generator-image search, whose first map is returned, compares element
    orders and centraliser sizes, which an isomorphism keeps.
    """
    return _isomorphism(g, h, _Budget(budget, "isomorphism search"))


def _isomorphism(g: FiniteGroup, h: FiniteGroup, budget: _Budget) -> Optional[GroupHom]:
    """:func:`are_isomorphic`, its search nodes spent from the caller's ``budget``."""
    if g.order != h.order or g.derived_size() != h.derived_size():
        return None
    images = next(_HomSearch([g], [h], budget).maps(), None)
    return None if images is None else GroupHom(g, h, images)


# ---------------------------------------------------------------------------
# permutation representations


@dataclass(frozen=True)
class PermRepresentation:
    """A homomorphism from a group into permutations of 0..degree-1.

    ``perms[g]`` is the permutation attached to g; the homomorphism law
    perms[a*b] = perms[a] ∘ perms[b] uses function composition.  Verification
    is opt-in via :meth:`verify` (quadratic in the group order).
    """

    source: FiniteGroup
    degree: int
    perms: tuple[Perm, ...]

    def is_injective(self) -> bool:
        return len(set(self.perms)) == self.source.order

    def is_regular(self) -> bool:
        """Injective, degree = order, and only the identity has fixed points."""
        if self.degree != self.source.order or not self.is_injective():
            return False
        ident = identity_perm(self.degree)
        return all(
            p == ident or all(p[i] != i for i in range(self.degree)) for p in self.perms
        )

    def verify(self) -> None:
        t = self.source.table
        for a in range(self.source.order):
            pa = self.perms[a]
            for b in range(self.source.order):
                if self.perms[int(t[a, b])] != compose(pa, self.perms[b]):
                    raise AssertionError(f"representation law fails at ({a}, {b})")


def left_regular(g: FiniteGroup) -> PermRepresentation:
    """Left translations a -> (x -> a*x); a regular representation."""
    rows = tuple(tuple(int(v) for v in g.table[a]) for a in range(g.order))
    return PermRepresentation(g, g.order, rows)


def holomorph(g: FiniteGroup, budget: Optional[int] = None) -> PermutationGroup:
    """Normalizer of the left-translation copy of g inside all permutations.

    Realized as the set of products (left translation) ∘ (automorphism);
    there are exactly |g| * |Aut(g)| of them and the set is closed.
    """
    aut = automorphism_group(g, budget)
    rows = [tuple(int(v) for v in g.table[a]) for a in range(g.order)]
    elements = {compose(row, alpha) for row in rows for alpha in aut}
    if len(elements) != g.order * aut.order:
        raise AssertionError("holomorph product set collapsed; table is corrupt")
    return PermutationGroup(g.order, elements)


def group_from_permutations(pg: PermutationGroup) -> FiniteGroup:
    """Abstract table of a permutation group under function composition.

    Lexicographic element order puts the identity first, so indices transfer
    unchanged; ``table[i, j]`` is elements[i] ∘ elements[j].
    """
    elems = pg.elements
    n = len(elems)
    table = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = pg.index(compose(p, q))
    return make_group(table)


# ---------------------------------------------------------------------------
# recognition


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_cube_root(n: int) -> Optional[int]:
    p = round(n ** (1 / 3))
    for cand in (p - 1, p, p + 1):
        if cand >= 2 and cand**3 == n and _prime_factors(cand) == [cand]:
            return cand
    return None


def _abelian_invariant_factors(g: FiniteGroup) -> list[int]:
    """Invariant factors d1 | d2 | ... of a finite abelian group.

    In C(e1) x ... x C(ek), N(d) = #{x : x^d = e} is the product of the
    gcd(d, ei), so the largest factor ek is the smallest d with N(d) the
    group's order.  Dividing every N(d) by gcd(d, ek) leaves the counts of
    C(e1) x ... x C(ek-1), whose largest factor is found the same way.
    Every ei is an element order, so d runs over those alone.
    """
    per_order = np.bincount(g.element_orders())
    orders = np.flatnonzero(per_order).tolist()
    sizes = per_order[orders].tolist()
    counts = [sum(c for o, c in zip(orders, sizes) if d % o == 0) for d in orders]
    factors: list[int] = []
    left = g.order
    while left > 1:
        e = next((d for d, c in zip(orders, counts) if c == left), None)
        if e is None or left % e:
            raise AssertionError("element counts of an abelian group must be those of cyclic factors")
        factors.append(e)
        left //= e
        counts = [c // gcd(d, e) for d, c in zip(orders, counts)]
    return factors[::-1]


# (elements of order 2, elements of order 4, distinct squares) -> name,
# for the nine nonabelian groups of order 16
_ORDER_16 = {
    (9, 2, 4): "D8",
    (1, 10, 4): "Q16",
    (5, 6, 4): "SD16",
    (3, 4, 4): "M16",
    (11, 4, 2): "C2 x D4",
    (3, 12, 2): "C2 x Q8",
    (7, 8, 2): "C4 o D4",
    (7, 8, 3): "C2^2 x| C4",
    (3, 12, 3): "C4 x| C4",
}


def recognize(g: FiniteGroup) -> str:
    """A human-readable structure name, or "unrecognized".

    Abelian groups always resolve (invariant factor form, e.g. "C2 x C6").
    Beyond that a handful of nonabelian families are named from element
    counts, with no isomorphism search: S3; D4 and Q8, and D6, A4 and
    Dic3, by their involutions; the nine of order 16 by their elements of
    orders 2 and 4 and their squares; S4, the one with 9 involutions of
    the groups of order 24 with 8 elements of order 3 (S4, SL(2,3) and
    C2 x A4); M(p) of exponent p and M3(p) for odd order p^3; and D_m of
    order 2m, where an element r of order m and m + [m even] involutions
    leave every element outside <r> an involution.
    """
    n = g.order
    if n == 1:
        return "C1"
    if g.is_abelian():
        return " x ".join(f"C{d}" for d in _abelian_invariant_factors(g))
    if n == 6:
        return "S3"
    orders = g.element_orders()
    involutions = int(np.count_nonzero(orders == 2))
    if n == 8:
        return {1: "Q8", 5: "D4"}[involutions]
    if n == 12:
        return {1: "Dic3", 3: "A4", 7: "D6"}[involutions]
    if n == 16:
        fours = int(np.count_nonzero(orders == 4))
        squares = len(set(np.diagonal(g.table).tolist()))
        return _ORDER_16[involutions, fours, squares]
    if n == 24 and involutions == 9 and np.count_nonzero(orders == 3) == 8:
        return "S4"
    p = _prime_cube_root(n)
    if p is not None and p % 2 == 1:
        return f"M({p})" if g.exponent() == p else f"M3({p})"
    if n % 2 == 0 and n >= 8 and involutions == n // 2 + (n % 4 == 0) and (orders == n // 2).any():
        return f"D{n // 2}"
    return "unrecognized"

"""Nilpotent rings and the braces their circle operation produces.

Two carrier shapes are supported: vector algebras over Z/p given by
structure constants on a basis, and the cyclic carrier Z/p^3 with the
scaled product x . y = p^r x y.  Both are held the same way, as
coordinate vectors over Z/q with structure constants: q = p with one
coordinate per basis vector, or q = p^3 with one coordinate and the
constant p^r.  Every validated algebra yields a skew
brace whose addition is the ring addition and whose multiplication is
the circle operation a o b = a + b + a.b; the inverse for o is the
alternating geometric series -a + a^2 - a^3 + ..., which terminates by
nilpotency.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .braces import SkewBrace, brace_from_groups
from .errors import (
    BadPrime,
    BraceLabError,
    InvalidTableError,
    NotAssociativeError,
    NotNilpotent,
    QuasiInverseMissing,
    UnknownName,
    UnsupportedParameter,
)
from .groups import MAX_ORDER, FiniteGroup, _coordinate_group, _prime_factors, _sum
from .perms import _indices, _integer

__all__ = [
    "NilpotentAlgebra",
    "make_algebra",
    "cyclic_ring",
    "power_ideal_dims",
    "cubes_vanish",
    "quasi_inverse",
    "additive_group",
    "circle_group",
    "to_brace",
    "catalog",
    "CATALOG_NAMES",
]

Element = Union[np.ndarray, int]

CATALOG_NAMES = ("degraaf_A340", "sixdim_wedge", "truncated_poly", "cyclic")
_CATALOG_PRIMES = {
    "degraaf_A340": (3, 5, 7),
    "sixdim_wedge": (3, 5, 7),
    "truncated_poly": (2, 3, 5, 7),
    "cyclic": (3, 5, 7),
}


def _is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == [p]


def _residues(values: object, q: int) -> np.ndarray:
    """Ring coordinates, at least 1-D, reduced mod q and then passed through the index gate.

    An integer or integral float is reduced first, so any integer passes.
    """
    arr = np.array(values, dtype=object, ndmin=1)
    arr.flat = [c if _integer(c) is None else _integer(c) % q for c in arr.flat]
    return _indices(arr, q, "coordinate {value} at {at}")


class NilpotentAlgebra:
    """A finite nilpotent ring; construct via make_algebra or cyclic_ring.

    ``kind`` is "modp" (coefficient vectors over Z/p, product given by
    structure constants) or "cyclic" (integers mod p^3, product scaled by
    p^r).  Both are held as coordinate vectors over Z/``modulus`` with
    ``consts[i, j]`` the coordinates of e_i . e_j: one coordinate per basis
    vector and modulus p for "modp"; one coordinate, modulus p^3 and the
    constant p^r mod p^3 for "cyclic".  ``dim`` is the length over Z/p, so
    ``order`` is p^dim either way.  Elements are numpy coefficient vectors
    for "modp" and plain ints for "cyclic".  The constructor trusts its
    input, as ``FiniteGroup(table)`` does; the two builders validate it.
    """

    def __init__(
        self,
        kind: str,
        p: int,
        dim: int,
        consts: np.ndarray,
        r: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.p = p
        self.dim = dim
        self.consts = consts
        self.r = r
        self.order = p**dim
        self.modulus = p ** (dim // len(consts))
        self._radices = (self.modulus,) * len(consts)
        self._place = self.modulus ** np.arange(len(consts) - 1, -1, -1)
        self._dims: Optional[list[int]] = None

    def _element(self, coords: np.ndarray) -> Element:
        """The public form of a coordinate vector: an int for the cyclic kind."""
        return int(coords[0]) if self.kind == "cyclic" else coords

    # -- arithmetic ---------------------------------------------------------

    def _coords(self, u: Element) -> np.ndarray:
        """u's coordinates reduced mod ``modulus``, so int64 arithmetic on them cannot wrap."""
        return _residues(u, self.modulus).astype(np.int64)

    def add(self, u: Element, v: Element) -> Element:
        return self._element((self._coords(u) + self._coords(v)) % self.modulus)

    def neg(self, u: Element) -> Element:
        return self._element(-self._coords(u) % self.modulus)

    def multiply(self, u: Element, v: Element) -> Element:
        uu, vv = self._coords(u), self._coords(v)
        return self._element(np.einsum("i,j,ijl->l", uu, vv, self.consts) % self.modulus)

    def circle(self, u: Element, v: Element) -> Element:
        return self.add(self.add(u, v), self.multiply(u, v))

    def is_zero(self, u: Element) -> bool:
        return not np.asarray(u).any()

    # -- element <-> index codecs ------------------------------------------

    def decode(self, index: int) -> Element:
        """Element for a carrier index (big-endian base-q digits)."""
        return self._element(index // self._place % self.modulus)

    def encode(self, u: Element) -> int:
        return int(self._coords(u) @ self._place)

    def elements(self) -> np.ndarray:
        """All elements; a (order, dim) digit matrix for "modp" kind."""
        digits = np.stack(np.unravel_index(np.arange(self.order), self._radices), axis=1)
        return digits[:, 0] if self.kind == "cyclic" else digits

    def __repr__(self) -> str:
        if self.kind == "cyclic":
            return f"NilpotentAlgebra(cyclic, p={self.p}, r={self.r})"
        return f"NilpotentAlgebra(modp, p={self.p}, dim={self.dim})"


# ---------------------------------------------------------------------------
# construction and validation


def _row_space_basis(rows: np.ndarray, p: int) -> np.ndarray:
    """Reduced row basis of the span of ``rows`` over Z/p."""
    m = rows % p
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    for row in m:
        row = row.copy()
        for b, piv in zip(basis, pivots):
            if row[piv]:
                row = (row - row[piv] * b) % p
        nz = np.nonzero(row)[0]
        if nz.size:
            piv = int(nz[0])
            row = (row * pow(int(row[piv]), -1, p)) % p
            basis.append(row)
            pivots.append(piv)
    if not basis:
        return np.zeros((0, rows.shape[1]), dtype=np.int64)
    return np.array(basis, dtype=np.int64)


def power_ideal_dims(algebra: NilpotentAlgebra) -> list[int]:
    """Dimensions of the descending product ideals, ending in 0.

    For the cyclic kind the "dimension" of an ideal of size p^k is k.
    Raises NotNilpotent if the chain stabilizes above zero.
    """
    if algebra._dims is not None:
        return algebra._dims
    if algebra.kind == "cyclic":
        dims = [3]
        level = 0  # ideal is p^level * (Z/p^3)
        while dims[-1] > 0:
            level = min(level + algebra.r, 3)
            nxt = 3 - level
            if nxt == dims[-1]:
                raise NotNilpotent(dims + [nxt])
            dims.append(nxt)
    else:
        consts = algebra.consts
        p = algebra.p
        basis = np.eye(algebra.dim, dtype=np.int64)
        dims = [algebra.dim]
        while dims[-1] > 0:
            # next ideal is spanned by products e_i . b over all basis rows b
            prods = np.einsum("ijl,bj->ibl", consts, basis).reshape(-1, algebra.dim)
            basis = _row_space_basis(prods, p)
            nxt = basis.shape[0]
            if nxt == dims[-1]:
                raise NotNilpotent(dims + [nxt])
            dims.append(nxt)
    algebra._dims = dims
    return dims


def cubes_vanish(algebra: NilpotentAlgebra) -> bool:
    """Whether every product of three elements is zero."""
    dims = power_ideal_dims(algebra)
    return len(dims) <= 3 or dims[2] == 0


def _check_dimension(dim: int) -> None:
    """Reject a dimension with more than MAX_ORDER elements at every prime.

    p^dim >= 2^dim, so this holds for any dim past log2(MAX_ORDER); callers
    run it before building structure constants or the dim^4 associativity
    tensors.
    """
    if dim > MAX_ORDER.bit_length() - 1:
        raise InvalidTableError(
            f"algebra dimension {dim} gives more than {MAX_ORDER} elements at every prime"
        )


def _check_products_fit(p: int, dim: int) -> None:
    """Reject a prime whose coordinate products could overflow int64.

    A coordinate of a product sums dim^2 terms u_i v_j c_ijl, each below
    (p - 1)^3, in int64 (``multiply``, ``_times`` and so ``quasi_inverse``).
    Checked before primality, whose trial division takes time growing
    with the square root of p.
    """
    if dim * dim * (p - 1) ** 3 >= 2**63:
        raise BadPrime(p)


def make_algebra(
    p: int,
    dim: int,
    products: dict[tuple[int, int], Sequence[int]],
) -> NilpotentAlgebra:
    """Build a vector algebra over Z/p from sparse structure constants.

    ``products[(i, j)]`` is the coefficient vector of (basis i) . (basis j);
    omitted pairs multiply to zero.  p must be a prime with
    dim^2 (p - 1)^3 < 2^63, so that every product fits 64-bit integers
    (BadPrime otherwise).  The algebra is always validated: associativity
    on all basis triples (NotAssociativeError) and nilpotency of the
    power-ideal chain (NotNilpotent).
    """
    if dim < 1:
        raise InvalidTableError(f"algebra dimension must be positive, got {dim}")
    _check_dimension(dim)
    _check_products_fit(p, dim)
    if not _is_prime(p):
        raise BadPrime(p)
    consts = np.zeros((dim, dim, dim), dtype=np.int64)
    keys = _indices(list(products), dim, "structure constant index {value} at {at}")
    for (i, j), vec in zip(keys.tolist(), products.values()):
        arr = _residues(vec, p)  # reduced before int64 can wrap
        if arr.shape != (dim,):
            raise InvalidTableError(
                f"structure constant for ({i}, {j}) must have length {dim}"
            )
        consts[i, j] = arr
    left = np.einsum("ijm,mkl->ijkl", consts, consts) % p
    right = np.einsum("jkm,iml->ijkl", consts, consts) % p
    if not np.array_equal(left, right):
        bad = np.argwhere((left != right).any(axis=3))
        i, j, k = (int(v) for v in bad[0])
        raise NotAssociativeError((i, j, k), context="structure constants")
    algebra = NilpotentAlgebra("modp", p, dim, consts)
    power_ideal_dims(algebra)
    return algebra


def cyclic_ring(p: int, r: int) -> NilpotentAlgebra:
    """The ring Z/p^3 with product x . y = p^r x y.

    r = 0 gives the ordinary product, which is not nilpotent; validation
    rejects it via NotNilpotent.
    """
    if p**3 > MAX_ORDER:
        raise InvalidTableError(f"p^3 = {p**3} exceeds the cap of {MAX_ORDER}")
    if not _is_prime(p):
        raise BadPrime(p)
    if r < 0:
        raise UnsupportedParameter(f"product scale exponent must be >= 0, got {r}")
    algebra = NilpotentAlgebra("cyclic", p, 3, np.full((1, 1, 1), pow(p, r, p**3)), r=r)
    power_ideal_dims(algebra)
    return algebra


# ---------------------------------------------------------------------------
# circle structure


def _times(algebra: NilpotentAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products x[k] . y[k] of two batches of reduced coordinate rows."""
    return np.einsum("xi,xj,ijl->xl", x, y, algebra.consts) % algebra.modulus


def _series_inverses(algebra: NilpotentAlgebra, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-inverses of a batch of elements, and a mask of the missing ones.

    ``elems`` holds the coordinates of one element per row.  Sums
    -u + u^2 - u^3 + ... with left-normed powers u^(k+1) = u^k . u for
    every row at once.  A series ends at its first zero power, which stays
    zero, so later terms add nothing; a row is missing when none of its
    first dimension + 2 products is zero.
    """
    mod = algebra.modulus
    u = np.asarray(elems, dtype=np.int64) % mod
    acc = -u % mod
    power = u
    ended = np.zeros(len(u), dtype=bool)
    sign = 1  # sign of the next term: (-1)^k for k = 2 is +1
    for _ in range(algebra.dim + 2):
        power = _times(algebra, power, u)
        ended |= ~power.any(axis=1)
        acc = (acc + sign * power) % mod
        sign = -sign
    return acc, ~ended


def quasi_inverse(algebra: NilpotentAlgebra, u: Element) -> Element:
    """The circle-inverse -u + u^2 - u^3 + ... of an element.

    The series must terminate within dimension + 2 terms;
    QuasiInverseMissing otherwise, which is how a non-nilpotent product
    built directly as a ``NilpotentAlgebra`` fails.  ValueError when ``u``
    does not have one coordinate per basis vector (one, an int, for the
    cyclic kind).
    """
    digits = algebra._coords(u).reshape(-1)
    length = len(algebra.consts)
    if len(digits) != length:
        raise ValueError(f"expected an element of length {length}, got length {len(digits)}")
    acc, missing = _series_inverses(algebra, [digits])
    if missing[0]:
        raise QuasiInverseMissing(tuple(digits.tolist()))
    return algebra._element(acc[0])


def _check_series_inverses(algebra: NilpotentAlgebra) -> None:
    """Require every element's series inverse to end and to cancel.

    Raises for the lowest failing element: QuasiInverseMissing when its
    series does not end, else AssertionError when u o v != 0.
    """
    elems = algebra.elements().reshape(algebra.order, -1)
    inverses, missing = _series_inverses(algebra, elems)
    circled = (elems + inverses + _times(algebra, elems, inverses)) % algebra.modulus
    bad = np.flatnonzero(missing | circled.any(axis=1))
    if bad.size:
        index = int(bad[0])
        if missing[index]:
            raise QuasiInverseMissing(tuple(int(x) for x in elems[index]))
        raise AssertionError(f"series inverse of element {index} does not cancel")


def _check_table_cap(algebra: NilpotentAlgebra) -> None:
    if algebra.order > MAX_ORDER:
        raise InvalidTableError(
            f"algebra has {algebra.order} elements, above the table cap of {MAX_ORDER}"
        )


def additive_group(algebra: NilpotentAlgebra) -> FiniteGroup:
    """The underlying addition as a table group."""
    _check_table_cap(algebra)
    return _coordinate_group(algebra._radices, _sum)


def circle_group(algebra: NilpotentAlgebra) -> FiniteGroup:
    """The circle operation a o b = a + b + a.b as a table group.

    A table that fails as a group is explained by the series inverses when
    one of them fails: QuasiInverseMissing for the lowest element whose
    series does not end, else AssertionError for the lowest whose series
    does not cancel; otherwise the table's own error stands.  A table that
    passes proves that check would pass, so it runs only on failure.  The
    circle operation is associative exactly when the product is, and a
    finite ring whose circle operation is a group is radical, so it is
    nilpotent: each power ideal is smaller than the one before, so
    A^(dim+1) = 0.  Every series then ends within dim + 2 terms, and by
    associativity it cancels.
    """
    _check_table_cap(algebra)
    # int32 suffices: at order <= MAX_ORDER each sum of x_i y_j c_ijl stays below 2^31
    consts = algebra.consts.astype(np.int32)

    def rule(x: np.ndarray, y: np.ndarray) -> Iterator[np.ndarray]:
        half = np.einsum("ix,ijl->ljx", x[:, :, 0], consts)     # [l, j, x] -> (x . e_j)_l
        ys = y[:, 0, :]
        out = np.empty((x.shape[1], y.shape[2]), dtype=np.int32)
        for l in range(len(consts)):
            np.einsum("jx,jy->xy", half[l], ys, out=out)        # [x, y] -> (x . y)_l
            out += x[l]
            out += y[l]
            yield out

    try:
        return _coordinate_group(algebra._radices, rule)
    except BraceLabError:
        _check_series_inverses(algebra)
        raise


def to_brace(algebra: NilpotentAlgebra) -> SkewBrace:
    """The skew brace (addition, circle) of a nilpotent ring."""
    return brace_from_groups(additive_group(algebra), circle_group(algebra))


# ---------------------------------------------------------------------------
# catalog


def catalog(
    name: str, p: int, m: Optional[int] = None, r: Optional[int] = None
) -> NilpotentAlgebra:
    """Named example algebras.

    degraaf_A340    dimension 3, only nonzero basis product e2.e1 = e0
    sixdim_wedge    dimension 6 with e0.e1 = e3, e1.e2 = e4, e2.e0 = e5
    truncated_poly  polynomials x Z/p[x] mod x^(m+1)  (requires m)
    cyclic          Z/p^3 with product scaled by p^r  (requires r)

    Primes outside each entry's supported range raise UnsupportedParameter,
    unknown names raise UnknownName.
    """
    if name not in CATALOG_NAMES:
        raise UnknownName(name, CATALOG_NAMES)
    allowed = _CATALOG_PRIMES[name]
    if p not in allowed:
        raise UnsupportedParameter(
            f"catalog entry {name!r} supports p in {allowed}, got {p}"
        )
    if name == "degraaf_A340":
        e0 = [1, 0, 0]
        return make_algebra(p, 3, {(2, 1): e0})
    if name == "sixdim_wedge":
        def unit(k: int) -> list[int]:
            vec = [0] * 6
            vec[k] = 1
            return vec

        return make_algebra(p, 6, {(0, 1): unit(3), (1, 2): unit(4), (2, 0): unit(5)})
    if name == "truncated_poly":
        if m is None:
            raise UnsupportedParameter("truncated_poly needs the degree parameter m")
        if m < 1:
            raise UnsupportedParameter(f"truncated_poly degree m = {m} is out of range")
        _check_dimension(m)
        products = {}
        for i in range(m):
            for j in range(m):
                if i + j + 1 < m:
                    vec = [0] * m
                    vec[i + j + 1] = 1
                    products[(i, j)] = vec
        return make_algebra(p, m, products)
    if r is None:
        raise UnsupportedParameter("cyclic needs the scale parameter r")
    return cyclic_ring(p, r)

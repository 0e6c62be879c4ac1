"""Skew braces: one carrier set with two group operations tied together.

Writing the first operation ``*`` (additive) and the second ``@``
(multiplicative), the compatibility law is

    a @ (b * c)  ==  (a @ b) * inv(a) * (a @ c)

where ``inv`` is the additive inverse.  Both operations live on the same
indices 0..n-1 and share the identity 0.  A pair of group tables that
fails the law is still representable — the validators report a witness
instead of refusing to construct anything.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BraceAxiomFailure, IdentityMismatch, InvalidTableError
from .groups import (
    FiniteGroup,
    PermRepresentation,
    _Budget,
    _HomSearch,
    _automorphisms,
    _find_identity,
    _group,
    _table_entries,
    make_group,
)
from .perms import Perm, PermutationGroup, _array

__all__ = [
    "CounterexampleTriple",
    "HolomorphWitness",
    "ExponentReport",
    "SkewBrace",
    "prepare_brace_groups",
    "make_brace",
    "brace_from_groups",
    "validate_direct",
    "validate_via_holomorph",
    "find_axiom_failures",
    "l_map",
    "is_biskew",
    "trivial_brace",
    "opposite_brace",
    "brace_automorphism_group",
    "is_two_sided",
    "exponent_compare",
    "square_agreement_set",
    "are_brace_isomorphic",
]


@dataclass(frozen=True)
class CounterexampleTriple:
    """First triple where the compatibility law breaks, with both sides."""

    a: int
    b: int
    c: int
    left: int
    right: int


@dataclass(frozen=True)
class HolomorphWitness:
    """Displacement map of ``element`` fails to respect addition at (x, y)."""

    element: int
    x: int
    y: int


@dataclass(frozen=True)
class ExponentReport:
    """Element-order comparison between the two operations."""

    add_exponent: int
    mult_exponent: int
    first_mismatch: Optional[tuple[int, int, int]]  # (element, add order, mult order)

    @property
    def orders_agree(self) -> bool:
        return self.first_mismatch is None


class SkewBrace:
    """A skew brace; construct via make_brace or brace_from_groups, which
    check the law, or enumerate_braces, whose braces satisfy it by
    construction.

    ``add`` holds the additive group, ``mult`` the multiplicative one.
    Validation verdicts for both orientations of the law are cached, and so
    are the brace automorphism group and the order and generators its
    order search found, which both orientations share.  The constructor
    trusts its groups; ``brace_from_groups`` checks them and gives equal
    tables one shared group.
    """

    # the isomorphism class the regular-subgroup search reached this brace
    # in, set by enumerate_braces; it means something only beside the
    # other braces that search gave on the same additive group object
    _census_class: Optional[int] = None

    def __init__(self, add: FiniteGroup, mult: FiniteGroup) -> None:
        self.add = add
        self.mult = mult
        self.order = add.order
        self._verdicts: dict[bool, Optional[CounterexampleTriple]] = {}
        # caches of groups._automorphisms and groups._aut_chain, as on a group
        self._auts: Optional[PermutationGroup] = None
        self._chain: Optional[tuple[int, tuple[Perm, ...]]] = None

    def _direct(self, swapped: bool) -> Optional[CounterexampleTriple]:
        if swapped not in self._verdicts:
            if swapped:
                self._verdicts[swapped] = validate_direct(self.mult, self.add)
            else:
                self._verdicts[swapped] = validate_direct(self.add, self.mult)
        return self._verdicts[swapped]

    def swapped(self) -> "SkewBrace":
        """The same carrier with the two operations exchanged (not validated)."""
        other = SkewBrace(self.mult, self.add)
        for key, value in self._verdicts.items():
            other._verdicts[not key] = value
        other._auts = self._auts
        other._chain = self._chain
        return other

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.order})"


# ---------------------------------------------------------------------------
# validators


def _respects_addition(add: FiniteGroup, m_t: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Entry i: whether lam_a(x) = inv(a) * (a @ x) respects addition, a = rows[i].

    The brace-law kernel; ``m_t[a, x]`` is read as a @ x.  The law at
    (a, b, c) says exactly that lam_a respects addition at (b, c).  A map
    that respects addition on the right by each of ``add.generators``
    respects all of it, so one gather per generator decides each row, at
    a cost of len(rows) * n * len(add.generators) lookups.
    """
    a_t, inv = add.table, add.inverses
    rows = np.asarray(rows, dtype=np.intp)
    lam = a_t[inv[rows, None], m_t[rows]]   # [i, x] -> lam_a(x), a = rows[i]
    ok = np.ones(len(rows), dtype=bool)
    for s in add.generators:
        ok &= (lam[:, a_t[:, s]] == a_t[lam, lam[:, s, None]]).all(axis=1)
    return ok


def _sides(add: FiniteGroup, m_t: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the law at every (a, b, c) for one outer ``a``, indexed [b, c]."""
    a_t = add.table
    row = m_t[a]
    lhs = row[a_t]                          # [b, c] -> a @ (b * c)
    u = a_t[row, add.inverses[a]]           # [b]    -> (a @ b) * inv(a)
    return lhs, a_t[u][:, row]              # [b, c] -> u[b] * (a @ c)


def _first_failure(
    add: FiniteGroup, m_t: np.ndarray, gens: Sequence[int]
) -> Optional[CounterexampleTriple]:
    """The lexicographically first failing (a, b, c) with both sides, or None.

    ``gens`` must generate the group of ``m_t``, read as a @ x.  The outer
    elements whose maps lam_a respect addition form a subgroup of it (see
    validate_via_holomorph), so the law holds when the rows of ``gens``
    pass.  Otherwise the smallest failing generator bounds the first
    failing ``a``, and the rows below it are checked to find that ``a``;
    only its two sides are built in full.
    """
    ok = _respects_addition(add, m_t, gens)
    if ok.all():
        return None
    bound = min(g for g, passed in zip(gens, ok.tolist()) if not passed)
    a = int(np.argmin(_respects_addition(add, m_t, range(bound + 1))))
    lhs, rhs = _sides(add, m_t, a)
    b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
    return CounterexampleTriple(a, b, c, int(lhs[b, c]), int(rhs[b, c]))


def validate_direct(add: FiniteGroup, mult: FiniteGroup) -> Optional[CounterexampleTriple]:
    """Check the compatibility law; None if it holds, else the first failure.

    The witness is the first failing triple in lexicographic order of
    (a, b, c) with ``a`` the outer element, so it is deterministic.  The
    law holds exactly when every displacement map respects addition, and
    it is enough to check the maps of ``mult.generators`` (see
    validate_via_holomorph): n * len(mult.generators) *
    len(add.generators) lookups when the law holds.  When it fails, the
    outer elements up to the smallest failing generator are checked, and
    both sides are built in full for the first failing one only.
    """
    return _first_failure(add, mult.table, mult.generators)


def validate_via_holomorph(
    add: FiniteGroup, mult: FiniteGroup
) -> Optional[HolomorphWitness]:
    """The same verdict read through the holomorph of the additive group.

    The pair is a skew brace exactly when every left translation
    phi_a(x) = a @ x lies in Hol(G, *), that is, when every displacement
    map x -> inv(a) * (a @ x) respects addition.  By associativity
    phi_(a @ b) = phi_a phi_b, and Hol(G, *) is a group, so the elements
    whose translation lies in it form a subgroup of (G, @): it is enough
    that the maps of ``mult.generators`` respect addition.  Each map is an
    automorphism of (G, *) when the law holds at every (a, b, c) for its
    ``a``, so both routes run the one kernel of validate_direct, and the
    witness is its first failing triple: ``element`` is the outer ``a``
    and (x, y) its (b, c).  The independent full scans live in the test
    oracles.
    """
    first = _first_failure(add, mult.table, mult.generators)
    return None if first is None else HolomorphWitness(first.a, first.b, first.c)


def find_axiom_failures(
    add: FiniteGroup,
    mult: FiniteGroup,
    sides: Optional[tuple[int, int]] = None,
    limit: Optional[int] = None,
) -> list[CounterexampleTriple]:
    """All failing triples of the compatibility law, lexicographically.

    ``sides=(left, right)`` keeps only failures with exactly those two side
    values; ``limit`` stops early once that many failures are collected.
    The kernel of validate_direct runs on every outer element, and both
    sides are built in full only where it fails.
    """
    out: list[CounterexampleTriple] = []
    m_t = mult.table
    for a in np.flatnonzero(~_respects_addition(add, m_t, range(add.order))).tolist():
        lhs, rhs = _sides(add, m_t, a)
        mask = lhs != rhs
        if sides is not None:
            mask &= (lhs == sides[0]) & (rhs == sides[1])
        for b, c in np.argwhere(mask):
            out.append(
                CounterexampleTriple(
                    a, int(b), int(c), int(lhs[b, c]), int(rhs[b, c])
                )
            )
            if limit is not None and len(out) >= limit:
                return out
    return out


# ---------------------------------------------------------------------------
# construction


def prepare_brace_groups(
    add_table: Sequence[Sequence[int]] | np.ndarray,
    mult_table: Sequence[Sequence[int]] | np.ndarray,
) -> tuple[FiniteGroup, FiniteGroup]:
    """Validate two raw tables as groups on a shared carrier, law unchecked.

    The tables must have one square shape (InvalidTableError) and, where
    both have an identity, the same one (IdentityMismatch); both checks
    come before either table is validated as a group.  Each table is then
    checked as :func:`make_group` checks it, the additive one first, so
    that its swap of 0 and the identity is the same relabeling on both.
    Each table is converted once.  Useful when the caller wants to report
    on the compatibility law rather than have it enforced.
    """
    a_arr, m_arr = _array(add_table), _array(mult_table)
    if a_arr.shape != m_arr.shape:
        raise InvalidTableError(
            f"tables must have matching shapes, got {a_arr.shape} and {m_arr.shape}"
        )
    if a_arr.ndim != 2 or a_arr.shape[0] != a_arr.shape[1]:
        raise InvalidTableError(f"tables must be square, got shape {a_arr.shape}")
    add = _table_entries(a_arr)
    try:
        mult = _table_entries(m_arr)
    except InvalidTableError:
        _group(add, _find_identity(add))  # the additive table's own errors come first
        raise
    e_add, e_mult = _find_identity(add), _find_identity(mult)
    if e_add is not None and e_mult is not None and e_add != e_mult:
        raise IdentityMismatch(e_add, e_mult)
    return _group(add, e_add), _group(mult, e_mult)


def make_brace(
    add_table: Sequence[Sequence[int]] | np.ndarray,
    mult_table: Sequence[Sequence[int]] | np.ndarray,
) -> SkewBrace:
    """Validate two raw tables as a skew brace.

    Runs the same table preparation as prepare_brace_groups, then requires
    the compatibility law (BraceAxiomFailure with the first witness
    otherwise).
    """
    add, mult = prepare_brace_groups(add_table, mult_table)
    return brace_from_groups(add, mult)


def brace_from_groups(add: FiniteGroup, mult: FiniteGroup) -> SkewBrace:
    """Wrap two already-validated groups on the same carrier as a brace.

    Equal tables share one group, and with it its cached automorphisms.
    Raises BraceAxiomFailure with the first witness of validate_direct
    when the compatibility law fails.
    """
    if add.order != mult.order:
        raise InvalidTableError(
            f"operations have different orders {add.order} and {mult.order}"
        )
    brace = SkewBrace(add, add if np.array_equal(mult.table, add.table) else mult)
    witness = brace._direct(False)
    if witness is not None:
        raise BraceAxiomFailure(witness)
    return brace


def trivial_brace(g: FiniteGroup) -> SkewBrace:
    """Both operations equal to the given group's; always a skew brace."""
    return brace_from_groups(g, g)


def opposite_brace(g: FiniteGroup) -> SkewBrace:
    """Addition is the opposite group (a * b := b a), multiplication is g."""
    opp = make_group(g.table.T.copy())
    return brace_from_groups(opp, g)


# ---------------------------------------------------------------------------
# structure maps and queries


def l_map(brace: SkewBrace) -> PermRepresentation:
    """Displacement maps as a representation of the multiplicative group.

    The permutation attached to a is x -> inv(a) * (a @ x); each one is an
    additive automorphism, and a -> map(a) is a homomorphism from the
    multiplicative group into Aut(add) under function composition.
    """
    a_t, m_t = brace.add.table, brace.mult.table
    inv = brace.add.inverses
    perms = tuple(
        tuple(int(v) for v in a_t[inv[a]][m_t[a]]) for a in range(brace.order)
    )
    return PermRepresentation(brace.mult, brace.order, perms)


def is_biskew(brace: SkewBrace) -> bool:
    """Whether the law also holds with the roles of the operations swapped.

    For the failing triple when this is False, run
    ``validate_direct(brace.mult, brace.add)``.
    """
    return brace._direct(True) is None


def is_two_sided(brace: SkewBrace) -> bool:
    """Whether the mirrored law (b * c) @ a == (b @ a) * inv(a) * (c @ a) holds.

    That is the direct law read against the transposed circle table, the
    table of the opposite group x @' y = y @ x, checked by the kernel of
    validate_direct on the rows of ``mult.generators``.  They generate the
    opposite group too, and the right translations x -> x @ a compose as
    the opposite group multiplies, so the elements whose right translation
    lies in Hol(G, *) again form a subgroup and its generators decide.
    """
    return _first_failure(brace.add, brace.mult.table.T, brace.mult.generators) is None


def _owner(brace: SkewBrace) -> FiniteGroup | SkewBrace:
    """What a brace's automorphisms are found on and cached on.

    When both operations are one group the brace automorphisms are that
    group's, so the group is the owner and shares its chain and listing.
    """
    return brace.add if brace.mult is brace.add else brace


def brace_automorphism_group(brace: SkewBrace, budget: Optional[int] = None) -> PermutationGroup:
    """Bijections fixing 0 that respect both operations at once.

    Listed and paid for as :func:`groups.automorphism_group` is, from
    the maps one order search over both tables keeps; computed once.
    """
    return _automorphisms(_owner(brace), _Budget(budget, "brace automorphism search"))


def exponent_compare(brace: SkewBrace) -> ExponentReport:
    """Compare element orders under the two operations."""
    add_orders = brace.add.element_orders()
    mult_orders = brace.mult.element_orders()
    mismatch = np.nonzero(add_orders != mult_orders)[0]
    first = None
    if mismatch.size:
        g = int(mismatch[0])
        first = (g, int(add_orders[g]), int(mult_orders[g]))
    return ExponentReport(brace.add.exponent(), brace.mult.exponent(), first)


def square_agreement_set(brace: SkewBrace) -> list[int]:
    """Elements whose additive and multiplicative squares coincide."""
    add_sq = brace.add.table.diagonal()
    mult_sq = brace.mult.table.diagonal()
    return [int(g) for g in np.nonzero(add_sq == mult_sq)[0]]


def are_brace_isomorphic(
    b1: SkewBrace, b2: SkewBrace, budget: Optional[int] = None
) -> Optional[Perm]:
    """A single bijection carrying both operations of b1 to those of b2.

    The generator-image search over the additive group, with every full
    assignment checked against the multiplicative tables too; the first
    map found is returned.  Its candidates match in element order and
    centraliser size under both operations, which such a bijection keeps.
    """
    if b1.order != b2.order:
        return None
    search = _HomSearch(
        [b1.add, b1.mult], [b2.add, b2.mult], _Budget(budget, "brace isomorphism search")
    )
    return next(search.maps(), None)

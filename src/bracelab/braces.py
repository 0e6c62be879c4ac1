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
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BraceAxiomFailure, IdentityMismatch, InvalidTableError
from .groups import (
    FiniteGroup,
    PermRepresentation,
    _HomSearch,
    _aut_order,
    _find_identity,
    _relabel,
    make_group,
)
from .perms import Perm, PermutationGroup

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
    are the brace automorphism group and its order, which both orientations
    share.
    """

    def __init__(self, add: FiniteGroup, mult: FiniteGroup) -> None:
        if add.order != mult.order:
            raise InvalidTableError(
                f"operations have different orders {add.order} and {mult.order}"
            )
        self.add = add
        # equal tables share one group, and with it its cached automorphisms
        self.mult = add if mult == add else mult
        self.order = add.order
        self._verdicts: dict[bool, Optional[CounterexampleTriple]] = {}
        self._auts: Optional[PermutationGroup] = None
        self._aut_order: Optional[int] = None

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
        other._aut_order = self._aut_order
        return other

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.order})"


# ---------------------------------------------------------------------------
# validators


def _law_failures(
    add: FiniteGroup, m_t: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Both sides of the law at each outer element ``a`` where they differ.

    Yields (a, lhs, rhs) in increasing ``a``, with ``lhs[b, c]`` and
    ``rhs[b, c]`` the two sides at the triple (a, b, c); ``m_t[a, x]`` is
    read as a @ x.

    The law at (a, b, c) says that lam_a(x) = inv(a) * (a @ x) respects
    addition at (b, c).  A map that respects addition on the right by each
    of ``add.generators`` respects all of it, so one gather per generator
    finds the outer elements that fail somewhere, and only those are
    scanned in full.
    """
    a_t, inv = add.table, add.inverses
    lam = a_t[inv[:, None], m_t]            # [a, x] -> lam_a(x)
    failing = np.zeros(add.order, dtype=bool)
    for s in add.generators:
        failing |= (lam[:, a_t[:, s]] != a_t[lam, lam[:, s, None]]).any(axis=1)
    for a in np.flatnonzero(failing).tolist():
        row = m_t[a]
        lhs = row[a_t]                      # [b, c] -> a @ (b * c)
        u = a_t[row, inv[a]]                # [b]    -> (a @ b) * inv(a)
        rhs = a_t[u][:, row]                # [b, c] -> u[b] * (a @ c)
        if not np.array_equal(lhs, rhs):
            yield a, lhs, rhs


def validate_direct(add: FiniteGroup, mult: FiniteGroup) -> Optional[CounterexampleTriple]:
    """Scan the compatibility law; None if it holds, else the first failure.

    Triples are scanned in lexicographic order of (a, b, c) with ``a`` the
    outer element, so the witness is deterministic.
    """
    for a, lhs, rhs in _law_failures(add, mult.table):
        b, c = (int(v) for v in np.argwhere(lhs != rhs)[0])
        return CounterexampleTriple(a, b, c, int(lhs[b, c]), int(rhs[b, c]))
    return None


def validate_via_holomorph(
    add: FiniteGroup, mult: FiniteGroup
) -> Optional[HolomorphWitness]:
    """Equivalent check through the holomorph of the additive group.

    The pair is a skew brace exactly when every left translation
    phi_a(x) = a @ x lies in Hol(G, *), that is, when every displacement
    map x -> inv(a) * (a @ x) respects addition.  By associativity
    phi_(a @ b) = phi_a phi_b, and Hol(G, *) is a group, so the elements
    whose translation lies in it form a subgroup of (G, @): it is enough
    that the maps of ``mult.generators`` respect addition, each checked on
    all pairs (x, y).  Only when one of them fails are the maps scanned in
    increasing ``a``, which reaches a failure by that generator at the
    latest.  The failing ``element`` always equals the failing outer ``a``
    of validate_direct, and the first (x, y) matches its (b, c).
    """
    a_t, m_t = add.table, mult.table
    inv = add.inverses

    def first_clash(a: int) -> Optional[tuple[int, int]]:
        disp = a_t[inv[a]][m_t[a]]          # [x] -> inv(a) * (a @ x)
        lhs = disp[a_t]                     # [x, y] -> disp(x * y)
        rhs = a_t[np.ix_(disp, disp)]       # [x, y] -> disp(x) * disp(y)
        bad = np.argwhere(lhs != rhs)
        return (int(bad[0, 0]), int(bad[0, 1])) if bad.size else None

    failing = next((g for g in mult.generators if first_clash(g) is not None), None)
    if failing is None:
        return None
    for a in range(failing + 1):
        clash = first_clash(a)
        if clash is not None:
            return HolomorphWitness(a, *clash)
    raise AssertionError(f"generator {failing} failed but the scan found no failure")


def find_axiom_failures(
    add: FiniteGroup,
    mult: FiniteGroup,
    sides: Optional[tuple[int, int]] = None,
    limit: Optional[int] = None,
) -> list[CounterexampleTriple]:
    """All failing triples of the compatibility law, lexicographically.

    ``sides=(left, right)`` keeps only failures with exactly those two side
    values; ``limit`` stops early once that many failures are collected.
    """
    out: list[CounterexampleTriple] = []
    for a, lhs, rhs in _law_failures(add, mult.table):
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

    Both tables must carry the same identity element (IdentityMismatch
    otherwise); if it is not 0, the *same* relabeling is applied to both.
    Useful when the caller wants to report on the compatibility law rather
    than have it enforced.
    """
    a_arr = np.asarray(add_table, dtype=np.int64)
    m_arr = np.asarray(mult_table, dtype=np.int64)
    if a_arr.shape != m_arr.shape:
        raise InvalidTableError(
            f"tables must have matching shapes, got {a_arr.shape} and {m_arr.shape}"
        )
    if a_arr.ndim != 2 or a_arr.shape[0] != a_arr.shape[1]:
        raise InvalidTableError(f"tables must be square, got shape {a_arr.shape}")
    n = a_arr.shape[0]
    if n and 0 <= a_arr.min() and a_arr.max() < n and 0 <= m_arr.min() and m_arr.max() < n:
        e_add = _find_identity(a_arr.astype(np.int32))
        e_mult = _find_identity(m_arr.astype(np.int32))
        if e_add is not None and e_mult is not None and e_add != e_mult:
            raise IdentityMismatch(e_add, e_mult)
        if e_add is not None and e_add != 0:
            sigma = np.arange(n, dtype=np.int32)
            sigma[0], sigma[e_add] = e_add, 0
            a_arr = _relabel(a_arr.astype(np.int32), sigma)
            m_arr = _relabel(m_arr.astype(np.int32), sigma)
    return make_group(a_arr), make_group(m_arr)


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

    Raises BraceAxiomFailure with the first witness of validate_direct
    when the compatibility law fails.
    """
    brace = SkewBrace(add, mult)
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

    That is the direct law read against the transposed circle table.
    """
    return next(_law_failures(brace.add, brace.mult.table.T), None) is None


def _tables(brace: SkewBrace) -> list[FiniteGroup]:
    """The tables a brace automorphism preserves, one if both are the same group."""
    return [brace.add] if brace.mult is brace.add else [brace.add, brace.mult]


def brace_automorphism_group(brace: SkewBrace, budget: Optional[int] = None) -> PermutationGroup:
    """Bijections fixing 0 that respect both operations at once.

    Listed by one homomorphism search over both tables together, under the
    caller's budget; computed once per brace.  Raises SearchLimitExceeded
    when the search passes its node budget.
    """
    if brace._auts is None:
        tables = _tables(brace)
        search = _HomSearch(tables, tables, budget, "brace automorphism search")
        brace._auts = PermutationGroup(brace.order, search.maps())
    return brace._auts


def _brace_aut_order(brace: SkewBrace, budget: Optional[int]) -> int:
    """|Aut of the brace| by the orbit-stabiliser count of groups._aut_order.

    Read off the listed group when brace_automorphism_group has run;
    otherwise computed once per brace under the caller's budget.
    """
    if brace._auts is not None:
        return len(brace._auts)
    if brace._aut_order is None:
        brace._aut_order = _aut_order(_tables(brace), budget, "brace automorphism order search")
    return brace._aut_order


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
    map found is returned.
    """
    if b1.order != b2.order:
        return None
    o1a, o2a = b1.add.element_orders(), b2.add.element_orders()
    o1m, o2m = b1.mult.element_orders(), b2.mult.element_orders()
    if sorted(zip(o1a.tolist(), o1m.tolist())) != sorted(zip(o2a.tolist(), o2m.tolist())):
        return None
    search = _HomSearch([b1.add, b1.mult], [b2.add, b2.mult], budget, "brace isomorphism search")
    return next(search.maps(), None)

"""Counting Hopf-Galois structures through brace automorphisms.

A skew brace with multiplicative group N and additive group M gives
Hopf-Galois structures on a Galois extension with group N whose "type"
is M; the number of such structures realized by the brace is

    |Aut(N)| / |Aut of the brace|

and the division is always exact because brace automorphisms form a
subgroup of Aut(N).  For a brace valid in both orientations the two
counts satisfy a reciprocity identity, checked here explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .braces import SkewBrace, _owner, is_biskew
from .errors import NotBiskew
from .groups import _Budget, _aut_chain, recognize

__all__ = ["HGSCountReport", "ReciprocityReport", "count_hgs", "reciprocity_check"]


@dataclass(frozen=True)
class HGSCountReport:
    """Structure count for one brace, with the raw automorphism orders."""

    galois_name: str        # multiplicative group (the Galois side)
    type_name: str          # additive group (the type)
    aut_mult: int
    aut_add: int
    aut_brace: int
    count: int

    def lines(self) -> list[tuple[str, str]]:
        return [
            ("galois_group", self.galois_name),
            ("type", self.type_name),
            ("aut_mult", str(self.aut_mult)),
            ("aut_add", str(self.aut_add)),
            ("aut_brace", str(self.aut_brace)),
            ("count", str(self.count)),
        ]


@dataclass(frozen=True)
class ReciprocityReport:
    """Both orientation counts and the cross identity they satisfy.

    ``balanced`` states count_forward * aut_add == count_swapped * aut_mult.
    """

    count_forward: int      # structures on the multiplicative group, additive type
    count_swapped: int      # structures on the additive group, multiplicative type
    aut_add: int
    aut_mult: int
    aut_brace: int

    @property
    def balanced(self) -> bool:
        return self.count_forward * self.aut_add == self.count_swapped * self.aut_mult

    def lines(self) -> list[tuple[str, str]]:
        return [
            ("count_forward", str(self.count_forward)),
            ("count_swapped", str(self.count_swapped)),
            ("aut_add", str(self.aut_add)),
            ("aut_mult", str(self.aut_mult)),
            ("aut_brace", str(self.aut_brace)),
            ("balanced", "true" if self.balanced else "false"),
        ]


def _aut_orders(brace: SkewBrace, budget: Optional[int]) -> tuple[int, int, int]:
    """|Aut| of the multiplicative group, the additive group and the brace.

    Each is an orbit-stabiliser count, so no automorphism is listed, and
    the three searches spend from one budget, the caller's.  Brace
    automorphisms form a subgroup of both group automorphism groups, so
    their order must divide both; anything else means a broken search.
    """
    spent = _Budget(budget, "automorphism order search")
    aut_mult = _aut_chain(brace.mult, spent)[0]
    aut_add = _aut_chain(brace.add, spent)[0]
    aut_brace = _aut_chain(_owner(brace), spent)[0]
    if aut_mult % aut_brace or aut_add % aut_brace:
        raise AssertionError(
            f"brace automorphisms ({aut_brace}) do not divide Aut of the "
            f"multiplicative ({aut_mult}) or the additive ({aut_add}) group"
        )
    return aut_mult, aut_add, aut_brace


def count_hgs(brace: SkewBrace, budget: Optional[int] = None) -> HGSCountReport:
    """Count the structures the brace contributes, with exactness asserted."""
    aut_mult, aut_add, aut_brace = _aut_orders(brace, budget)
    return HGSCountReport(
        galois_name=recognize(brace.mult),
        type_name=recognize(brace.add),
        aut_mult=aut_mult,
        aut_add=aut_add,
        aut_brace=aut_brace,
        count=aut_mult // aut_brace,
    )


def reciprocity_check(brace: SkewBrace, budget: Optional[int] = None) -> ReciprocityReport:
    """Count both orientations of a two-orientation brace.

    Raises NotBiskew when the swapped orientation is not a skew brace.  The
    brace automorphism group is shared by both orientations, so both
    divisions use the same denominator.
    """
    if not is_biskew(brace):
        raise NotBiskew("the swapped orientation fails the compatibility law")
    aut_mult, aut_add, aut_brace = _aut_orders(brace, budget)
    return ReciprocityReport(
        count_forward=aut_mult // aut_brace,
        count_swapped=aut_add // aut_brace,
        aut_add=aut_add,
        aut_mult=aut_mult,
        aut_brace=aut_brace,
    )

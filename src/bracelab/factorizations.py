"""Exact factorizations of a group and the skew braces they induce.

An exact factorization of G consists of subgroups L and R with trivial
intersection and |L| * |R| = |G|; every x then splits uniquely as
x = a b with a in L, b in R.  The derived circle operation

    x @ y  =  a * y * b        where x = a b

makes (G, *) the additive group of a skew brace whose multiplicative
group is isomorphic to L x R.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .braces import (
    SkewBrace,
    brace_from_groups,
    find_axiom_failures,
    validate_direct,
)
from .errors import IntersectionNontrivial, InvalidTableError, NotSubgroup, OrderMismatch
from .groups import (
    FiniteGroup,
    PermRepresentation,
    _escaping_product,
    _members,
    are_isomorphic,
    direct_product,
    is_normal,
    make_group,
    recognize,
    subgroup_closure,
    subgroup_group,
    symmetric_group,
)
from .perms import all_perms, cycle_string, parse_cycles

__all__ = [
    "ExactFactorization",
    "validate_factorization",
    "left_group",
    "right_group",
    "pair_group",
    "circle_from_factorization",
    "byott_embedding",
    "is_semidirect",
    "S4Report",
    "demo_s4",
]


@dataclass(frozen=True)
class ExactFactorization:
    """A verified exact factorization with its element-wise decomposition.

    ``decomposition[x]`` is the unique (a, b) with x = a b, a in left,
    b in right.
    """

    group: FiniteGroup
    left: tuple[int, ...]
    right: tuple[int, ...]
    decomposition: tuple[tuple[int, int], ...]


def _factor(g: FiniteGroup, elements: Iterable[int], side: str) -> list[int]:
    """The distinct members of one factor, sorted; NotSubgroup unless they form a subgroup."""
    try:
        elems = _members(g, elements)
    except InvalidTableError as exc:  # the index gate's message, under the side's name
        raise NotSubgroup(side, str(exc)) from None
    if not elems or elems[0] != 0:
        raise NotSubgroup(side, "missing the identity")
    escape = _escaping_product(g, elems)
    if escape is not None:
        raise NotSubgroup(side, "{} * {} = {} escapes".format(*escape))
    return elems


def validate_factorization(
    g: FiniteGroup, left: Iterable[int], right: Iterable[int]
) -> ExactFactorization:
    """Check subgroup-ness, trivial intersection, and the order product.

    Errors: NotSubgroup (the failing side, with the index gate's message
    for a member that is not an integer in 0..n-1, or the lexicographically
    first product escaping it), IntersectionNontrivial, OrderMismatch.  On
    success every element's unique decomposition is tabulated.
    """
    lefts, rights = _factor(g, left, "left"), _factor(g, right, "right")
    common = sorted((set(lefts) & set(rights)) - {0})
    if common:
        raise IntersectionNontrivial(common)
    if len(lefts) * len(rights) != g.order:
        raise OrderMismatch(len(lefts), len(rights), g.order)
    decomposition: list[Optional[tuple[int, int]]] = [None] * g.order
    for a in lefts:
        for b in rights:
            x = g.mul(a, b)
            if decomposition[x] is not None:
                raise AssertionError(f"element {x} decomposed twice")
            decomposition[x] = (a, b)
    return ExactFactorization(
        g, tuple(lefts), tuple(rights), tuple(decomposition)  # type: ignore[arg-type]
    )


def left_group(f: ExactFactorization) -> FiniteGroup:
    return subgroup_group(f.group, f.left)


def right_group(f: ExactFactorization) -> FiniteGroup:
    return subgroup_group(f.group, f.right)


def pair_group(f: ExactFactorization) -> FiniteGroup:
    """The direct product of the two factors (reindexed locally)."""
    return direct_product(left_group(f), right_group(f))


def circle_from_factorization(f: ExactFactorization) -> SkewBrace:
    """The brace whose addition is the group and whose circle is a * y * b."""
    g = f.group
    dec = np.asarray(f.decomposition, dtype=np.int32)
    t = g.table
    ay = t[dec[:, 0]]                    # [x, y] -> a_x * y
    circ = t[ay, dec[:, 1][:, None]]     # [x, y] -> (a_x * y) * b_x
    return brace_from_groups(g, make_group(circ))


def byott_embedding(f: ExactFactorization) -> PermRepresentation:
    """Represent L x R on the group by (a, b): x -> a * x * inv(b).

    This is injective and regular for an exact factorization; its image is
    a regular subgroup of the holomorph of the group, and the permutation
    sending 0 to x has the circle row of x as its image list.
    """
    g = f.group
    t, inv = g.table, g.inverses
    perms = []
    for a in f.left:
        for b in f.right:
            perms.append(tuple(int(v) for v in t[a][t[:, inv[b]]]))
    return PermRepresentation(pair_group(f), g.order, tuple(perms))


def is_semidirect(f: ExactFactorization, side: str = "left") -> bool:
    """Whether the chosen factor is normal in the whole group."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return is_normal(f.group, f.left if side == "left" else f.right)


# ---------------------------------------------------------------------------
# the 24-element showcase


@dataclass(frozen=True)
class S4Report:
    """Everything the factorization of the 24-element symmetric group shows.

    The factorization is L = permutations fixing the last letter, R = the
    cyclic group of a 4-cycle.  The induced brace satisfies the law with
    the natural operation additive, but not with the roles swapped; the
    report carries a failing triple whose two sides are the 3-cycles
    (132) and (134), the lexicographically first failing triple, and the
    evaluation of one specific non-failing triple for contrast.  All cycle
    strings are 1-based.
    """

    forward_valid: bool
    swapped_valid: bool
    swapped_failure_count: int
    left_name: str
    right_name: str
    circle_matches_pair: bool
    featured: tuple[str, str, str]          # (a, b, c) with sides below
    featured_sides: tuple[str, str]
    first_failure: tuple[str, str, str]
    first_failure_sides: tuple[str, str]
    contrast_triple: tuple[str, str, str]
    contrast_sides: tuple[str, str]


def demo_s4() -> S4Report:
    g = symmetric_group(4)
    perms = all_perms(4)
    index = {p: i for i, p in enumerate(perms)}

    fix_last = [i for i, p in enumerate(perms) if p[3] == 3]
    four_cycle = subgroup_closure(g, [index[parse_cycles("(1234)", 4)]])
    f = validate_factorization(g, fix_last, four_cycle)
    brace = circle_from_factorization(f)

    forward = validate_direct(brace.add, brace.mult) is None
    swapped_failures = find_axiom_failures(brace.mult, brace.add)
    swapped = not swapped_failures

    def name(i: int) -> str:
        return cycle_string(perms[i])

    t132 = index[parse_cycles("(132)", 4)]
    t134 = index[parse_cycles("(134)", 4)]
    featured = find_axiom_failures(brace.mult, brace.add, sides=(t132, t134), limit=1)[0]

    first = swapped_failures[0]

    # the triple (1234), (12), (13)(24) does *not* violate the swapped law:
    # evaluate both sides to show they agree
    xa = index[parse_cycles("(1234)", 4)]
    xb = index[parse_cycles("(12)", 4)]
    xc = index[parse_cycles("(13)(24)", 4)]
    add, mult = brace.mult, brace.add  # swapped roles
    lhs = mult.mul(xa, add.mul(xb, xc))
    rhs = add.mul(add.mul(mult.mul(xa, xb), add.inv(xa)), mult.mul(xa, xc))

    match = are_isomorphic(brace.mult, pair_group(f)) is not None
    return S4Report(
        forward_valid=forward,
        swapped_valid=swapped,
        swapped_failure_count=len(swapped_failures),
        left_name=recognize(left_group(f)),
        right_name=recognize(right_group(f)),
        circle_matches_pair=match,
        featured=(name(featured.a), name(featured.b), name(featured.c)),
        featured_sides=(name(featured.left), name(featured.right)),
        first_failure=(name(first.a), name(first.b), name(first.c)),
        first_failure_sides=(name(first.left), name(first.right)),
        contrast_triple=(name(xa), name(xb), name(xc)),
        contrast_sides=(name(lhs), name(rhs)),
    )

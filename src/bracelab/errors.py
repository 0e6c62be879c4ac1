"""Exception types raised by bracelab.

Every validation failure carries a concrete witness (an element index, a
triple, a line number) so callers can report exactly what went wrong
instead of a bare "invalid input".
"""
from __future__ import annotations


class BraceLabError(Exception):
    """Base class for all bracelab errors."""


# ---------------------------------------------------------------------------
# multiplication-table validation


class InvalidTableError(BraceLabError):
    """Table is not a square 0-based index matrix, or exceeds the size cap."""


class NoIdentityError(BraceLabError):
    """No two-sided identity element exists in the table."""


class NotBijectiveRowError(BraceLabError):
    """Some row or column of the table is not a permutation."""

    def __init__(self, element: int, axis: str) -> None:
        self.element = element
        self.axis = axis
        super().__init__(f"{axis} {element} of the table is not a bijection")


class NotAssociativeError(BraceLabError):
    """Associativity fails; `witness` is the first offending (a, b, c)."""

    def __init__(self, witness: tuple[int, int, int], context: str = "table") -> None:
        self.witness = witness
        a, b, c = witness
        super().__init__(f"{context} is not associative at (a, b, c) = ({a}, {b}, {c})")


# ---------------------------------------------------------------------------
# searches and enumeration


class SearchLimitExceeded(BraceLabError):
    """A backtracking search ran past its node budget."""

    def __init__(self, budget: int, context: str = "search") -> None:
        self.budget = budget
        super().__init__(
            f"{context} exceeded its node budget of {budget}; "
            "raise it with the budget= argument or the --budget option, "
            "or, when neither is given, the BRACELAB_BUDGET environment variable"
        )


class CapExceeded(BraceLabError):
    """An enumeration produced more results than the caller's cap."""

    def __init__(self, cap: int, context: str = "enumeration") -> None:
        self.cap = cap
        super().__init__(f"{context} exceeded the result cap of {cap}")


# ---------------------------------------------------------------------------
# semidirect-product actions


class ActionNotHomomorphism(BraceLabError):
    """The twisting map of a semidirect product is not a homomorphism."""


class ActionNotAutomorphism(BraceLabError):
    """Some value of the twisting map is not an automorphism of the base."""

    def __init__(self, index: int, reason: str) -> None:
        self.index = index
        msg = f"action value at index {index} is not an automorphism of the base group"
        super().__init__(f"{msg}: {reason}")


# ---------------------------------------------------------------------------
# skew braces


class IdentityMismatch(BraceLabError):
    """The two operations of a would-be brace disagree on the identity element."""

    def __init__(self, star_identity: int, circ_identity: int) -> None:
        self.star_identity = star_identity
        self.circ_identity = circ_identity
        super().__init__(
            f"identity of the additive table is {star_identity} "
            f"but identity of the multiplicative table is {circ_identity}"
        )


class BraceAxiomFailure(BraceLabError):
    """The compatibility law between the two operations fails.

    `witness` carries the first failing triple together with the two
    differing side values.
    """

    def __init__(self, witness) -> None:
        self.witness = witness
        super().__init__(
            f"compatibility law fails at (a, b, c) = "
            f"({witness.a}, {witness.b}, {witness.c}): "
            f"left side {witness.left} != right side {witness.right}"
        )


class NotBiskew(BraceLabError):
    """The brace does not satisfy the swapped compatibility law."""


# ---------------------------------------------------------------------------
# nilpotent algebras


class BadPrime(BraceLabError):
    """The given modulus is not a prime in the supported range."""

    def __init__(self, p: int) -> None:
        self.p = p
        super().__init__(f"{p} is not a supported prime")


class NotNilpotent(BraceLabError):
    """The power ideals of the algebra never reach zero."""

    def __init__(self, dims: list[int]) -> None:
        self.dims = dims
        super().__init__(f"power ideal dimensions {dims} do not descend to 0")


class QuasiInverseMissing(BraceLabError):
    """The geometric-series inverse for the circle operation fails to terminate."""

    def __init__(self, element: tuple[int, ...]) -> None:
        self.element = element
        super().__init__(f"no terminating circle inverse for element {element}")


class UnknownName(BraceLabError):
    """A catalog lookup used a name that is not in the catalog."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        super().__init__(f"unknown catalog name {name!r}; known names: {', '.join(known)}")


class UnsupportedParameter(BraceLabError):
    """A catalog entry exists but not for the requested parameter value."""


# ---------------------------------------------------------------------------
# exact factorizations


class NotSubgroup(BraceLabError):
    """One of the two factors is not closed under the group operation."""

    def __init__(self, side: str, witness: str) -> None:
        self.side = side
        super().__init__(f"{side} factor is not a subgroup ({witness})")


class IntersectionNontrivial(BraceLabError):
    """The two factors share a non-identity element."""

    def __init__(self, elements: list[int]) -> None:
        self.elements = elements
        super().__init__(f"factors intersect in non-identity elements {elements}")


class OrderMismatch(BraceLabError):
    """|left| * |right| does not equal the group order."""

    def __init__(self, left: int, right: int, order: int) -> None:
        super().__init__(f"|left| * |right| = {left} * {right} != {order} = group order")


# ---------------------------------------------------------------------------
# file formats


class FileFormatError(BraceLabError):
    """A text file for a group, brace, or algebra failed to parse."""

    def __init__(self, line: int, reason: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {reason}")

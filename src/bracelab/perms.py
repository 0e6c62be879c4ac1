"""Permutations of {0, ..., n-1} as tuples, plus permutation groups.

A permutation ``p`` maps ``i`` to ``p[i]``.  ``compose(p, q)`` is function
composition: apply ``q`` first, then ``p``.  Cycle notation is 1-based for
display, matching the way permutations are usually written by hand.
"""
from __future__ import annotations

import itertools
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidTableError

__all__ = [
    "Perm",
    "compose",
    "invert",
    "identity_perm",
    "perm_order",
    "is_fixed_point_free",
    "all_perms",
    "cycle_string",
    "parse_cycles",
    "PermutationGroup",
]

Perm = tuple[int, ...]
_POINT = "point {value} at {at}"  # a bad point of a permutation, for the index gate


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Function composition p∘q: the map x -> p(q(x)); ValueError unless the lengths agree."""
    if len(p) != len(q):
        raise ValueError(f"cannot compose permutations of lengths {len(p)} and {len(q)}")
    return tuple([p[i] for i in q])


def invert(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: Sequence[int]) -> int:
    """Multiplicative order: the lcm of the cycle lengths."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        order = lcm(order, length)
    return order


def is_fixed_point_free(p: Sequence[int]) -> bool:
    """True when p moves every point (the identity does not qualify)."""
    return all(p[i] != i for i in range(len(p)))


def all_perms(n: int) -> list[Perm]:
    """All permutations of {0, ..., n-1} in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(n))]


def _cycles(p: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        out.append(cyc)
    return out


def cycle_string(p: Sequence[int]) -> str:
    """1-based disjoint-cycle notation; the identity prints as ``()``.

    Points are concatenated for degree <= 9 and space-separated above that.
    """
    cycles = _cycles(p)
    if not cycles:
        return "()"
    sep = "" if len(p) <= 9 else " "
    return "".join("(" + sep.join(str(i + 1) for i in cyc) + ")" for cyc in cycles)


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based disjoint-cycle notation like ``(1 2 3)(4 5)`` or ``(123)``.

    Unbracketed whitespace and commas are ignored.  ``()`` and ``e`` both
    denote the identity.  Points without separators are read digit by digit,
    which is only unambiguous for degree <= 9; larger degrees must separate
    points with spaces or commas.
    """
    text = text.strip()
    if text in ("", "e", "()"):
        return identity_perm(degree)
    out = list(range(degree))
    used: list[int] = []  # the points of every cycle
    for chunk in text.replace(")", ")\x00").split("\x00"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"malformed cycle {chunk!r}")
        body = chunk[1:-1].replace(",", " ")
        if " " in body.strip() or degree > 9:
            points = [int(tok) for tok in body.split()]
        else:
            points = [int(ch) for ch in body.strip()]
        if not points:
            continue
        for v in points:
            if not 1 <= v <= degree:
                raise ValueError(f"point {v} outside 1..{degree}")
        used += points
        for a, b in zip(points, points[1:] + points[:1]):
            out[a - 1] = b - 1
    if len(set(used)) != len(used):
        raise ValueError("repeated point; the cycles must be disjoint")
    return tuple(out)


def _indices(values: object, n: int, what: str) -> np.ndarray:
    """``values`` as a fresh int32 array of its shape, each entry an index in 0..n-1.

    The one check of caller-supplied indices: table entries, element
    lists, images, permutation points, actions and ring coordinates.  An
    index is an integer, and an integral float is taken as its integer.  A
    string is none, even one that spells an integer, nor is a bool array,
    which numpy reads as a mask; numpy turns a bool in a list of integers
    into 0 or 1 before the gate sees it.  Otherwise InvalidTableError
    names the first bad entry in row-major order by ``what``, a format
    string with the fields ``value`` and ``at``, its position (an int in
    one dimension, else a tuple).  A success costs one conversion, a
    min/max range test and one cast; only a failure is searched.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # nested sequences of unequal lengths
        raise InvalidTableError(f"the entries do not form an array: {exc}") from None
    if arr.dtype.kind in "iuf":
        ints = arr
        if arr.dtype.kind == "f":
            with np.errstate(invalid="ignore"):  # NaN and overflow fail the comparison
                ints = arr.astype(np.int64)
        integral = ints is arr or (ints == arr).all()
        if integral and (not ints.size or 0 <= ints.min() <= ints.max() < n):
            return ints.astype(np.int32)
        entries, k = arr, int(np.argmax((ints != arr) | (ints < 0) | (ints >= n)))
    else:  # strings, bools and other objects, one at a time
        entries = np.asarray(values, dtype=object)
        k = next((k for k, v in enumerate(entries.flat) if _integer(v) not in range(n)), None)
        if k is None:
            return entries.astype(np.int32)
    value = entries.reshape(-1)[k : k + 1].tolist()[0]
    at = tuple(int(i) for i in np.unravel_index(k, entries.shape))
    at = at[0] if len(at) == 1 else at
    reason = "is not an integer" if _integer(value) is None else f"is not in 0..{n - 1}"
    raise InvalidTableError(f"{what.format(value=repr(value), at=at)} {reason}")


def _integer(v: object) -> Optional[int]:
    """v as an int if it is an integer or an integral float, else None."""
    if isinstance(v, (float, np.floating)):
        return int(v) if float(v).is_integer() else None
    return int(v) if isinstance(v, (int, np.integer)) and not isinstance(v, bool) else None


def _reached(start: np.ndarray, step: Callable[[np.ndarray], np.ndarray]) -> set[bytes]:
    """The bytes of every row reached from the row ``start``, breadth-first.

    ``step`` maps the array of a level's new rows to an array of their images.
    """
    whole = np.dtype((np.void, start.nbytes))  # one row as one item
    seen = frontier = {start.tobytes()}
    while frontier:
        rows = np.frombuffer(b"".join(frontier), dtype=start.dtype).reshape(len(frontier), -1)
        frontier = set(step(rows).view(whole).ravel().tolist()) - seen
        seen |= frontier
    return seen


class PermutationGroup:
    """A set of permutations of fixed degree, closed under composition.

    Closure is the caller's contract and is *not* verified on construction
    (automorphism groups can run to thousands of elements); use
    :meth:`verify_closure` in tests or for small groups.
    """

    __slots__ = ("degree", "elements", "_index", "__weakref__")

    def __init__(self, degree: int, elements: Iterable[Sequence[int]] | np.ndarray) -> None:
        rows = elements if isinstance(elements, np.ndarray) else list(elements)
        if isinstance(rows, np.ndarray):
            wide = rows.shape[1:] == (degree,)
        else:
            wide = all(len(p) == degree for p in rows)
        arr = _indices(rows, degree, _POINT).reshape(len(rows), degree) if wide else None
        points = np.arange(degree)
        if arr is None or not (np.sort(arr, axis=1) == points).all():
            # name the failing element that sorts first, as given
            bad = min(tuple(np.ravel(p).tolist()) for p in rows if sorted(p) != [*range(degree)])
            raise ValueError(f"{bad} is not a permutation of degree {degree}")
        # rows of big-endian entries in 0..degree-1, led by a 0 so that no
        # row is empty, compare bytewise as their tuples do: one unique call
        # sorts and deduplicates them
        keys = np.hstack([np.zeros((len(arr), 1), dtype=">i4"), arr.astype(">i4")])
        _, first = np.unique(keys.view(np.dtype((np.void, 4 * degree + 4))), return_index=True)
        del keys
        elems = arr[first]
        # the identity is the smallest permutation
        if not len(elems) or (elems[0] != points).any():
            raise ValueError("permutation set does not contain the identity")
        self.degree = degree
        # each row becomes a tuple in place, so that the rows are never held
        # as an array, lists and tuples all at once
        listed = elems.tolist()
        del elems
        for i, p in enumerate(listed):
            listed[i] = tuple(p)
        self.elements: tuple[Perm, ...] = tuple(listed)
        self._index = {p: i for i, p in enumerate(self.elements)}

    @classmethod
    def from_generators(cls, degree: int, generators: Iterable[Sequence[int]]) -> "PermutationGroup":
        """The group the permutations generate; p∘g reads p at the points of g."""
        gens = _indices([tuple(g) for g in generators], degree, _POINT).reshape(-1, degree)
        found = _reached(np.arange(degree, dtype=np.int32), lambda p: p.take(gens, axis=1))
        return cls(degree, np.frombuffer(b"".join(found), dtype=np.int32).reshape(-1, degree))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, tuple) and p in self._index

    def index(self, p: Sequence[int]) -> int:
        return self._index[tuple(p)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PermutationGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={self.order})"

    def verify_closure(self) -> None:
        """Raise ValueError on the first product that escapes the set."""
        for p in self.elements:
            if invert(p) not in self._index:
                raise ValueError(f"inverse of {p} missing from the set")
            for q in self.elements:
                if compose(p, q) not in self._index:
                    raise ValueError(f"product of {p} and {q} escapes the set")

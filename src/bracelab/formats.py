"""Plain-text file formats for groups, braces, and algebras.

Three headers are understood:

    group <n>           followed by n rows of n indices
    brace <n>           additive table, one blank line, multiplicative table
    algebra <p> <dim>   lines "i j -> c0 c1 ... c_dim-1" for nonzero products
    cyclicring <p> <r>  a one-line description of the scaled-product ring

Parsing problems raise FileFormatError carrying the 1-based line number;
semantic problems (a table that is not a group, a pair violating the
brace law) surface as the usual validation errors.
"""
from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from .algebras import NilpotentAlgebra, cyclic_ring, make_algebra
from .braces import SkewBrace, make_brace
from .errors import FileFormatError
from .groups import FiniteGroup, make_group

__all__ = [
    "read_group",
    "write_group",
    "group_text",
    "read_brace",
    "read_brace_tables",
    "write_brace",
    "brace_text",
    "read_algebra",
    "write_algebra",
    "algebra_text",
]

PathLike = Union[str, Path]


def _lines(path: PathLike) -> list[str]:
    return Path(path).read_text().splitlines()


def _parse_header(lines: list[str], expected: str) -> list[str]:
    if not lines:
        raise FileFormatError(1, "empty file")
    tokens = lines[0].split()
    if not tokens or tokens[0] != expected:
        raise FileFormatError(1, f"expected a {expected!r} header, got {lines[0]!r}")
    return tokens


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FileFormatError(line, f"{what} must be an integer, got {token!r}") from None


def _parse_rows(lines: list[str], start: int, n: int) -> np.ndarray:
    rows = []
    for offset in range(n):
        line_no = start + offset
        if line_no > len(lines):
            raise FileFormatError(line_no, f"expected {n} table rows, file ended early")
        tokens = lines[line_no - 1].split()
        if len(tokens) != n:
            raise FileFormatError(
                line_no, f"expected {n} entries in table row, got {len(tokens)}"
            )
        try:
            rows.append([int(t) for t in tokens])
        except ValueError:  # name the first bad token
            rows.append([_parse_int(t, line_no, "table entry") for t in tokens])
    return np.asarray(rows, dtype=np.int64)


def read_group(path: PathLike) -> FiniteGroup:
    lines = _lines(path)
    tokens = _parse_header(lines, "group")
    if len(tokens) != 2:
        raise FileFormatError(1, "group header must be 'group <n>'")
    n = _parse_int(tokens[1], 1, "group order")
    if n < 1:
        raise FileFormatError(1, f"group order must be positive, got {n}")
    return make_group(_parse_rows(lines, 2, n))


def _rows_text(table: np.ndarray) -> str:
    return "\n".join(" ".join(map(str, row)) for row in table.tolist())


def group_text(g: FiniteGroup) -> str:
    return f"group {g.order}\n{_rows_text(g.table)}\n"


def write_group(path: PathLike, g: FiniteGroup) -> None:
    Path(path).write_text(group_text(g))


def read_brace_tables(path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Parse a brace file into its two raw tables without validating them.

    Format checks (header, row counts, the blank separator line) still
    apply; group and law validation are left to the caller.
    """
    lines = _lines(path)
    tokens = _parse_header(lines, "brace")
    if len(tokens) != 2:
        raise FileFormatError(1, "brace header must be 'brace <n>'")
    n = _parse_int(tokens[1], 1, "brace order")
    if n < 1:
        raise FileFormatError(1, f"brace order must be positive, got {n}")
    add = _parse_rows(lines, 2, n)
    sep = 2 + n
    if sep > len(lines) or lines[sep - 1].strip():
        raise FileFormatError(sep, "expected a blank line between the two tables")
    mult = _parse_rows(lines, sep + 1, n)
    return add, mult


def read_brace(path: PathLike) -> SkewBrace:
    add, mult = read_brace_tables(path)
    return make_brace(add, mult)


def brace_text(brace: SkewBrace) -> str:
    return f"brace {brace.order}\n{_rows_text(brace.add.table)}\n\n{_rows_text(brace.mult.table)}\n"


def write_brace(path: PathLike, brace: SkewBrace) -> None:
    Path(path).write_text(brace_text(brace))


def read_algebra(path: PathLike) -> NilpotentAlgebra:
    lines = _lines(path)
    if not lines:
        raise FileFormatError(1, "empty file")
    head = lines[0].split()
    if head and head[0] == "cyclicring":
        if len(head) != 3:
            raise FileFormatError(1, "cyclicring header must be 'cyclicring <p> <r>'")
        p = _parse_int(head[1], 1, "prime")
        r = _parse_int(head[2], 1, "scale exponent")
        return cyclic_ring(p, r)
    tokens = _parse_header(lines, "algebra")
    if len(tokens) != 3:
        raise FileFormatError(1, "algebra header must be 'algebra <p> <dim>'")
    p = _parse_int(tokens[1], 1, "prime")
    dim = _parse_int(tokens[2], 1, "dimension")
    products: dict[tuple[int, int], list[int]] = {}
    for line_no in range(2, len(lines) + 1):
        raw = lines[line_no - 1].strip()
        if not raw:
            continue
        if "->" not in raw:
            raise FileFormatError(line_no, "product line must look like 'i j -> c0 c1 ...'")
        left, _, right = raw.partition("->")
        lt = left.split()
        if len(lt) != 2:
            raise FileFormatError(line_no, "expected two basis indices before '->'")
        i = _parse_int(lt[0], line_no, "basis index")
        j = _parse_int(lt[1], line_no, "basis index")
        coeffs = [_parse_int(t, line_no, "coefficient") for t in right.split()]
        if len(coeffs) != dim:
            raise FileFormatError(line_no, f"expected {dim} coefficients, got {len(coeffs)}")
        if (i, j) in products:
            raise FileFormatError(line_no, f"duplicate product line for ({i}, {j})")
        products[(i, j)] = coeffs
    return make_algebra(p, dim, products)


def algebra_text(algebra: NilpotentAlgebra) -> str:
    if algebra.kind == "cyclic":
        return f"cyclicring {algebra.p} {algebra.r}\n"
    out = [f"algebra {algebra.p} {algebra.dim}"]
    consts = algebra.consts
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            if consts[i, j].any():
                coeffs = " ".join(str(int(v)) for v in consts[i, j])
                out.append(f"{i} {j} -> {coeffs}")
    return "\n".join(out) + "\n"


def write_algebra(path: PathLike, algebra: NilpotentAlgebra) -> None:
    Path(path).write_text(algebra_text(algebra))

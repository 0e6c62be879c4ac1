"""Plain-text file formats for groups, braces, and algebras.

Three headers are understood:

    group <n>           followed by n rows of n indices
    brace <n>           additive table, one blank line, multiplicative table
    algebra <p> <dim>   lines "i j -> c0 c1 ... c_dim-1" for nonzero products
    cyclicring <p> <r>  a one-line description of the scaled-product ring

A table row is n entries, each an unsigned ASCII decimal integer of at
most 18 digits (leading zeros allowed), separated by spaces or tabs;
lines may end in LF or CRLF.  Tokens that Python's int() would also take,
such as "-1", "+1", "1_0" or non-ASCII digits, are rejected, and so is
any entry of 10^18 or more.  The order in a group or brace header is
checked against the supported cap before any row is read.

Parsing problems, bytes that are not valid text among them, raise
FileFormatError carrying the 1-based line number;
semantic problems (an order past the cap, a table that is not a group, a
pair violating the brace law) surface as the usual validation errors.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .algebras import NilpotentAlgebra, cyclic_ring, make_algebra
from .braces import SkewBrace, make_brace
from .errors import FileFormatError
from .groups import _BLOCK, FiniteGroup, _check_order, make_group

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

# 10^18 - 1 < 2^63, so every accepted entry fits int64
_MAX_DIGITS = 18
_TOKEN = re.compile(r"[^ \t]+")


def _lines(path: PathLike) -> list[str]:
    """The file's lines; bytes that are not valid text raise FileFormatError.

    ``read_text`` decodes the whole file in one call, so the error's offset
    is the offset of the first bad byte in the file.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(line, f"byte {exc.object[exc.start]:#04x} is not valid text") from None
    return text.splitlines()


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


def _row_error(row: str, line_no: int, n: int) -> FileFormatError:
    """The error for a row the kernel flagged, found from the row's own tokens."""
    tokens = _TOKEN.findall(row)
    if len(tokens) != n:
        return FileFormatError(line_no, f"expected {n} entries in table row, got {len(tokens)}")
    bad = next(
        t for t in tokens if not (t.isascii() and t.isdigit() and len(t) <= _MAX_DIGITS)
    )
    try:
        int(bad)
    except ValueError:
        return FileFormatError(line_no, f"table entry must be an integer, got {bad!r}")
    return FileFormatError(
        line_no,
        f"table entry must be an unsigned decimal integer of at most {_MAX_DIGITS} "
        f"digits, got {bad!r}",
    )


def _parse_rows(lines: list[str], start: int, n: int) -> np.ndarray:
    """The n-by-n table on lines start..start+n-1, decoded in one pass.

    The rows are joined into one ASCII buffer; tokens start where a digit
    follows a non-digit, each row's token count comes from where its line
    break falls among the token starts, and the values accumulate digit by
    digit over all tokens at once.  The first row with a wrong count, a
    byte outside the grammar or an over-long token is re-split to name
    the problem, so errors match a row-by-row reading.
    """
    rows = lines[start - 1 : start - 1 + n]
    text = "\n".join(rows + [""]).encode("ascii", "replace")
    buf = np.frombuffer(text, dtype=np.uint8)
    offset = np.int32 if len(buf) < 2**31 else np.intp
    digit = buf - np.uint8(ord("0"))  # a non-digit byte reads as 10 or more
    ok = buf == ord("\n")
    breaks = np.flatnonzero(ok).astype(offset)  # row r ends at breaks[r]
    ok |= digit < 10
    ok |= buf == ord(" ")
    ok |= buf == ord("\t")
    first_bad_byte = None if ok.all() else np.argmin(ok)
    del ok, buf, text  # freed as soon as done with, to keep the peak memory down
    edge = digit < 10
    edge[1:] &= digit[:-1] >= 10
    at = np.flatnonzero(edge).astype(offset)  # the token starts
    del edge
    counts = np.diff(np.searchsorted(at, breaks), prepend=0)

    values = np.zeros(len(at), dtype=np.int64)
    live = np.ones(len(at), dtype=bool)
    for step in range(_MAX_DIGITS + 1):
        d = digit[at]
        live &= d < 10
        if step == _MAX_DIGITS or not live.any():
            break  # tokens still live have more than _MAX_DIGITS digits
        np.multiply(values, 10, out=values, where=live)
        np.add(values, d, out=values, where=live)
        at += live  # a finished token stays on the non-digit after it

    bad_rows = counts != n
    if first_bad_byte is not None:
        bad_rows[np.searchsorted(breaks, first_bad_byte)] = True
    if live.any():
        bad_rows[np.searchsorted(breaks, at[np.argmax(live)])] = True
    if bad_rows.any():
        r = int(np.argmax(bad_rows))
        raise _row_error(rows[r], start + r, n)
    if len(rows) < n:
        raise FileFormatError(start + len(rows), f"expected {n} table rows, file ended early")
    return values.reshape(n, n)


def _parse_order(lines: list[str], kind: str) -> int:
    """The order n of a '<kind> <n>' header, checked against the cap."""
    tokens = _parse_header(lines, kind)
    if len(tokens) != 2:
        raise FileFormatError(1, f"{kind} header must be '{kind} <n>'")
    n = _parse_int(tokens[1], 1, f"{kind} order")
    if n < 1:
        raise FileFormatError(1, f"{kind} order must be positive, got {n}")
    _check_order(n)
    return n


def read_group(path: PathLike) -> FiniteGroup:
    lines = _lines(path)
    return make_group(_parse_rows(lines, 2, _parse_order(lines, "group")))


def _rows_bytes(table: np.ndarray) -> Iterator[bytes]:
    """A table's rows as ASCII text, each row ending in a newline, a block of rows at a time.

    Each value's name with the space after it is one fixed-width word of
    bytes, padded with zero bytes: 4 bytes while names have at most three
    digits, 8 from 1000 on.  Each block of rows gathers its words, the
    last column the words ending in a newline instead, and the zero bytes
    are dropped.
    """
    n = table.shape[0]
    top = int(table.max())
    width = 4 if top < 1000 else 8
    names = [str(v) for v in range(top + 1)]
    spaced, ended = (
        np.array([name + sep for name in names], dtype=f"S{width}").view(f"u{width}")
        for sep in " \n"
    )
    block = max(1, _BLOCK // n)
    for lo in range(0, n, block):
        rows = table[lo : lo + block]
        words = np.take(spaced, rows)
        words[:, -1] = np.take(ended, rows[:, -1])
        yield words.tobytes().translate(None, b"\0")


def _group_chunks(g: FiniteGroup) -> Iterator[bytes]:
    yield f"group {g.order}\n".encode()
    yield from _rows_bytes(g.table)


def group_text(g: FiniteGroup) -> str:
    return b"".join(_group_chunks(g)).decode("ascii")


def write_group(path: PathLike, g: FiniteGroup) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_group_chunks(g))


def read_brace_tables(path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Parse a brace file into its two raw tables without validating them.

    Format checks (header, row counts, the blank separator line) still
    apply; group and law validation are left to the caller.
    """
    lines = _lines(path)
    n = _parse_order(lines, "brace")
    add = _parse_rows(lines, 2, n)
    sep = 2 + n
    if sep > len(lines) or lines[sep - 1].strip():
        raise FileFormatError(sep, "expected a blank line between the two tables")
    mult = _parse_rows(lines, sep + 1, n)
    return add, mult


def read_brace(path: PathLike) -> SkewBrace:
    add, mult = read_brace_tables(path)
    return make_brace(add, mult)


def _brace_chunks(brace: SkewBrace) -> Iterator[bytes]:
    yield f"brace {brace.order}\n".encode()
    yield from _rows_bytes(brace.add.table)
    yield b"\n"
    yield from _rows_bytes(brace.mult.table)


def brace_text(brace: SkewBrace) -> str:
    return b"".join(_brace_chunks(brace)).decode("ascii")


def write_brace(path: PathLike, brace: SkewBrace) -> None:
    """Write the brace file; the text is made and written a block of rows at a time."""
    with open(path, "wb") as fh:
        fh.writelines(_brace_chunks(brace))


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

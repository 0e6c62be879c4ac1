"""Plain-text file formats for groups, braces, and algebras.

Three headers are understood:

    group <n>           followed by n rows of n indices
    brace <n>           additive table, one blank line, multiplicative table
    algebra <p> <dim>   lines "i j -> c0 c1 ... c_dim-1" for nonzero products
    cyclicring <p> <r>  a one-line description of the scaled-product ring

A table row is n entries, each an unsigned ASCII decimal integer of at
most 18 digits (leading zeros allowed), separated by spaces or tabs;
lines end where ``str.splitlines`` ends them, at LF, CRLF or CR among
others.  Tokens that Python's int() would also take, such as "-1", "+1",
"1_0" or non-ASCII digits, are rejected, and so is any entry of 10^18 or
more.  The order in a group or brace header is checked against the
supported cap before any row is read.

Tables are parsed from the file's bytes a block of rows at a time, in
buffers allocated once per table: the 729-element brace file (4 MB)
reads in about 19 ms on a 2-core x86-64 host, at a traced peak of
10 MiB.  They come back as int32 arrays, or int64 when an entry has more
than 9 digits, so the table gate sees its exact value.  Only a file that
is not pure ASCII, or that ends lines other than with LF, is decoded and
split as text first.

Parsing problems, bytes that are not valid text among them, raise
FileFormatError carrying the 1-based line number;
semantic problems (an order past the cap, a table that is not a group, a
pair violating the brace law) surface as the usual validation errors.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .algebras import NilpotentAlgebra, cyclic_ring, make_algebra
from .braces import SkewBrace, make_brace
from .errors import FileFormatError
from .groups import _BLOCK, MAX_ORDER, FiniteGroup, _check_order, make_group

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
# the line breaks of str.splitlines besides LF; a file with one, or with a
# byte past ASCII, is split as text before its tables are read
_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
# the last line a brace of the largest order uses; no line past it is read
_LAST_LINE = 2 * MAX_ORDER + 2


def _decode(data: bytes) -> str:
    """The file's text; bytes that are not valid text raise FileFormatError.

    The whole file is decoded in one call, so the error's offset is the
    offset of the first bad byte in the file.
    """
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(line, f"byte {data[exc.start]:#04x} is not valid text") from None


def _lines(path: PathLike) -> list[str]:
    """The file's lines, as ``str.splitlines`` splits its text."""
    return _decode(Path(path).read_bytes()).splitlines()


def _parse_header(lines: Sequence[str], expected: str) -> list[str]:
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


def _row_error(row: str, line_no: int, n: int) -> Optional[FileFormatError]:
    """The error for a table row, found from its own tokens; None for a good row."""
    tokens = _TOKEN.findall(row)
    if len(tokens) != n:
        return FileFormatError(line_no, f"expected {n} entries in table row, got {len(tokens)}")
    bad = next(
        (t for t in tokens if not (t.isascii() and t.isdigit() and len(t) <= _MAX_DIGITS)), None
    )
    if bad is None:
        return None
    try:
        int(bad)
    except ValueError:
        return FileFormatError(line_no, f"table entry must be an integer, got {bad!r}")
    return FileFormatError(
        line_no,
        f"table entry must be an unsigned decimal integer of at most {_MAX_DIGITS} "
        f"digits, got {bad!r}",
    )


class _Lines(Sequence[str]):
    """A file's lines as bytes, each ending in LF, and the table reader on them.

    An ASCII file whose only line break is LF is parsed as read; any other
    is split as ``_lines`` splits it and joined back with LF, so the lines
    are those of the text.  ``lines[i]`` is line i + 1 as a str; lines
    past _LAST_LINE are not looked for.
    """

    def __init__(self, path: PathLike) -> None:
        data = Path(path).read_bytes()
        if not data.isascii() or any(b in data for b in _BREAKS):
            data = "\n".join(_decode(data).splitlines() + [""]).encode()
        elif data and not data.endswith(b"\n"):
            data += b"\n"
        self.data, self.buf = data, np.frombuffer(data, dtype=np.uint8)
        ends, at = [], data.find(b"\n")
        while at >= 0 and len(ends) < _LAST_LINE:
            ends.append(at)
            at = data.find(b"\n", at + 1)
        self.ends = np.array(ends, dtype=np.intp)  # ends[i] is the LF ending line i + 1

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i: int) -> str:
        lo = self.ends[i - 1] + 1 if i else 0
        return self.data[lo : self.ends[i]].decode()

    def table(self, start: int, n: int) -> np.ndarray:
        """The n-by-n table on lines start..start+n-1 (start >= 2), a block of rows at a time.

        Each block of at most _BLOCK entries is a view of the bytes.  Tokens
        start and stop where the digit mask changes; a row's count is the
        tokens stopping by its LF.  ``value`` holds each byte's digit one
        place on, 0 for a non-digit, so the j-th digit from a token's end
        is at max(stop - j, start): the value loop runs over the widest
        token's digits only, in buffers allocated once per table.  The
        table is int32, or int64 once a token has more than 9 digits.  A
        block with a bad row, one with a wrong count, a byte outside
        [0-9 \\t\\n] or a token of more than _MAX_DIGITS digits, has its rows
        re-split by ``_row_error``, which names the first.
        """
        rows = max(0, min(n, len(self) - start + 1))
        ends = self.ends[start - 2 : start - 1 + rows]  # ends[r] ends the line before row r
        block = max(1, _BLOCK // n)
        firsts = range(0, rows, block)
        width = max((int(ends[min(lo + block, rows)] - ends[lo]) for lo in firsts), default=0)
        digit, value = np.zeros(width + 1, dtype=bool), np.zeros(width + 1, dtype=np.uint8)
        mask = np.empty(width, dtype=bool)
        size = min(block, rows) * n
        starts, stops, at = (np.empty(size, dtype=np.intp) for _ in range(3))
        digits, terms = np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.int32)
        table = np.empty((n, n), dtype=np.int32)
        for lo in firsts:
            hi = min(lo + block, rows)
            seg = self.buf[ends[lo] + 1 : ends[hi] + 1]
            k, t = len(seg), (hi - lo) * n
            v, d, m = value[1 : k + 1], digit[1 : k + 1], mask[:k]
            np.subtract(seg, ord("0"), out=v)
            np.less(v, 10, out=d)
            edges = np.flatnonzero(np.not_equal(d, digit[:k], out=m))
            row_ends = ends[lo + 1 : hi + 1] - ends[lo] - 1
            # bytes other than digits, spaces, tabs and the rows' LFs
            others = k - (hi - lo) - np.count_nonzero(d)
            others -= sum(np.count_nonzero(np.equal(seg, c, out=m)) for c in b" \t")
            done = np.searchsorted(edges, row_ends, side="right") // 2
            widest = _MAX_DIGITS + 1
            if others == 0 and (done == np.arange(n, t + 1, n)).all():
                s, e, a = starts[:t], stops[:t], at[:t]
                np.copyto(s, edges[0::2])
                np.copyto(e, edges[1::2])
                widest = int(np.subtract(e, s, out=a).max())
            if widest > _MAX_DIGITS:
                errors = (_row_error(self[r - 1], r, n) for r in range(start + lo, start + hi))
                raise next(e for e in errors if e is not None)
            if widest > 9 and table.dtype == np.int32:
                table, terms = table.astype(np.int64), terms.astype(np.int64)
            out, dg, tm = table.reshape(-1)[lo * n : hi * n], digits[:t], terms[:t]
            np.multiply(v, d, out=v)
            out[:] = np.take(value, e, out=dg, mode="clip")
            for j in range(1, widest):
                np.maximum(np.subtract(e, j, out=a), s, out=a)
                np.take(value, a, out=dg, mode="clip")
                out += np.multiply(dg, 10**j, out=tm, dtype=tm.dtype)
        if rows < n:
            raise FileFormatError(start + rows, f"expected {n} table rows, file ended early")
        return table


def _parse_order(lines: Sequence[str], kind: str) -> int:
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
    lines = _Lines(path)
    return make_group(lines.table(2, _parse_order(lines, "group")))


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
    lines = _Lines(path)
    n = _parse_order(lines, "brace")
    add = lines.table(2, n)
    sep = 2 + n
    if sep > len(lines) or lines[sep - 1].strip():
        raise FileFormatError(sep, "expected a blank line between the two tables")
    mult = lines.table(sep + 1, n)
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

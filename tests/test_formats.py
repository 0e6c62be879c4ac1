import re
import tracemalloc

import numpy as np
import pytest

from bracelab.algebras import catalog, cyclic_ring, power_ideal_dims, to_brace
from bracelab.braces import SkewBrace, make_brace
from bracelab.errors import (
    BraceAxiomFailure,
    BraceLabError,
    FileFormatError,
    InvalidTableError,
    NotAssociativeError,
)
from bracelab.formats import (
    brace_text,
    group_text,
    read_algebra,
    read_brace,
    read_brace_tables,
    read_group,
    write_algebra,
    write_brace,
    write_group,
)
from bracelab.groups import FiniteGroup, cyclic_group, make_group, symmetric_group
from oracles import read_tables_by_line, rows_text_by_row
from test_acceptance import (
    CATALOG_SWEEP,
    order36_factorization_brace,
    s3_factorization_brace,
)


def test_group_roundtrip(tmp_path):
    g = symmetric_group(3)
    path = tmp_path / "s3.grp"
    write_group(path, g)
    back = read_group(path)
    assert np.array_equal(back.table, g.table)


def test_group_header_errors(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("grp 2\n0 1\n1 0\n")
    with pytest.raises(FileFormatError) as exc:
        read_group(path)
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "reader, text, line, reason",
    [
        (read_group, "", 1, "empty file"),
        (read_algebra, "", 1, "empty file"),
        (read_group, "group 2 2\n0 1\n1 0\n", 1, "group header must be 'group <n>'"),
        (read_brace_tables, "brace\n", 1, "brace header must be 'brace <n>'"),
        (read_group, "group 0\n", 1, "group order must be positive, got 0"),
        (read_brace_tables, "brace -1\n", 1, "brace order must be positive, got -1"),
        (read_algebra, "cyclicring 3\n", 1, "cyclicring header must be 'cyclicring <p> <r>'"),
        (read_algebra, "algebra 3\n", 1, "algebra header must be 'algebra <p> <dim>'"),
        (read_algebra, "algebra 3 2\n0 -> 0 1\n", 2, "expected two basis indices before '->'"),
    ],
)
def test_header_and_product_line_errors(tmp_path, reader, text, line, reason):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FileFormatError) as exc:
        reader(path)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {reason}"


def test_group_short_row(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("group 2\n0 1\n1\n")
    with pytest.raises(FileFormatError) as exc:
        read_group(path)
    assert exc.value.line == 3


def test_group_non_integer(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("group 2\n0 x\n1 0\n")
    with pytest.raises(FileFormatError) as exc:
        read_group(path)
    assert exc.value.line == 2
    assert "table entry must be an integer, got 'x'" in str(exc.value)


def test_order_cap_is_checked_from_the_header(tmp_path):
    path = tmp_path / "big.grp"
    path.write_text("group 1025\n")
    with pytest.raises(InvalidTableError, match="1025"):
        read_group(path)
    path = tmp_path / "big.brc"
    path.write_text("brace 2000\n" + "0 " * 2000 + "\n")
    with pytest.raises(InvalidTableError, match="2000"):
        read_brace_tables(path)


@pytest.mark.parametrize("token", ["-1", "+1", "1_0", "\u0663", str(2**63), "0" * 19])
def test_entries_are_unsigned_ascii_decimals_of_at_most_18_digits(tmp_path, token):
    # int() takes each of these; the table grammar does not
    path = tmp_path / "bad.grp"
    path.write_text(f"group 2\n0 1\n{token} 0\n")
    with pytest.raises(FileFormatError) as exc:
        read_group(path)
    assert exc.value.line == 3
    assert str(exc.value).endswith(
        f"table entry must be an unsigned decimal integer of at most 18 digits, got {token!r}"
    )


def test_brace_roundtrip(tmp_path):
    star = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    circ = [[(i + j + 2 * i * j) % 4 for j in range(4)] for i in range(4)]
    b = make_brace(star, circ)
    path = tmp_path / "b.brc"
    write_brace(path, b)
    back = read_brace(path)
    assert np.array_equal(back.add.table, b.add.table)
    assert np.array_equal(back.mult.table, b.mult.table)


def test_brace_missing_separator(tmp_path):
    path = tmp_path / "bad.brc"
    rows = "\n".join(" ".join(str((i + j) % 2) for j in range(2)) for i in range(2))
    path.write_text(f"brace 2\n{rows}\n{rows}\n")
    with pytest.raises(FileFormatError) as exc:
        read_brace(path)
    assert exc.value.line == 4


def test_brace_semantic_errors_pass_through(tmp_path):
    # a valid pair of groups that violates the law -> BraceAxiomFailure
    path = tmp_path / "law.brc"
    path.write_text(
        "brace 4\n"
        "0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
        "\n"
        "0 1 2 3\n1 0 3 2\n2 3 1 0\n3 2 0 1\n"
    )
    with pytest.raises(BraceAxiomFailure):
        read_brace(path)
    # a non-associative second table -> NotAssociativeError from validation
    path2 = tmp_path / "loop.brc"
    c5 = "\n".join(" ".join(str((i + j) % 5) for j in range(5)) for i in range(5))
    loop = "0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3"
    path2.write_text(f"brace 5\n{c5}\n\n{loop}\n")
    with pytest.raises(NotAssociativeError):
        read_brace(path2)


def test_algebra_roundtrip(tmp_path):
    a = catalog("degraaf_A340", 3)
    path = tmp_path / "a.alg"
    write_algebra(path, a)
    back = read_algebra(path)
    assert back.p == 3 and back.dim == 3
    assert np.array_equal(back.consts, a.consts)
    assert power_ideal_dims(back) == [3, 1, 0]


def test_cyclic_ring_roundtrip(tmp_path):
    a = cyclic_ring(3, 2)
    path = tmp_path / "c.alg"
    write_algebra(path, a)
    back = read_algebra(path)
    assert back.kind == "cyclic"
    assert (back.p, back.r) == (3, 2)


def test_algebra_bad_product_line(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("algebra 3 2\n0 0 -> 0 1\n0 1 oops\n")
    with pytest.raises(FileFormatError) as exc:
        read_algebra(path)
    assert exc.value.line == 3


def test_algebra_wrong_coefficient_count(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("algebra 3 2\n0 0 -> 0 1 0\n")
    with pytest.raises(FileFormatError) as exc:
        read_algebra(path)
    assert exc.value.line == 2


def test_algebra_duplicate_product(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("algebra 3 2\n0 0 -> 0 1\n0 0 -> 1 0\n")
    with pytest.raises(FileFormatError) as exc:
        read_algebra(path)
    assert exc.value.line == 3


@pytest.fixture(scope="module")
def corpus_braces(sixdim_brace):
    """test_03's catalog braces, test_07's factorization braces and the 729-element brace."""
    braces = [to_brace(catalog(name, p, **kw)) for name, p, kw in CATALOG_SWEEP]
    return braces + [s3_factorization_brace(), order36_factorization_brace(), sixdim_brace]


def test_writer_matches_the_row_by_row_writer(tmp_path, corpus_braces):
    path = tmp_path / "out"
    for b in corpus_braces:
        expected = (
            f"brace {b.order}\n{rows_text_by_row(b.add.table)}\n\n"
            f"{rows_text_by_row(b.mult.table)}\n"
        )
        assert brace_text(b) == expected
        write_brace(path, b)
        assert path.read_bytes() == expected.encode()
    # the writer's words are 4 bytes up to the name 999 and 8 from 1000 on;
    # these orders sit on both sides of each digit count
    groups = [symmetric_group(k) for k in range(1, 7)]
    groups += [cyclic_group(n) for n in (1, 10, 11, 100, 101, 1000, 1001, 1024)]
    for g in groups:
        expected = f"group {g.order}\n{rows_text_by_row(g.table)}\n"
        assert group_text(g) == expected
        write_group(path, g)
        assert path.read_bytes() == expected.encode()


def _outcome(read, *args):
    """The tables a reader returns, or its error's type, line and message."""
    try:
        result = read(*args)
    except BraceLabError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)
    if isinstance(result, SkewBrace):
        return [result.add.table, result.mult.table]
    if isinstance(result, FiniteGroup):
        return [result.table]
    return list(result)


def _same(got, want):
    """Whether two outcomes agree: equal errors, or tables of equal entries whatever their dtype."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    return len(got) == len(want) and all(map(np.array_equal, got, want))


# each file kind's readers, with what each makes of the tables the oracle reads
_READERS = {
    "group": [(read_group, lambda tables: make_group(tables[0]))],
    "brace": [
        (read_brace_tables, lambda tables: tables),
        (read_brace, lambda tables: make_brace(*tables)),
    ],
}


def _assert_same_reading(path, kind):
    """Every reader of the kind reads path as the whole-file line-by-line oracle does.

    Returns the number of reads compared and the oracle's outcome.
    """
    tables = _outcome(read_tables_by_line, path, kind)
    for read, build in _READERS[kind]:
        want = tables if isinstance(tables, tuple) else _outcome(build, tables)
        assert _same(_outcome(read, path), want), (read.__name__, path.read_bytes()[:60])
    return len(_READERS[kind]), tables


def _body(rewrite):
    """A layout that rewrites a file's text after its header line."""
    def layout(text):
        header, body = text.split("\n", 1)
        return f"{header}\n{rewrite(body)}"
    return layout


# each rewrites a file's whole text
_LAYOUTS = {
    "as written": lambda text: text,
    "tabs": _body(lambda body: body.replace(" ", "\t")),
    "repeated spaces": _body(lambda body: body.replace(" ", "   ")),
    "leading and trailing spaces": _body(lambda body: re.sub(r"(?m)^(.*)$", r"  \1 ", body)),
    "leading zeros": _body(lambda body: re.sub(r"\d+", lambda m: m.group().zfill(3), body)),
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "bare CR": lambda text: text.replace("\n", "\r"),
    "VT": lambda text: text.replace("\n", "\x0b"),
    "FF": lambda text: text.replace("\n", "\x0c"),
    "no final newline": lambda text: text[:-1],
    "trailing lines": lambda text: text + "\n0 1 2\njunk \t\x1f\n\n",
    "trailing non-ASCII lines": lambda text: text + "\u00e9t\u00e9\n\u2028\n",
}


def test_reader_matches_the_line_by_line_reader(tmp_path, corpus_braces):
    path = tmp_path / "b.brc"
    reads = 0
    for b in corpus_braces:
        # the line-by-line reader is slow, so only tables up to order 125
        # are read in every layout
        names = _LAYOUTS if b.order <= 125 else ["as written", "CRLF"]
        for name in names:
            path.write_text(_LAYOUTS[name](brace_text(b)))
            count, tables = _assert_same_reading(path, "brace")
            reads += count
            assert _same(tables, [b.add.table, b.mult.table]), (b.order, name)
    for k in range(1, 7):
        for name in ["as written", "tabs", "CRLF", "no final newline"]:
            path.write_text(_LAYOUTS[name](group_text(symmetric_group(k))))
            reads += _assert_same_reading(path, "group")[0]
    assert reads >= 400


def _edited(text, edits):
    """text with lines replaced, None deleting one, and lines past the end appended, as bytes."""
    lines = text.encode().split(b"\n")[:-1]
    lines += [b""] * (max(edits, default=0) - len(lines))
    for k, new in edits.items():
        lines[k - 1] = new.encode() if isinstance(new, str) else new
    return b"".join(line + b"\n" for line in lines if line is not None)


def test_reader_errors_match_the_line_by_line_reader(tmp_path, corpus_braces):
    # s3_factorization_brace has order 6: header, rows on lines 2-7, blank
    # line 8, circle rows on lines 9-14
    text = brace_text(s3_factorization_brace())
    lines = text.splitlines()
    bad = lines[11].replace(" ", " x ", 1)

    def entry(token, line=3):
        return {line: lines[line - 1].replace("1", token, 1)}

    # line edits and the line the error names, None for none
    corpus = {
        "short row": ({3: "0 1 2 3 4"}, 3),
        "long row": ({10: lines[9] + " 0"}, 10),
        "missing row": ({14: None}, 14),
        "missing separator": ({8: None}, 8),
        "bad token": ({12: bad}, 12),
        "short row before a bad token": ({4: "0 1", 12: bad}, 4),
        "non-blank separator": ({8: "0"}, 8),
        "separator of blanks": ({8: " \t\x1f "}, None),
        "invalid UTF-8 in a row": ({5: b"0 1 \xff 3 4 5"}, 5),
        "invalid UTF-8 after the tables": ({16: b"junk \xc3("}, 16),
        "non-ASCII digit": (entry("\u0663"), 3),
        "line separator in a row": ({6: lines[5].replace(" ", "\u2028", 1)}, 6),
        "18-digit entry": (entry("0" * 17 + "1"), None),
        "entry of 10^17": (entry("1" + "0" * 17), None),
        "19-digit entry": (entry("0" * 18 + "1"), 3),
        "entry of 2^63": (entry(str(2**63)), 3),
        "entry of 2^64": (entry(str(2**64)), 3),
        "entry of 2^31": (entry(str(2**31), line=10), None),
        "entry of 2^31 - 1": (entry(str(2**31 - 1), line=10), None),
        "negative entry": (entry("-1"), 3),
        "signed entry": (entry("+1"), 3),
        "entry with an underscore": (entry("1_0"), 3),
        "NUL byte": ({4: lines[3] + "\x00"}, 4),
        "unit separator between entries": ({4: lines[3].replace(" ", "\x1f", 1)}, 4),
        "CR in a row": ({4: lines[3].replace(" ", "\r", 1)}, 4),
        "CR ending the header": ({1: lines[0] + "\r"}, None),
        "VT in the header": ({1: lines[0].replace(" ", "\x0b")}, 1),
        "unit separator in the header": ({1: lines[0].replace(" ", "\x1f")}, None),
        "trailing junk": ({15: "junk"}, None),
    }
    path = tmp_path / "bad.brc"
    reads = 0
    for name, (edits, line) in corpus.items():
        path.write_bytes(_edited(text, edits))
        count, tables = _assert_same_reading(path, "brace")
        reads += count
        got = tables[:2] if isinstance(tables, tuple) else ("tables", None)
        assert got == (("FileFormatError", line) if line else ("tables", None)), name
    files = {
        "empty": b"",
        "blank": b"\n",
        "no order": b"brace\n",
        "two orders": b"brace 6 6\n",
        "order not an integer": b"brace x\n",
        "order 0": b"brace 0\n",
        "negative order": b"brace -1\n",
        "wrong keyword": b"grace 6\n",
        "order past the cap": b"brace 1025\n",
        "order past the cap with a row": ("brace 2000\n" + "0 " * 2000 + "\n").encode(),
        "header only": b"brace 6\n",
        "ends inside row 5 without a newline": text[: sum(len(x) + 1 for x in lines[:4]) + 3].encode(),
        "short last row without a newline": _edited(text, {14: lines[13][:-2]})[:-1],
    }
    for data in files.values():
        path.write_bytes(data)
        reads += _assert_same_reading(path, "brace")[0]
    for data in [b"group 1025\n", b"group 2\n0 1\n1", b"group 2\n0 1\n1 0", b"group 1\n0",
                 "group 2\n0 1\n1 0\n\x85\n".encode(), b"group 2\n0 1\n\n1 0\n"]:
        path.write_bytes(data)
        reads += _assert_same_reading(path, "group")[0]
    # errors in later blocks of rows of a table of order 343, 95 rows to a
    # block, and in the last row of the 729-element one
    big = {b.order: brace_text(b) for b in corpus_braces if b.order in (343, 729)}
    lines = big[343].splitlines()
    for edits in [{200: "0 1"}, {344 + 150: lines[343 + 150].replace(" ", " 1x ", 1)},
                  {342: lines[341] + " " + "1" * 19}, {345: None}, {688: None},
                  {688: lines[687] + "\x00"}]:
        path.write_bytes(_edited(big[343], edits))
        reads += _assert_same_reading(path, "brace")[0]
    path.write_bytes(_edited(big[729], {1460: big[729].splitlines()[1459] + "\x00"}))
    reads += _assert_same_reading(path, "brace")[0]
    assert reads >= 100


def test_tables_are_int32_unless_an_entry_has_more_than_9_digits(tmp_path):
    path = tmp_path / "b.brc"
    path.write_text("brace 2\n0 1\n1 0\n\n0 1\n1 0\n")
    assert [t.dtype for t in read_brace_tables(path)] == [np.int32, np.int32]
    path.write_text("brace 2\n000000000 1\n1 0\n\n0 0000000001\n1 0\n")
    add, mult = read_brace_tables(path)
    assert (add.dtype, mult.dtype) == (np.int32, np.int64)
    assert add.tolist() == mult.tolist() == [[0, 1], [1, 0]]
    path.write_text(f"brace 2\n0 1\n1 0\n\n0 1\n{2**31} 0\n")
    assert read_brace_tables(path)[1].tolist() == [[0, 1], [2**31, 0]]
    with pytest.raises(InvalidTableError) as exc:
        read_brace(path)
    assert str(exc.value) == f"table entry {2**31} at (1, 0) is not in 0..1"


def test_reading_the_729_element_brace_traces_at_most_11_mib(tmp_path, sixdim_brace):
    path = tmp_path / "sixdim.brc"
    write_brace(path, sixdim_brace)
    tracemalloc.start()
    try:
        add, mult = read_brace_tables(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(add, sixdim_brace.add.table)
    assert np.array_equal(mult, sixdim_brace.mult.table)
    assert peak <= 11 * 2**20

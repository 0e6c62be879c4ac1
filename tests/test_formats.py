import re

import numpy as np
import pytest

from bracelab import formats
from bracelab.algebras import catalog, cyclic_ring, power_ideal_dims, to_brace
from bracelab.braces import make_brace
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
from bracelab.groups import cyclic_group, symmetric_group
from oracles import parse_rows_by_line, rows_text_by_row
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


def _read_outcome(read, path):
    """The tables read as lists, or the error's type, line and message."""
    try:
        return [table.tolist() for table in read(path)]
    except BraceLabError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)


def _assert_same_reading(read, path, monkeypatch):
    """Read path as it is and with the line-by-line row parser; both must agree."""
    got = _read_outcome(read, path)
    with monkeypatch.context() as m:
        m.setattr(formats, "_parse_rows", parse_rows_by_line)
        assert got == _read_outcome(read, path)
    return got


# each rewrites the text after the header line
_LAYOUTS = {
    "tabs": lambda body: body.replace(" ", "\t"),
    "repeated spaces": lambda body: body.replace(" ", "   "),
    "leading and trailing spaces": lambda body: re.sub(r"(?m)^(.*)$", r"  \1 ", body),
    "leading zeros": lambda body: re.sub(r"\d+", lambda m: m.group().zfill(3), body),
}


def test_reader_matches_the_line_by_line_reader(tmp_path, monkeypatch, corpus_braces):
    path = tmp_path / "b.brc"
    for b in corpus_braces:
        header, body = brace_text(b).split("\n", 1)
        # the line-by-line reader is slow, so only tables up to order 125
        # are read in every layout
        layouts = _LAYOUTS.values() if b.order <= 125 else []
        for layout in [lambda body: body, *layouts]:
            path.write_text(f"{header}\n{layout(body)}")
            add, mult = _assert_same_reading(read_brace_tables, path, monkeypatch)
            assert np.array_equal(add, b.add.table) and np.array_equal(mult, b.mult.table)
        path.write_bytes(brace_text(b).replace("\n", "\r\n").encode())
        _assert_same_reading(read_brace_tables, path, monkeypatch)
    for k in range(1, 7):
        write_group(path, symmetric_group(k))
        _assert_same_reading(lambda p: (read_group(p).table,), path, monkeypatch)


def test_reader_errors_match_the_line_by_line_reader(tmp_path, monkeypatch):
    # s3_factorization_brace has order 6: header, rows on lines 2-7, blank
    # line 8, circle rows on lines 9-14
    lines = brace_text(s3_factorization_brace()).splitlines()
    bad = lines[11].replace(" ", " x ", 1)
    # line edits, None deleting the line, and the line the error names
    corpus = {
        "short row": ({3: "0 1 2 3 4"}, 3),
        "long row": ({10: lines[9] + " 0"}, 10),
        "missing row": ({14: None}, 14),
        "missing separator": ({8: None}, 8),
        "bad token": ({12: bad}, 12),
        "short row before a bad token": ({4: "0 1", 12: bad}, 4),
    }
    path = tmp_path / "bad.brc"
    for name, (edits, line) in corpus.items():
        text = [edits.get(k, v) for k, v in enumerate(lines, 1)]
        path.write_text("\n".join(t for t in text if t is not None) + "\n")
        kind, got_line, _ = _assert_same_reading(read_brace_tables, path, monkeypatch)
        assert (kind, got_line) == ("FileFormatError", line), name

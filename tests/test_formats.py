import numpy as np
import pytest

from bracelab.algebras import catalog, cyclic_ring, power_ideal_dims
from bracelab.braces import make_brace
from bracelab.errors import BraceAxiomFailure, FileFormatError, NotAssociativeError
from bracelab.formats import (
    read_algebra,
    read_brace,
    read_group,
    write_algebra,
    write_brace,
    write_group,
)
from bracelab.groups import symmetric_group


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

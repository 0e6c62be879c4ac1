"""End-to-end exercises of the command line, via main(argv)."""
import argparse

import pytest

from bracelab.braces import validate_direct
from bracelab.cli import build_parser, main
from bracelab.formats import write_algebra, write_brace, write_group
from bracelab.algebras import catalog, to_brace
from bracelab.errors import (
    BraceLabError,
    IdentityMismatch,
    NotBijectiveRowError,
    SearchLimitExceeded,
)
from bracelab.groups import abelian_group, automorphism_group, cyclic_group, symmetric_group
from bracelab.perms import all_perms, parse_cycles


def kv(capsys) -> dict[str, str]:
    out = capsys.readouterr().out
    pairs = [line.split("=", 1) for line in out.splitlines() if line]
    return dict(pairs)


def test_demo_s4_sides_and_verdicts(capsys):
    assert main(["demo", "s4", "--format", "kv"]) == 0
    got = kv(capsys)
    assert got["forward_valid"] == "true"
    assert got["swapped_valid"] == "false"
    assert got["left_side"] == "(132)"
    assert got["right_side"] == "(134)"
    assert got["swapped_failures"] == "5376"


def test_demo_ratio_automorphism_numbers(capsys):
    assert main(["demo", "ratio", "--format", "kv"]) == 0
    got = kv(capsys)
    assert got["aut_add"] == "11232"
    assert got["aut_mult"] == "432"
    assert got["aut_brace"] == "36"
    assert got["ratio"] == "26"
    assert got["count_forward"] == "12"


def test_demo_heisenberg_recognizes_circle(capsys):
    assert main(["demo", "heisenberg", "--format", "kv"]) == 0
    got = kv(capsys)
    assert got["circle"] == "M(3)"
    assert got["biskew"] == "true"
    assert got["two_sided"] == "true"
    assert got["direct_check"] == got["holomorph_check"] == "true"


def test_demo_exponent_boundary(capsys):
    assert main(["demo", "exponent", "--format", "kv"]) == 0
    got = kv(capsys)
    assert got["boundary_add_exponent"] == "2"
    assert got["boundary_circle_exponent"] == "4"
    assert got["safe_orders_agree"] == "true"


def test_demo_sixdim(capsys):
    assert main(["demo", "sixdim", "--format", "kv"]) == 0
    # a^2 = x0 x1 e3 + x1 x2 e4 + x2 x0 e5 vanishes when at most one of
    # x0, x1, x2 is nonzero: 7 choices, times 27 for x3, x4, x5
    assert kv(capsys) == {
        "order": "729",
        "power_ideal_dims": "6 3 0",
        "cubes_vanish": "true",
        "biskew": "true",
        "square_agreement": str(7 * 27),
    }


def test_construct_trivial_then_validate(tmp_path, capsys):
    grp = tmp_path / "s3.grp"
    brc = tmp_path / "triv.brc"
    write_group(grp, symmetric_group(3))
    assert main(["construct", "trivial", "--group", str(grp), "--out", str(brc)]) == 0
    capsys.readouterr()
    assert main(["validate", "--brace", str(brc)]) == 0
    assert main(["validate", "--brace", str(brc), "--swap"]) == 0


def test_construct_stdout_roundtrips(tmp_path, capsys):
    grp = tmp_path / "c6.grp"
    write_group(grp, cyclic_group(6))
    assert main(["construct", "opposite", "--group", str(grp)]) == 0
    text = capsys.readouterr().out
    echo = tmp_path / "echo.brc"
    echo.write_text(text)
    assert main(["validate", "--brace", str(echo)]) == 0


def test_validate_swapped_failure_exits_1(tmp_path, capsys):
    brc = tmp_path / "cyc1.brc"
    assert main(
        ["construct", "catalog", "--name", "cyclic", "--p", "3", "--r", "1",
         "--out", str(brc)]
    ) == 0
    capsys.readouterr()
    assert main(["validate", "--brace", str(brc)]) == 0
    capsys.readouterr()
    assert main(["validate", "--brace", str(brc), "--swap", "--format", "kv"]) == 1
    got = kv(capsys)
    assert got["valid"] == "false"
    assert {"witness_a", "witness_b", "witness_c"} <= got.keys()

    assert main(["reciprocity", "--brace", str(brc), "--format", "kv"]) == 1
    reciprocity = kv(capsys)
    assert reciprocity.pop("biskew") == "false"
    del got["orientation"], got["valid"]
    assert reciprocity == got
    assert got == {
        "witness_a": "1", "witness_b": "1", "witness_c": "1",
        "left_side": "6", "right_side": "24",
    }
    assert list(got) == ["witness_a", "witness_b", "witness_c", "left_side", "right_side"]


@pytest.mark.parametrize(
    "text, reason",
    [
        # row 1 of the additive table repeats 1
        ("brace 2\n0 1\n1 1\n\n0 1\n1 0\n", str(NotBijectiveRowError(1, "row"))),
        # C2 with identity 0, then with identity 1
        ("brace 2\n0 1\n1 0\n\n1 0\n0 1\n", str(IdentityMismatch(0, 1))),
    ],
)
def test_validate_reports_tables_that_are_not_a_brace_carrier(tmp_path, capsys, text, reason):
    bad = tmp_path / "bad.brc"
    bad.write_text(text)
    assert main(["validate", "--brace", str(bad), "--format", "kv"]) == 1
    assert kv(capsys) == {"orientation": "forward", "valid": "false", "reason": reason}


def test_count_trivial_brace(tmp_path, capsys):
    grp = tmp_path / "s3.grp"
    brc = tmp_path / "triv.brc"
    write_group(grp, symmetric_group(3))
    main(["construct", "trivial", "--group", str(grp), "--out", str(brc)])
    capsys.readouterr()
    assert main(["count", "--brace", str(brc), "--format", "kv"]) == 0
    got = kv(capsys)
    assert got["galois_group"] == "S3"
    assert got["count"] == "1"


def test_enumerate_default_cap_covers_c2_cubed(tmp_path, capsys):
    grp = tmp_path / "c2cubed.grp"
    write_group(grp, abelian_group([2, 2, 2]))
    assert main(["enumerate", "--group", str(grp), "--format", "kv"]) == 0
    assert kv(capsys)["raw"] == "232"


def test_enumerate_klein(tmp_path, capsys):
    grp = tmp_path / "klein.grp"
    write_group(grp, abelian_group([2, 2]))
    outdir = tmp_path / "census"
    assert main(
        ["enumerate", "--group", str(grp), "--format", "kv", "--out", str(outdir)]
    ) == 0
    got = kv(capsys)
    assert got["raw"] == "4"
    assert got["classes"] == "2"
    assert got["class_1_circle"] == "C2 x C2"
    assert got["class_2_circle"] == "C4"
    assert got["class_2_size"] == "3"
    # every representative written out must validate
    files = sorted(outdir.iterdir())
    assert len(files) == 2
    for f in files:
        assert main(["validate", "--brace", str(f)]) == 0


def test_factorization_cycle_notation(tmp_path, capsys):
    brc = tmp_path / "fact.brc"
    assert main(
        ["construct", "factorization", "--sym", "3",
         "--left-gens", "(123)", "--right-gens", "(12)",
         "--out", str(brc), "--format", "kv"]
    ) == 0
    got = kv(capsys)
    assert got["circle"] == "C6"
    assert got["biskew"] == "true"
    assert main(["validate", "--brace", str(brc)]) == 0


def test_factorization_from_a_group_file(tmp_path, capsys):
    grp = tmp_path / "s3.grp"
    write_group(grp, symmetric_group(3))
    rot = all_perms(3).index(parse_cycles("(123)", 3))
    flip = all_perms(3).index(parse_cycles("(12)", 3))
    brc = tmp_path / "fact.brc"
    args = ["construct", "factorization", "--group", str(grp), "--out", str(brc), "--format", "kv"]
    assert main(args + ["--left", str(rot), "--right", str(flip)]) == 0
    got = kv(capsys)
    assert (got["left"], got["right"], got["circle"], got["biskew"]) == ("C3", "C2", "C6", "true")
    assert main(["validate", "--brace", str(brc)]) == 0
    capsys.readouterr()
    assert main(args + ["--left", f"{rot},x", "--right", str(flip)]) == 2
    assert capsys.readouterr().err == f"error: not an index list: '{rot},x'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sym", "3", "--left-gens", "(123)"], "--sym needs both --left-gens and --right-gens"),
        (["--left", "0", "--right", "0"],
         "factorization needs --group, --left and --right (or --sym form)"),
    ],
)
def test_factorization_without_its_factors_exits_2(capsys, argv, message):
    assert main(["construct", "factorization"] + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sym", "3", "--left-gens", "(1 4)", "--right-gens", "(123)"],
         "bad cycles '(1 4)': point 4 outside 1..3"),
        (["--sym", "3", "--left-gens", "(12)(13)", "--right-gens", "(123)"],
         "bad cycles '(12)(13)': repeated point; the cycles must be disjoint"),
        (["--group", "s3.grp", "--left", "99", "--right", "1"],
         "element 99 is not in 0..5"),
        (["--group", "s3.grp", "--left", "-1", "--right", "1"],
         "element -1 is not in 0..5"),
        (["--sym", "-1", "--left-gens", "()", "--right-gens", "()"],
         "symmetric group degree must be positive, got -1"),
        (["--sym", "0", "--left-gens", "()", "--right-gens", "()"],
         "symmetric group degree must be positive, got 0"),
    ],
)
def test_factorization_with_bad_factors_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    write_group("s3.grp", symmetric_group(3))
    assert main(["construct", "factorization"] + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_factorization_past_the_cap_exits_2_before_building(monkeypatch, capsys):
    def refuse(table):
        raise AssertionError(f"built a {len(table)}-element table")

    monkeypatch.setattr("bracelab.groups.make_group", refuse)
    assert main(
        ["construct", "factorization", "--sym", "7",
         "--left-gens", "(123)", "--right-gens", "(1234)"]
    ) == 2
    assert "exceeds the supported cap" in capsys.readouterr().err


def test_reciprocity_checks_the_swapped_law_once(tmp_path, capsys, monkeypatch):
    brc = tmp_path / "degraaf.brc"
    write_brace(brc, to_brace(catalog("degraaf_A340", 3)))
    calls = []

    def counted(add, mult):
        calls.append((add, mult))
        return validate_direct(add, mult)

    monkeypatch.setattr("bracelab.braces.validate_direct", counted)
    monkeypatch.setattr("bracelab.cli.validate_direct", counted)
    assert main(["reciprocity", "--brace", str(brc), "--format", "kv"]) == 0
    assert kv(capsys)["balanced"] == "true"
    # one forward check when the file is read, one swapped check
    assert len(calls) == 2


def test_construct_radical_from_file(tmp_path, capsys):
    alg = tmp_path / "heis.alg"
    brc = tmp_path / "heis.brc"
    write_algebra(alg, catalog("degraaf_A340", 3))
    assert main(
        ["construct", "radical", "--algebra", str(alg), "--out", str(brc),
         "--format", "kv"]
    ) == 0
    got = kv(capsys)
    assert got["biskew"] == "true"
    assert main(["validate", "--brace", str(brc)]) == 0


def test_construct_radical_reduces_a_coefficient_past_int64(tmp_path, capsys):
    alg = tmp_path / "big.alg"
    alg.write_text("algebra 3 2\n0 0 -> 0 100000000000000000000000000000\n")
    brc = tmp_path / "big.brc"
    assert main(
        ["construct", "radical", "--algebra", str(alg), "--out", str(brc), "--format", "kv"]
    ) == 0
    assert kv(capsys)["order"] == "9"


def test_aut_command(tmp_path, capsys):
    grp = tmp_path / "c8.grp"
    write_group(grp, abelian_group([2, 2, 2]))
    assert main(["aut", "--group", str(grp), "--format", "kv"]) == 0
    got = kv(capsys)
    assert got["group"] == "C2 x C2 x C2"
    assert got["aut_order"] == "168"


def test_usage_and_input_errors_exit_2(tmp_path, capsys):
    assert main(["nonsense"]) == 2
    assert main(["validate"]) == 2
    bad = tmp_path / "bad.brc"
    bad.write_text("brace x\n")
    assert main(["validate", "--brace", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    # an entry past int64 is a format error, not an overflow
    bad.write_text(f"brace 1\n{2**63}\n\n0\n")
    assert main(["validate", "--brace", str(bad)]) == 2
    assert "line 2: table entry must be an unsigned decimal integer" in capsys.readouterr().err
    # bytes that are not text are a format error on their line, not a decode error
    grp = tmp_path / "bad.grp"
    grp.write_bytes(b"group 1\n\xff\n")
    assert main(["aut", "--group", str(grp)]) == 2
    assert "line 2: byte 0xff is not valid text" in capsys.readouterr().err
    assert main(["construct", "catalog", "--name", "cyclic", "--p", "3",
                 "--r", "0"]) == 2
    assert main(["count", "--brace", str(tmp_path / "missing.brc")]) == 2


def test_running_out_of_memory_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch):
    grp = tmp_path / "c2222.grp"
    write_group(grp, abelian_group([2, 2, 2, 2]))

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 61.4 MiB for an array with shape (62896, 16, 16)")

    monkeypatch.setattr("bracelab.cli.enumerate_braces", exhausted)
    assert main(["enumerate", "--group", str(grp), "--cap", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory: Unable to allocate 61.4 MiB for an array with shape (62896, 16, 16)\n"
    )


def test_malformed_budget_variable_is_an_input_error(tmp_path, capsys, monkeypatch):
    grp = tmp_path / "c4.grp"
    write_group(grp, cyclic_group(4))
    for bad in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("BRACELAB_BUDGET", bad)
        assert main(["aut", "--group", str(grp)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "BRACELAB_BUDGET" in err and repr(bad) in err
    monkeypatch.setenv("BRACELAB_BUDGET", "100")
    assert main(["aut", "--group", str(grp), "--format", "kv"]) == 0
    assert kv(capsys)["aut_order"] == "2"


def test_non_positive_budget_is_an_input_error(tmp_path, capsys):
    for bad in (0, -3):
        with pytest.raises(BraceLabError, match=f"must be a positive integer, got {bad}$") as exc:
            automorphism_group(cyclic_group(5), budget=bad)
        assert not isinstance(exc.value, SearchLimitExceeded)
    grp = tmp_path / "k4.grp"
    write_group(grp, abelian_group([2, 2]))
    assert main(["aut", "--group", str(grp), "--budget", "-3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: the budget= argument or --budget must be a positive integer, got -3\n"


def _subcommand_paths(parser, path=()):
    """The top level, then every subcommand and construct target below it."""
    yield list(path)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommand_paths(sub, path + (name,))


def test_main_parses_as_the_full_parser_tree(capsys):
    # main builds the parser of the subcommand it is given; whatever it
    # prints while parsing must be what the full tree prints
    def full(argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            return (exc.code or 0, *capsys.readouterr())
        return None  # a complete command, which main would run

    paths = list(_subcommand_paths(build_parser()))
    assert len(paths) == 1 + 7 + 5
    # a complete command with one argument too many fails in the top-level parser
    cases = [["no-such-command"], ["demo", "s4", "--no-such-option"],
             ["count", "--brace", "b.brc", "extra"],
             ["construct", "trivial", "--group", "g.grp", "extra"]]
    for path in paths:
        cases += [path + ["--help"], path, path + ["--no-such-option"]]
    compared = 0
    for argv in cases:
        expected = full(argv)
        if expected is None:
            continue
        assert (main(argv), *capsys.readouterr()) == expected, argv
        compared += 1
    # only `construct factorization`, whose arguments are all optional, parses
    assert compared == len(cases) - 1

"""Bad caller input is named: never truncated, wrapped, or a bare IndexError or TypeError.

Every index a caller hands the library passes one gate: table entries,
subgroup members, images, permutation points, actions, structure-constant
keys and ring coordinates.  Every size or limit, a group order or degree,
a ring prime, dimension or scale, a permutation degree, a budget or a
census cap, is read by one rule: an integer as the gate reads one entry,
of at least 1, or of at least 0 for a permutation degree, the ring scale
or the cap.  Each case below gives a bad input to one caller of the gate
or of that rule, and pins the whole message.  Members and images at -1
and n, and the wrong lengths of tables, images, permutations, structure
constants and ring elements, are pinned beside their callers' other
tests, so they are not repeated here.
"""
import numpy as np
import pytest

from bracelab.algebras import catalog, cyclic_ring, make_algebra, quasi_inverse
from bracelab.braces import make_brace, prepare_brace_groups
from bracelab.census import enumerate_braces
from bracelab.cli import main
from bracelab.errors import BraceLabError, InvalidTableError, NotSubgroup, SearchLimitExceeded
from bracelab.factorizations import validate_factorization
from bracelab.formats import write_group
from bracelab.groups import (
    GroupHom,
    abelian_group,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    is_normal,
    m3_group,
    make_group,
    semidirect_product,
    subgroup_closure,
    subgroup_group,
    symmetric_group,
)
from bracelab.perms import PermutationGroup, compose, parse_cycles

NAN = float("nan")
C2, C3, C6 = cyclic_group(2), cyclic_group(3), cyclic_group(6)


def case(call, error, message, name=None):
    return pytest.param(call, error, message, id=name or message)


CASES = [
    # tables
    case(lambda: make_group([["0", "1"], ["1", "0"]]), InvalidTableError,
         "table entry '0' at (0, 0) is not an integer"),
    case(lambda: make_group([[0, 1], [1, -1]]), InvalidTableError,
         "table entry -1 at (1, 1) is not in 0..1"),
    case(lambda: make_group([[0, 2], [2, 0]]), InvalidTableError,
         "table entry 2 at (0, 1) is not in 0..1"),
    case(lambda: make_group([[False, True], [True, False]]), InvalidTableError,
         "table entry False at (0, 0) is not an integer"),
    case(lambda: make_brace([[0, 1], [1, 0]], [["0", "1"], ["1", "0"]]), InvalidTableError,
         "table entry '0' at (0, 0) is not an integer", "make_brace: a circle table of strings"),
    # subgroup members
    case(lambda: subgroup_closure(C6, [1.5]), InvalidTableError,
         "element 1.5 is not an integer"),
    case(lambda: subgroup_group(C6, [0, NAN]), InvalidTableError,
         "element nan is not an integer"),
    case(lambda: is_normal(C6, [0, "3"]), InvalidTableError,
         "element '3' is not an integer"),
    # homomorphism images
    case(lambda: GroupHom(C2, C2, (0, 1.5)), InvalidTableError,
         "image 1.5 of element 1 is not an integer"),
    case(lambda: GroupHom(C2, C2, (0, "1")), InvalidTableError,
         "image '1' of element 1 is not an integer"),
    case(lambda: GroupHom(C2, C2, (0, NAN)), InvalidTableError,
         "image nan of element 1 is not an integer"),
    # semidirect-product actions
    case(lambda: semidirect_product(C3, C2, [[0, 1, 2], [0, 2, 1.5]]), InvalidTableError,
         "action entry 1.5 at (1, 2) is not an integer"),
    case(lambda: semidirect_product(C3, C2, [[0, 1, 2], [0, 2, NAN]]), InvalidTableError,
         "action entry nan at (1, 2) is not an integer"),
    case(lambda: semidirect_product(C3, C2, [[0, 1, 2], [0, 2, "1"]]), InvalidTableError,
         "action entry '1' at (1, 2) is not an integer"),
    case(lambda: semidirect_product(C3, C2, [[0, 1, 2], [0, 2, -1]]), InvalidTableError,
         "action entry -1 at (1, 2) is not in 0..2"),
    case(lambda: semidirect_product(C3, C2, [[0, 1, 2], [0, 2, 3]]), InvalidTableError,
         "action entry 3 at (1, 2) is not in 0..2"),
    # factors of an exact factorization
    case(lambda: validate_factorization(C6, [0, 3.5], [0, 2, 4]), NotSubgroup,
         "left factor is not a subgroup (element 3.5 is not an integer)"),
    case(lambda: validate_factorization(C6, [0, 3], [0, 2, NAN]), NotSubgroup,
         "right factor is not a subgroup (element nan is not an integer)"),
    case(lambda: validate_factorization(C6, [0, "3"], [0, 2, 4]), NotSubgroup,
         "left factor is not a subgroup (element '3' is not an integer)"),
    # permutation points
    case(lambda: PermutationGroup(3, [(0, 1, 2), (1, 2, 0.5)]), InvalidTableError,
         "point 0.5 at (1, 2) is not an integer"),
    case(lambda: PermutationGroup(3, [(0, 1, 2), (1, 2, NAN)]), InvalidTableError,
         "point nan at (1, 2) is not an integer"),
    case(lambda: PermutationGroup(3, [(0, 1, 2), (1, 2, "0")]), InvalidTableError,
         "point '0' at (1, 2) is not an integer"),
    case(lambda: PermutationGroup(3, [(0, 1, 2), (1, 2, -1)]), InvalidTableError,
         "point -1 at (1, 2) is not in 0..2"),
    case(lambda: PermutationGroup(3, [(0, 1, 2), (1, 2, 3)]), InvalidTableError,
         "point 3 at (1, 2) is not in 0..2"),
    case(lambda: PermutationGroup.from_generators(3, [(1, 2.5, 0)]), InvalidTableError,
         "point 2.5 at (0, 1) is not an integer"),
    # structure constants and ring coordinates
    case(lambda: make_algebra(3, 2, {(1.5, 0): [0, 0]}), InvalidTableError,
         "structure constant index 1.5 at (0, 0) is not an integer"),
    case(lambda: make_algebra(3, 2, {(0, 0): [0, 0], (1, -1): [0, 0]}), InvalidTableError,
         "structure constant index -1 at (1, 1) is not in 0..1"),
    case(lambda: make_algebra(3, 2, {(1, 0): [0.5, 0]}), InvalidTableError,
         "coordinate 0.5 at 0 is not an integer"),
    case(lambda: make_algebra(3, 2, {(1, 0): [0, NAN]}), InvalidTableError,
         "coordinate nan at 1 is not an integer"),
    case(lambda: make_algebra(3, 2, {(1, 0): ["1", 0]}), InvalidTableError,
         "coordinate '1' at 0 is not an integer"),
    case(lambda: quasi_inverse(cyclic_ring(3, 2), 1.5), InvalidTableError,
         "coordinate 1.5 at 0 is not an integer"),
    case(lambda: quasi_inverse(cyclic_ring(3, 2), NAN), InvalidTableError,
         "coordinate nan at 0 is not an integer"),
    case(lambda: quasi_inverse(cyclic_ring(3, 2), "1"), InvalidTableError,
         "coordinate '1' at 0 is not an integer", "quasi_inverse: coordinate '1'"),
    case(lambda: catalog("degraaf_A340", 3).add([0, 1.5, 0], [0, 0, 0]), InvalidTableError,
         "coordinate 1.5 at 1 is not an integer"),
    case(lambda: catalog("degraaf_A340", 3).encode([0, 0, 0.5]), InvalidTableError,
         "coordinate 0.5 at 2 is not an integer"),
    # ring element indices
    case(lambda: catalog("degraaf_A340", 3).decode(1.5), InvalidTableError,
         "element index 1.5 is not an integer"),
    case(lambda: catalog("degraaf_A340", 3).decode("3"), InvalidTableError,
         "element index '3' is not an integer"),
    case(lambda: catalog("degraaf_A340", 3).decode(-1), InvalidTableError,
         "element index -1 is not in 0..26"),
    case(lambda: catalog("degraaf_A340", 3).decode(27), InvalidTableError,
         "element index 27 is not in 0..26"),
    case(lambda: make_algebra(65537, 2, {}).decode(65537**2), InvalidTableError,
         "element index 4295098369 is not in 0..4295098368"),
    # search limits
    case(lambda: automorphism_group(C3, budget="10"), BraceLabError,
         "the budget= argument or --budget must be a positive integer, got '10'"),
    case(lambda: automorphism_group(C3, budget=True), BraceLabError,
         "the budget= argument or --budget must be a positive integer, got True"),
    case(lambda: automorphism_group(C3, budget=2.5), BraceLabError,
         "the budget= argument or --budget must be a positive integer, got 2.5"),
    case(lambda: enumerate_braces(C3, cap=-1), BraceLabError,
         "the result cap must be a non-negative integer, got -1"),
    case(lambda: enumerate_braces(C3, cap=1.5), BraceLabError,
         "the result cap must be a non-negative integer, got 1.5"),
    # constructor parameters
    case(lambda: abelian_group([2.5]), InvalidTableError,
         "cyclic factor 2.5 is not an integer"),
    case(lambda: abelian_group(["2"]), InvalidTableError,
         "cyclic factor '2' is not an integer"),
    case(lambda: compose((0, 1), (0, 1, 2)), ValueError,
         "cannot compose permutations of lengths 2 and 3"),
    case(lambda: compose((0, 1, 2), (1, 0)), ValueError,
         "cannot compose permutations of lengths 3 and 2"),
    # sizes, degrees and primes: each an integer, as the index gate reads one
    case(lambda: cyclic_group(2.5), InvalidTableError,
         "cyclic group order must be a positive integer, got 2.5"),
    case(lambda: heisenberg_group("3"), InvalidTableError,
         "Heisenberg group modulus must be a positive integer, got '3'"),
    case(lambda: dihedral_group(True), InvalidTableError,
         "dihedral parameter must be a positive integer, got True"),
    case(lambda: symmetric_group(True), InvalidTableError,
         "symmetric group degree must be a positive integer, got True"),
    case(lambda: m3_group(3.5), InvalidTableError,
         "exponent-p^2 group prime must be a positive integer, got 3.5"),
    case(lambda: make_algebra(3, 2.5, {}), InvalidTableError,
         "algebra dimension must be a positive integer, got 2.5"),
    case(lambda: make_algebra("3", 2, {}), InvalidTableError,
         "algebra prime must be a positive integer, got '3'"),
    case(lambda: cyclic_ring(3, 1.5), InvalidTableError,
         "product scale exponent must be a non-negative integer, got 1.5"),
    case(lambda: cyclic_ring(3.5, 1), InvalidTableError,
         "cyclic ring prime must be a positive integer, got 3.5"),
    case(lambda: catalog("truncated_poly", 3, m=2.5), InvalidTableError,
         "truncated_poly degree m must be a positive integer, got 2.5"),
    case(lambda: PermutationGroup(2.5, [(0, 1)]), InvalidTableError,
         "permutation degree must be a non-negative integer, got 2.5"),
    case(lambda: PermutationGroup.from_generators("2", [(1, 0)]), InvalidTableError,
         "permutation degree must be a non-negative integer, got '2'"),
    case(lambda: parse_cycles("(12)", 2.5), InvalidTableError,
         "permutation degree must be a non-negative integer, got 2.5",
         "parse_cycles: permutation degree 2.5"),
] + [
    case(lambda p=p: m3_group(p), InvalidTableError,
         "the exponent-p^2 construction needs an odd prime", f"m3_group({p})")
    for p in (1, 9)  # p = 2 is pinned in test_groups
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_bad_input_raises_an_error_naming_it(call, error, message):
    with pytest.raises((BraceLabError, ValueError, TypeError)) as exc:
        call()
    assert isinstance(exc.value, error) and str(exc.value) == message


def test_a_bad_index_is_both_a_library_error_and_a_value_error():
    with pytest.raises(BraceLabError) as exc:
        subgroup_closure(C6, [6])
    assert isinstance(exc.value, ValueError)


def test_ragged_entries_are_a_library_error():
    for call in (
        lambda: semidirect_product(C3, C2, [[0, 1, 2], [0, 2]]),
        lambda: GroupHom(C2, C2, (0, (1, 0))),
        lambda: make_algebra(3, 2, {(0,): [0, 0], (1, 0): [0, 0]}),
        lambda: make_group([[0, 1], [1]]),
        lambda: prepare_brace_groups([[0, 1], [1]], [[0, 1], [1, 0]]),
        lambda: make_brace([[0, 1], [1, 0]], [[0, 1], [1]]),
    ):
        with pytest.raises(InvalidTableError, match="^the entries do not form an array: "):
            call()


def test_integral_floats_come_back_as_ints():
    hom = GroupHom(C2, C2, (0.0, np.float64(1.0)))
    assert hom.images == (0, 1) and all(type(x) is int for x in hom.images)
    group = PermutationGroup(3, [(0, 1, 2), (1.0, 2, 0), (2, 0.0, 1)])
    assert group.elements == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert all(type(x) is int for p in group.elements for x in p)
    closure = subgroup_closure(C6, [2.0])
    assert closure == [0, 2, 4] and all(type(x) is int for x in closure)
    assert make_group(np.array([[0.0, 1.0], [1.0, 0.0]])) == C2


def test_ring_element_indices_past_int32_decode():
    # p^dim passes 2^31, so decode checks its index as a Python int
    ring = make_algebra(65537, 2, {})
    assert ring.decode(2**31).tolist() == [32767, 32769]
    assert ring.decode(ring.order - 1).tolist() == [65536, 65536]
    # an integral float is taken as its integer, as the index gate takes it
    coords = catalog("degraaf_A340", 3).decode(3.0)
    assert coords.dtype.kind == "i" and coords.tolist() == [0, 1, 0]


def test_ring_coordinates_reduce_before_the_gate():
    ring = cyclic_ring(3, 2)
    assert quasi_inverse(ring, 2**70 + 1) == quasi_inverse(ring, (2**70 + 1) % 27)
    assert quasi_inverse(ring, -1) == quasi_inverse(ring, 26)
    algebra = make_algebra(3, 2, {(1, 1): [2**70 + 1, 3.0]})
    assert algebra.consts[1, 1].tolist() == [(2**70 + 1) % 3, 0]


def test_search_limits_take_numpy_integers_and_an_environment_text(monkeypatch):
    assert len(automorphism_group(C3, budget=np.int64(10))) == 2
    assert len(enumerate_braces(C3, cap=np.int64(1))) == 1
    monkeypatch.setenv("BRACELAB_BUDGET", " 10 ")
    assert len(automorphism_group(C3)) == 2


def test_integral_floats_are_taken_as_sizes_and_limits():
    assert np.array_equal(cyclic_group(4.0).table, cyclic_group(4).table)
    ring = make_algebra(3.0, 2, {})
    assert type(ring.p) is int and ring.p == 3 and type(ring.order) is int and ring.order == 9
    # listing Aut(C3) takes 3 nodes, so a budget of 2.0 is read as 2 and runs out
    with pytest.raises(SearchLimitExceeded):
        automorphism_group(cyclic_group(3), budget=2.0)
    assert len(automorphism_group(cyclic_group(3), budget=3.0)) == 2
    assert len(enumerate_braces(C3, cap=np.float64(1.0))) == 1


def test_enumerate_with_a_negative_cap_exits_2(tmp_path, capsys):
    grp = tmp_path / "c3.grp"
    write_group(grp, C3)
    assert main(["enumerate", "--group", str(grp), "--cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the result cap must be a non-negative integer, got -1\n"

import numpy as np
import pytest

from bracelab.groups import automorphism_group, cyclic_group
from bracelab.perms import (
    PermutationGroup,
    all_perms,
    compose,
    cycle_string,
    identity_perm,
    invert,
    is_fixed_point_free,
    parse_cycles,
    perm_order,
)


def test_compose_applies_right_argument_first():
    p = (1, 0, 2)   # swap 0,1
    q = (0, 2, 1)   # swap 1,2
    # p∘q: x -> p(q(x)): 0->0->1, 1->2->2, 2->1->0
    assert compose(p, q) == (1, 2, 0)
    assert compose(q, p) == (2, 0, 1)


def test_invert_roundtrip():
    p = (2, 0, 3, 1)
    assert compose(p, invert(p)) == identity_perm(4)
    assert compose(invert(p), p) == identity_perm(4)


def test_perm_order():
    assert perm_order(identity_perm(5)) == 1
    assert perm_order((1, 0, 2, 3)) == 2
    assert perm_order((1, 2, 0, 4, 3)) == 6  # 3-cycle times a transposition


def test_fixed_point_free():
    assert is_fixed_point_free((1, 0, 3, 2))
    assert not is_fixed_point_free((0, 2, 1))
    assert not is_fixed_point_free(identity_perm(3))


def test_all_perms_lex_order_starts_at_identity():
    ps = all_perms(3)
    assert len(ps) == 6
    assert ps[0] == (0, 1, 2)
    assert ps == sorted(ps)


def test_cycle_string_one_based():
    assert cycle_string(identity_perm(4)) == "()"
    assert cycle_string((1, 0, 2, 3)) == "(12)"
    assert cycle_string((1, 2, 3, 0)) == "(1234)"
    assert cycle_string((1, 0, 3, 2)) == "(12)(34)"


def test_cycle_string_wide_degree_uses_spaces():
    p = list(range(12))
    p[9], p[10] = 10, 9
    assert cycle_string(tuple(p)) == "(10 11)"


def test_parse_cycles_roundtrip():
    for text, expect in [
        ("(12)", (1, 0, 2, 3)),
        ("(1 2 3 4)", (1, 2, 3, 0)),
        ("(13)(24)", (2, 3, 0, 1)),
        ("()", identity_perm(4)),
        ("e", identity_perm(4)),
    ]:
        assert parse_cycles(text, 4) == expect
    for p in all_perms(4):
        assert parse_cycles(cycle_string(p), 4) == p


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(15)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(11)", 4)
    with pytest.raises(ValueError):
        parse_cycles("12)", 4)
    # read one cycle at a time, (12)(13) would map both 2 and 3 to 1
    for text in ("(12)(13)", "(1 2)(2 3)", "(12)(12)"):
        with pytest.raises(ValueError, match="the cycles must be disjoint"):
            parse_cycles(text, 3)


def test_permutation_group_from_generators():
    g = PermutationGroup.from_generators(3, [(1, 0, 2), (0, 2, 1)])
    assert g.order == 6
    g.verify_closure()
    c3 = PermutationGroup.from_generators(3, [(1, 2, 0)])
    assert c3.order == 3
    assert (1, 2, 0) in c3
    assert (1, 0, 2) not in c3


def test_permutation_group_requires_identity():
    with pytest.raises(ValueError):
        PermutationGroup(3, [(1, 2, 0), (2, 0, 1)])


def test_permutation_group_lists_in_tuple_order_past_degree_256():
    # entries of 256 and up: byte keys compare as the tuples do only when
    # they are big-endian, else the shift by 256 sorts before the shift by 1
    rng = np.random.default_rng(41)
    for degree in (257, 300, 1024):
        shifts = (np.arange(degree) + np.arange(degree)[:, None]) % degree
        perms = [tuple(p) for p in shifts.tolist()]
        perms += [tuple(rng.permutation(degree).tolist()) for _ in range(20)]
        assert PermutationGroup(degree, perms).elements == tuple(sorted(perms))
    # Aut(C257) is listed only when its identity sorts first
    assert automorphism_group(cyclic_group(257)).order == 256


@pytest.mark.parametrize(
    "elements, bad",
    [
        ([(0, 1, 2), (2, 2, 0), (0, 0, 1)], "(0, 0, 1)"),
        ([(0, 1, 2), (1, 0)], "(1, 0)"),
        # an array's rows are named with plain ints, as a list's are
        (np.array([[0, 1, 2], [0, 0, 1]]), "(0, 0, 1)"),
    ],
)
def test_permutation_group_names_the_first_non_permutation(elements, bad):
    with pytest.raises(ValueError) as exc:
        PermutationGroup(3, elements)
    assert str(exc.value) == f"{bad} is not a permutation of degree 3"


def test_verify_closure_names_a_missing_inverse_and_an_escaping_product():
    with pytest.raises(ValueError) as exc:
        PermutationGroup(3, [(0, 1, 2), (1, 2, 0)]).verify_closure()
    assert str(exc.value) == "inverse of (1, 2, 0) missing from the set"
    # two transpositions, each its own inverse, whose product is a 3-cycle
    with pytest.raises(ValueError) as exc:
        PermutationGroup(3, [(0, 1, 2), (1, 0, 2), (0, 2, 1)]).verify_closure()
    assert str(exc.value) == "product of (0, 2, 1) and (1, 0, 2) escapes the set"

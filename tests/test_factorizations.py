from collections import Counter

import numpy as np
import pytest

from bracelab.braces import is_biskew, validate_direct
from bracelab.errors import IntersectionNontrivial, NotSubgroup, OrderMismatch
from bracelab.factorizations import (
    byott_embedding,
    circle_from_factorization,
    demo_s4,
    is_semidirect,
    left_group,
    pair_group,
    right_group,
    validate_factorization,
)
from bracelab.groups import (
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_permutations,
    heisenberg_group,
    holomorph,
    recognize,
    semidirect_product,
    subgroup_closure,
    symmetric_group,
)
from bracelab.perms import all_perms, parse_cycles
from oracles import _abstract_groups_of_order, nonabelian_groups_of_order_16


def s3_factorization():
    s3 = symmetric_group(3)
    perms = all_perms(3)
    rot = perms.index(parse_cycles("(123)", 3))
    flip = perms.index(parse_cycles("(12)", 3))
    return validate_factorization(
        s3, subgroup_closure(s3, [rot]), subgroup_closure(s3, [flip])
    )


def test_validate_factorization_errors():
    s3 = symmetric_group(3)
    perms = all_perms(3)
    rot = perms.index(parse_cycles("(123)", 3))
    flip = perms.index(parse_cycles("(12)", 3))
    with pytest.raises(NotSubgroup) as exc:
        validate_factorization(s3, [0, rot], subgroup_closure(s3, [flip]))
    assert exc.value.side == "left"
    # the first escaping product in (x, y) order, whatever order a set lists them in
    with pytest.raises(NotSubgroup, match=r"\(2 \* 6 = 8 escapes\)"):
        validate_factorization(symmetric_group(4), [0, 21, 2, 6], [0])
    cyc = subgroup_closure(s3, [rot])
    with pytest.raises(IntersectionNontrivial):
        validate_factorization(s3, cyc, cyc)
    with pytest.raises(OrderMismatch):
        validate_factorization(s3, [0], subgroup_closure(s3, [flip]))


def test_a_factor_without_the_identity_and_an_unknown_side_are_rejected():
    s3 = symmetric_group(3)
    perms = all_perms(3)
    rot = perms.index(parse_cycles("(123)", 3))
    flip = perms.index(parse_cycles("(12)", 3))
    with pytest.raises(NotSubgroup) as exc:
        validate_factorization(s3, subgroup_closure(s3, [rot]), [flip])
    assert exc.value.side == "right"
    assert str(exc.value) == "right factor is not a subgroup (missing the identity)"
    with pytest.raises(ValueError) as exc:
        is_semidirect(s3_factorization(), "middle")
    assert str(exc.value) == "side must be 'left' or 'right', got 'middle'"


def test_factor_members_outside_the_group_are_rejected():
    # C6's elements are 0..5; -1 once wrapped to 5, and 6 raised IndexError
    c6 = cyclic_group(6)
    for bad in (-1, 6):
        with pytest.raises(NotSubgroup, match=rf"left factor .*\(element {bad} is not in 0..5\)"):
            validate_factorization(c6, [0, bad], [0, 2, 4])
        with pytest.raises(NotSubgroup, match=rf"right factor .*\(element {bad} is not in 0..5\)"):
            validate_factorization(c6, [0, 3], [0, 2, 4, bad])


def test_decomposition_multiplies_back():
    f = s3_factorization()
    for x, (a, b) in enumerate(f.decomposition):
        assert f.group.mul(a, b) == x
        assert a in f.left
        assert b in f.right


def test_s3_factorization_circle_is_c6():
    f = s3_factorization()
    assert recognize(left_group(f)) == "C3"
    assert recognize(right_group(f)) == "C2"
    brace = circle_from_factorization(f)
    assert recognize(brace.add) == "S3"
    assert recognize(brace.mult) == "C6"
    assert is_semidirect(f, "left")
    assert not is_semidirect(f, "right")
    assert is_biskew(brace)


def test_byott_embedding_s3():
    f = s3_factorization()
    rep = byott_embedding(f)
    rep.verify()
    assert rep.is_regular()
    hol = holomorph(f.group)
    assert all(p in hol for p in rep.perms)
    # the permutation sending 0 to x is the circle row of x
    brace = circle_from_factorization(f)
    for p in rep.perms:
        x = p[0]
        assert list(p) == list(brace.mult.table[x])


def test_frobenius_20_factorization():
    c5, c4 = cyclic_group(5), cyclic_group(4)
    action = [[(pow(2, j, 5) * x) % 5 for x in range(5)] for j in range(4)]
    g = semidirect_product(c5, c4, action)
    assert not g.is_abelian()
    f = validate_factorization(g, [h * 4 for h in range(5)], list(range(4)))
    assert is_semidirect(f, "left")
    brace = circle_from_factorization(f)
    assert recognize(brace.mult) == "C20"
    assert is_biskew(brace)


def test_heisenberg_internal_factorization():
    g = heisenberg_group(3)
    f = validate_factorization(g, list(range(9)), [0, 9, 18])
    assert is_semidirect(f, "left")
    brace = circle_from_factorization(f)
    assert recognize(brace.add) == "M(3)"
    assert recognize(brace.mult) == "C3 x C3 x C3"
    assert is_biskew(brace)


def test_order_36_factorization_circle_is_product_of_nonabelian():
    s3 = symmetric_group(3)
    aut = automorphism_group(s3)
    actor = group_from_permutations(aut)
    g = semidirect_product(s3, actor, list(aut.elements))
    assert g.order == 36
    f = validate_factorization(g, [h * 6 for h in range(6)], list(range(6)))
    assert is_semidirect(f, "left")
    brace = circle_from_factorization(f)
    assert not brace.add.is_abelian()
    assert not brace.mult.is_abelian()
    target = direct_product(s3, s3)
    assert are_isomorphic(brace.mult, target) is not None
    assert are_isomorphic(brace.add, target) is not None
    assert is_biskew(brace)


def test_pair_group_matches_circle():
    for f in [s3_factorization()]:
        brace = circle_from_factorization(f)
        assert are_isomorphic(brace.mult, pair_group(f)) is not None


def test_demo_s4_report():
    r = demo_s4()
    assert r.forward_valid
    assert not r.swapped_valid
    assert r.swapped_failure_count == 5376
    assert (r.left_name, r.right_name) == ("S3", "C4")
    assert r.circle_matches_pair
    assert r.featured == ("(243)", "(23)", "(1324)")
    assert r.featured_sides == ("(132)", "(134)")
    assert r.first_failure == ("(34)", "(34)", "(34)")
    assert r.first_failure_sides == ("(23)", "(14)")
    assert r.contrast_triple == ("(1234)", "(12)", "(13)(24)")
    assert r.contrast_sides[0] == r.contrast_sides[1] == "(132)"


def test_s4_factorization_is_not_semidirect_either_side():
    g = symmetric_group(4)
    perms = all_perms(4)
    fix_last = [i for i, p in enumerate(perms) if p[3] == 3]
    four_cycle = subgroup_closure(g, [perms.index(parse_cycles("(1234)", 4))])
    f = validate_factorization(g, fix_last, four_cycle)
    assert not is_semidirect(f, "left")
    assert not is_semidirect(f, "right")
    brace = circle_from_factorization(f)
    assert not is_biskew(brace)
    assert validate_direct(brace.add, brace.mult) is None


def _subgroups(g):
    """Every subgroup of g as a sorted tuple, each grown from a smaller one by one element."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        grown = []
        for h in frontier:
            inside = set(h)
            for x in range(g.order):
                if x not in inside:
                    k = tuple(subgroup_closure(g, h + (x,)))
                    if k not in found:
                        found.add(k)
                        grown.append(k)
        frontier = grown
    return sorted(found, key=lambda h: (len(h), h))


def test_semidirect_factorizations_give_biskew_braces():
    # Every exact factorization G = LR with both factors proper, over one
    # group of each type of order 2-15, the nine nonabelian groups of
    # order 16, S4 and D9.  Convention: x = ab with a in L and b in R, and
    # x o y = a y b.  When L is normal, G = L x| R and the brace is
    # bi-skew; R normal alone is not enough.  The circle group is L x R.
    groups = [g for n in range(2, 16) for g in _abstract_groups_of_order(n)]
    groups += list(nonabelian_groups_of_order_16().values())
    groups += [symmetric_group(4), dihedral_group(9)]
    table = Counter()
    for g in groups:
        subgroups = [h for h in _subgroups(g) if 1 < len(h) < g.order]
        for left in subgroups:
            for right in subgroups:
                if len(left) * len(right) != g.order or set(left) & set(right) != {0}:
                    continue
                f = validate_factorization(g, left, right)
                brace = circle_from_factorization(f)
                biskew = is_biskew(brace)
                normal = (is_semidirect(f, "left"), is_semidirect(f, "right"))
                if normal[0]:
                    assert biskew
                assert are_isomorphic(brace.mult, pair_group(f)) is not None
                table[normal + (biskew,)] += 1
    # (L normal, R normal, bi-skew) -> factorizations
    assert dict(table) == {
        (True, True, True): 142,
        (True, False, True): 204,
        (False, True, True): 124,
        (False, True, False): 80,
        (False, False, True): 40,
        (False, False, False): 48,
    }

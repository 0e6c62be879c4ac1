import itertools
import math
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from bracelab.algebras import catalog, to_brace
from bracelab.braces import SkewBrace
from bracelab.errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    BraceLabError,
    InvalidTableError,
    NoIdentityError,
    NotAssociativeError,
    NotBijectiveRowError,
    SearchLimitExceeded,
)
from bracelab.groups import (
    GroupHom,
    _Budget,
    _HomSearch,
    _aut_chain,
    _centraliser_sizes,
    _greedy_generators,
    abelian_group,
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    generating_sequence,
    group_from_permutations,
    heisenberg_group,
    holomorph,
    is_normal,
    left_regular,
    m3_group,
    make_group,
    recognize,
    semidirect_product,
    subgroup_closure,
    subgroup_group,
    symmetric_group,
)
from bracelab.perms import PermutationGroup, all_perms, parse_cycles
from oracles import (
    aut_order_by_candidates,
    brute_force_automorphisms,
    first_non_associative,
    _abstract_groups_of_order,
    greedy_generators_by_closure,
    greedy_generators_from_identity,
    intercalate_swap,
    looped_dihedral_table,
    looped_heisenberg_table,
    looped_m3_table,
    looped_semidirect_table,
    looped_symmetric_table,
    nonabelian_groups_of_order_16,
    product_scan_isomorphism,
    quaternion_group,
    relabel,
    searched_automorphisms,
    searched_name,
    table_verdict,
)


# ---------------------------------------------------------------------------
# table validation


def test_make_group_rejects_non_square():
    with pytest.raises(InvalidTableError):
        make_group([[0, 1]])


def test_make_group_rejects_out_of_range_entries():
    with pytest.raises(InvalidTableError):
        make_group([[0, 1], [1, 2]])


def test_make_group_rejects_missing_identity():
    with pytest.raises(NoIdentityError):
        make_group([[1, 0], [0, 0]])


def test_make_group_rejects_non_bijective_row():
    with pytest.raises(NotBijectiveRowError) as exc:
        make_group([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    assert (exc.value.element, exc.value.axis) == (1, "row")
    with pytest.raises(NotBijectiveRowError) as exc:
        make_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert (exc.value.element, exc.value.axis) == (1, "column")


def test_make_group_rejects_non_associative_loop():
    # the smallest loop that is not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAssociativeError) as exc:
        make_group(loop)
    assert exc.value.witness == first_non_associative(loop)


def test_make_group_reports_the_first_non_associative_triple():
    # intercalate swaps turn relabelled group tables into loops, most of
    # them not associative; the groups have generating sets of 1 to 6
    # members, and every group of even order has intercalates
    rng = np.random.default_rng(11)
    bases = [
        cyclic_group(8), dihedral_group(4), abelian_group([2, 2, 2]), quaternion_group(),
        symmetric_group(4), direct_product(heisenberg_group(3), cyclic_group(2)),
        abelian_group([4, 4]), abelian_group([2] * 6), dihedral_group(32),
    ]
    failures = 0
    for g in bases:
        assert len(subgroup_closure(g, g.generators)) == g.order
        assert 2 ** len(g.generators) <= g.order
        for _ in range(8):
            sigma = [0] + list(1 + rng.permutation(g.order - 1))
            loop = intercalate_swap(relabel(g, sigma).table, rng)
            assert loop is not None
            witness = first_non_associative(loop)
            if witness is None:
                make_group(loop)
                continue
            failures += 1
            with pytest.raises(NotAssociativeError) as exc:
                make_group(loop)
            assert exc.value.witness == witness
    assert failures > 60
    assert max(len(g.generators) for g in bases) == 6


def test_make_group_moves_identity_to_zero():
    sigma = [2, 1, 0]
    scrambled = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            scrambled[a][b] = sigma[(sigma[a] + sigma[b]) % 3]
    g = make_group(scrambled)
    assert np.array_equal(g.table, cyclic_group(3).table)


def test_make_group_rejects_non_integral_entries():
    # such entries were once truncated, so this table passed as C2
    with pytest.raises(InvalidTableError, match=r"^table entry 1\.5 at \(0, 1\) is not an"):
        make_group([[0.0, 1.5], [1, 0]])
    with pytest.raises(InvalidTableError, match=r"^table entry nan at \(1, 1\) is not an integer$"):
        make_group([[0, 1], [1, np.nan]])
    assert np.array_equal(make_group([[0.0, 1.0], [1.0, 0.0]]).table, cyclic_group(2).table)


def _scrambled(table, rng):
    """The table relabelled by a random permutation, which moves its identity too."""
    sigma = rng.permutation(len(table))
    inv = np.argsort(sigma)
    return sigma[np.asarray(table)[np.ix_(inv, inv)]]


def _gate_corpus(rng):
    """Seeded tables of order 2 to 12, each family failing the gate its own way or not at all."""
    tables = []
    for g in (g for n in range(2, 13) for g in _abstract_groups_of_order(n)):
        n = g.order
        for _ in range(2):
            made = [g.table.copy()]                     # a group
            loop = intercalate_swap(g.table, rng)       # a loop, most often not associative
            if loop is not None:
                made.append(loop)
            if n > 2:                                   # a row repeating an entry
                t = g.table.copy()
                r, c1, c2 = int(rng.integers(1, n)), *rng.choice(np.arange(1, n), 2, replace=False)
                t[r, c1] = t[r, c2]
                made.append(t)
            t = g.table.copy()                          # 0 missing from a row
            r = int(rng.integers(1, n))
            t[r, g.inverses[r]] = rng.integers(1, n)
            made.append(t)
            # every row a permutation, with x * 0 = x: the columns rarely are
            t = np.array([[x, *rng.permutation([v for v in range(n) if v != x])] for x in range(n)])
            t[0] = np.arange(n)
            made.append(t)
            # identity 0 and 0 in every row, the other entries at random
            t = rng.integers(0, n, (n, n))
            t[0], t[:, 0] = np.arange(n), np.arange(n)
            t[np.arange(1, n), rng.integers(1, n, n - 1)] = 0
            made.append(t)
            made.append(rng.integers(0, n, (n, n)))     # most often no identity
            tables += [_scrambled(t, rng) for t in made]
    return tables


def _make_group_verdict(table):
    """make_group's outcome in the form of table_verdict."""
    try:
        return ("group", make_group(table).table.tolist())
    except NoIdentityError:
        return ("NoIdentityError",)
    except NotBijectiveRowError as exc:
        return ("NotBijectiveRowError", exc.element, exc.axis)
    except NotAssociativeError as exc:
        return ("NotAssociativeError", exc.witness)


def test_make_group_gives_the_verdicts_of_its_first_check_order():
    # make_group sorts rows and columns only when a table fails as a group;
    # each error and witness must be the one the sorts-first order gives
    tables = _gate_corpus(np.random.default_rng(38))
    kinds = Counter()
    for t in tables:
        verdict = table_verdict(t)
        assert _make_group_verdict(t) == verdict, t.tolist()
        kinds[verdict[0] if verdict[0] != "NotBijectiveRowError" else verdict[2]] += 1
    assert len(tables) > 300
    assert set(kinds) == {"group", "NoIdentityError", "row", "column", "NotAssociativeError"}
    assert min(kinds.values()) >= 10, kinds


# ---------------------------------------------------------------------------
# constructors


def test_cyclic_group_orders():
    c12 = cyclic_group(12)
    assert c12.element_order(1) == 12
    assert c12.element_order(4) == 3
    assert c12.exponent() == 12
    assert c12.is_abelian()


def test_symmetric_group_multiplies_left_to_right():
    s3 = symmetric_group(3)
    perms = all_perms(3)
    i_12 = perms.index(parse_cycles("(12)", 3))
    i_13 = perms.index(parse_cycles("(13)", 3))
    i_123 = perms.index(parse_cycles("(123)", 3))
    # apply (12) first, then (13): 1->2->2, 2->1->... gives the 3-cycle (123)
    assert s3.mul(i_12, i_13) == i_123
    assert not s3.is_abelian()
    assert s3.order == 6


def test_symmetric_group_4_order_profile():
    s4 = symmetric_group(4)
    orders = sorted(s4.element_orders().tolist())
    assert orders.count(1) == 1
    assert orders.count(2) == 9
    assert orders.count(3) == 8
    assert orders.count(4) == 6
    assert s4.exponent() == 12


def test_element_orders_match_repeated_multiplication():
    groups = [g for n in range(1, 16) for g in _abstract_groups_of_order(n)]
    groups += [cyclic_group(1024), heisenberg_group(5), symmetric_group(5)]
    for g in groups:
        n = g.order
        power, orders = np.arange(n), np.zeros(n, dtype=np.int64)
        for k in range(1, n + 1):
            orders[(power == 0) & (orders == 0)] = k
            power = g.table[power, np.arange(n)]
        assert g.element_orders().tolist() == orders.tolist(), n


def test_dihedral_group():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert not d4.is_abelian()
    assert sorted(d4.element_orders().tolist()) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert are_isomorphic(dihedral_group(3), symmetric_group(3)) is not None


def test_heisenberg_group():
    h = heisenberg_group(3)
    assert h.order == 27
    assert not h.is_abelian()
    assert h.exponent() == 3
    # the centre: elements whose row and column of the table agree
    assert (h.table == h.table.T).all(axis=1).sum() == 3


def test_m3_group():
    g = m3_group(3)
    assert g.order == 27
    assert not g.is_abelian()
    assert g.exponent() == 9
    assert are_isomorphic(g, heisenberg_group(3)) is None


def test_direct_product():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.is_abelian()
    assert g.exponent() == 6


def test_semidirect_product_builds_s3():
    c3, c2 = cyclic_group(3), cyclic_group(2)
    inversion = [0, 2, 1]
    g = semidirect_product(c3, c2, [[0, 1, 2], inversion])
    assert g.order == 6
    assert not g.is_abelian()
    assert are_isomorphic(g, symmetric_group(3)) is not None


def test_semidirect_product_rejects_non_automorphism():
    c3, c2 = cyclic_group(3), cyclic_group(2)
    with pytest.raises(ActionNotAutomorphism):
        semidirect_product(c3, c2, [[0, 1, 2], [0, 0, 1]])


def test_semidirect_product_rejects_each_bad_action():
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    with pytest.raises(ActionNotHomomorphism) as exc:
        semidirect_product(c3, c2, [[0, 1, 2]])
    assert str(exc.value) == (
        "action must give one permutation of 3 points per actor element, got shape (1, 3)"
    )
    # swapping 1 and 2 in C4 is a bijection that moves 1 + 1 = 2 to 2 + 2 = 0
    with pytest.raises(ActionNotAutomorphism) as exc:
        semidirect_product(c4, c2, [[0, 1, 2, 3], [0, 2, 1, 3]])
    assert exc.value.index == 1 and "does not preserve the product" in str(exc.value)
    # automorphisms each, but 1 acts by inversion and 1 * 2 = 0 by the identity
    with pytest.raises(ActionNotHomomorphism) as exc:
        semidirect_product(c3, c3, [[0, 1, 2], [0, 2, 1], [0, 1, 2]])
    assert str(exc.value) == "action of product 1*2 differs from composed actions"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: make_group(np.zeros((0, 0), dtype=int)), InvalidTableError,
         "table must have at least one element"),
        (lambda: cyclic_group(0), InvalidTableError,
         "cyclic group order must be a positive integer, got 0"),
        (lambda: cyclic_group(1025), InvalidTableError,
         "order 1025 exceeds the supported cap of 1024"),
        (lambda: dihedral_group(0), InvalidTableError,
         "dihedral parameter must be a positive integer, got 0"),
        (lambda: m3_group(2), InvalidTableError,
         "the exponent-p^2 construction needs an odd prime"),
        (lambda: subgroup_group(cyclic_group(4), [1, 2]), ValueError,
         "subgroup must contain the identity 0"),
        (lambda: GroupHom(cyclic_group(2), cyclic_group(2), (0,)), ValueError,
         "images must list one target element per source element"),
        # 1 + 1 = 2 maps to 1, but the images add to 1 + 1 = 2
        (lambda: GroupHom(cyclic_group(3), cyclic_group(3), (0, 1, 1)), ValueError,
         "not a homomorphism: fails at (1, 1)"),
        (lambda: symmetric_group(0), InvalidTableError,
         "symmetric group degree must be a positive integer, got 0"),
        (lambda: symmetric_group(-1), InvalidTableError,
         "symmetric group degree must be a positive integer, got -1"),
    ],
)
def test_constructors_reject_bad_parameters(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_stock_constructors_match_the_per_entry_loops():
    s3, c4, c6 = symmetric_group(3), cyclic_group(4), abelian_group([2, 3])
    klein = abelian_group([2, 2])
    a4_action = [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]

    def direct(g, h):  # the direct product as a semidirect one with trivial action
        return looped_semidirect_table(g, h, [list(range(g.order))] * h.order)

    cases = (
        [(heisenberg_group(p), looped_heisenberg_table(p)) for p in range(1, 11)]
        + [(m3_group(p), looped_m3_table(p)) for p in (3, 5, 7)]
        + [(dihedral_group(m), looped_dihedral_table(m)) for m in range(1, 41)]
        + [(symmetric_group(m), looped_symmetric_table(m)) for m in range(1, 7)]
        + [
            (direct_product(s3, c4), direct(s3, c4)),
            (direct_product(c4, s3), direct(c4, s3)),
            (abelian_group([2, 3, 4]), direct(c6, c4)),
            (semidirect_product(klein, cyclic_group(3), a4_action),
             looped_semidirect_table(klein, cyclic_group(3), a4_action)),
            (semidirect_product(cyclic_group(3), c4, [[0, 1, 2], [0, 2, 1]] * 2),
             looped_semidirect_table(cyclic_group(3), c4, [[0, 1, 2], [0, 2, 1]] * 2)),
        ]
    )
    for g, table in cases:
        assert np.array_equal(g.table, table)
        assert g.generators == make_group(table).generators


def test_stock_constructors_reject_before_building(monkeypatch):
    c64, c32 = cyclic_group(64), cyclic_group(32)

    def refuse(table):
        raise AssertionError(f"built a {len(table)}-element table")

    monkeypatch.setattr("bracelab.groups.make_group", refuse)
    monkeypatch.setattr("bracelab.groups._group", lambda table, e: refuse(table))
    too_large = [
        lambda: heisenberg_group(13),
        lambda: m3_group(11),
        lambda: dihedral_group(600),
        lambda: symmetric_group(7),
        lambda: abelian_group([64, 32]),
        lambda: direct_product(c64, c32),
        lambda: semidirect_product(c64, c32, [[0]]),
    ]
    for build in too_large:
        with pytest.raises(InvalidTableError, match="exceeds the supported cap"):
            build()
    for build in (lambda: heisenberg_group(-1), lambda: m3_group(-3), lambda: abelian_group([])):
        with pytest.raises(BraceLabError):
            build()


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_closure_in_s4():
    s4 = symmetric_group(4)
    perms = all_perms(4)
    r = perms.index(parse_cycles("(1234)", 4))
    cyc = subgroup_closure(s4, [r])
    assert len(cyc) == 4
    sub = subgroup_group(s4, cyc)
    assert recognize(sub) == "C4"


def test_subgroup_functions_reject_members_outside_the_group():
    # C6's elements are 0..5; -1 once wrapped to 5, and 6 raised IndexError
    c6 = cyclic_group(6)
    for bad in (-1, 6):
        for call in (subgroup_closure, subgroup_group, is_normal):
            with pytest.raises(ValueError, match=f"element {bad} is not in 0..5"):
                call(c6, [0, bad])


def test_group_hom_rejects_images_outside_the_target():
    # 5 once raised a bare IndexError, and -1 wrapped to 1
    c2 = cyclic_group(2)
    for bad in (-1, 2, 5):
        with pytest.raises(ValueError, match=rf"^image {bad} of element 1 is not in 0\.\.1$"):
            GroupHom(c2, c2, (0, bad))
    with pytest.raises(ValueError, match=r"^image 3 of element 0 is not in 0\.\.2$"):
        GroupHom(c2, cyclic_group(3), (3, 0))


def test_subgroup_group_rejects_non_closed():
    s4 = symmetric_group(4)
    perms = all_perms(4)
    r = perms.index(parse_cycles("(1234)", 4))
    with pytest.raises(ValueError):
        subgroup_group(s4, [0, r])


# ---------------------------------------------------------------------------
# automorphisms


def test_aut_s3_has_order_6():
    assert automorphism_group(symmetric_group(3)).order == 6


def test_aut_elementary_abelian_2_cubed_is_168():
    assert automorphism_group(abelian_group([2, 2, 2])).order == 168


def _gl3_count(p: int) -> int:
    """Count invertible 3x3 matrices over Z/p via the determinant."""
    cells = np.array(list(itertools.product(range(p), repeat=9)), dtype=np.int64)
    m = cells.reshape(-1, 3, 3)
    det = (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    )
    return int(np.count_nonzero(det % p))


def test_aut_elementary_abelian_3_cubed_matches_matrix_count():
    assert _gl3_count(2) == 168
    gl3 = _gl3_count(3)
    assert gl3 == 11232
    assert automorphism_group(abelian_group([3, 3, 3])).order == gl3
    # |GL(d, p)| = prod over i < d of (p^d - p^i)
    for d, p, gl in ((4, 2, 20160), (2, 5, 480)):
        assert math.prod(p**d - p**i for i in range(d)) == gl
        assert automorphism_group(abelian_group([p] * d)).order == gl


def test_automorphism_group_is_cached_on_the_group():
    g = abelian_group([2, 4])
    auts = weakref.ref(automorphism_group(g))
    assert automorphism_group(g) is auts()
    # no module-level cache keeps it alive once the group is gone
    del g
    assert auts() is None


def test_aut_search_agrees_with_brute_force_up_to_order_8():
    groups = [
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        abelian_group([2, 2]),
        cyclic_group(5),
        cyclic_group(6),
        symmetric_group(3),
        cyclic_group(7),
        cyclic_group(8),
        abelian_group([2, 4]),
        abelian_group([2, 2, 2]),
        dihedral_group(4),
        quaternion_group(),
    ]
    for g in groups:
        assert automorphism_group(g) == brute_force_automorphisms(g)


def test_aut_order_matches_the_listed_group():
    rng = np.random.default_rng(9)
    bases = [g for n in range(1, 16) for g in _abstract_groups_of_order(n)]
    bases += list(nonabelian_groups_of_order_16().values())
    for g in bases:
        sigma = [0] + list(1 + rng.permutation(g.order - 1))
        for h in (make_group(g.table.copy()), relabel(g, sigma)):
            # counted first: the listing then closes the maps the count kept
            order = _aut_chain(h, _Budget(None, "automorphism order search"))[0]
            assert order == len(automorphism_group(h))


def test_aut_order_matches_the_per_candidate_count():
    # orbits closed under the maps already found, over the centraliser base,
    # give the order that settling every candidate on its own gives
    rng = np.random.default_rng(10)
    bases = [g for n in range(1, 16) for g in _abstract_groups_of_order(n)]
    bases += list(nonabelian_groups_of_order_16().values())
    for g in bases:
        sigma = [0] + list(1 + rng.permutation(g.order - 1))
        for h in (make_group(g.table.copy()), relabel(g, sigma)):
            assert _aut_chain(h, _Budget(None, "count"))[0] == aut_order_by_candidates([h])
    for p in (3, 5):
        b = to_brace(catalog("degraaf_A340", p))
        for tables in ([b.add], [b.mult], [b.add, b.mult]):
            fresh = [make_group(t.table.copy()) for t in tables]
            owner = fresh[0] if len(fresh) == 1 else SkewBrace(*fresh)
            assert _aut_chain(owner, _Budget(None, "count"))[0] == aut_order_by_candidates(tables)


def test_closure_listing_matches_the_search_listing():
    # the maps the order search keeps generate Aut(g), so their closure
    # lists every map that exhausting the generator-image search finds
    rng = np.random.default_rng(31)
    bases = [g for n in range(1, 16) for g in _abstract_groups_of_order(n)]
    bases += list(nonabelian_groups_of_order_16().values())
    bases += [abelian_group(f) for f in ([16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2])]
    for g in bases:
        sigma = [0] + list(1 + rng.permutation(g.order - 1))
        for h in (make_group(g.table.copy()), relabel(g, sigma)):
            assert automorphism_group(h) == searched_automorphisms([h])


def test_listing_stops_at_its_budget(monkeypatch):
    # a listing spends the order search's nodes (75 on C2^4) and one node
    # per listed map, checked against the exact order before any map is
    # composed
    chain = _Budget(None, "automorphism search")
    assert _aut_chain(abelian_group([2, 2, 2, 2]), chain)[0] == 20160
    assert chain.nodes == 75
    budget = chain.nodes + 20160
    assert len(automorphism_group(abelian_group([2, 2, 2, 2]), budget=budget)) == 20160

    def fail(*args):
        raise AssertionError("automorphisms composed past the budget")

    monkeypatch.setattr(PermutationGroup, "from_generators", fail)
    with pytest.raises(SearchLimitExceeded, match="automorphism search"):
        automorphism_group(abelian_group([2, 2, 2, 2]), budget=budget - 1)
    # the |GL(6, 3)| maps of C3^6 would never finish; the listing fails as
    # soon as its order search does
    with pytest.raises(SearchLimitExceeded, match="automorphism search"):
        automorphism_group(abelian_group([3] * 6))


def test_greedy_generators_match_the_closure_of_every_candidate(sixdim_brace):
    # skipping candidates an earlier closure covers leaves the picks of
    # the candidates ranked by centraliser size unchanged
    rng = np.random.default_rng(17)
    groups = [g for n in range(1, 16) for g in _abstract_groups_of_order(n)]
    groups += [abelian_group(f) for f in ([16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2])]
    groups += list(nonabelian_groups_of_order_16().values())
    tables = []
    for g in groups:
        sigma = [0] + list(1 + rng.permutation(g.order - 1))
        tables += [g, relabel(g, sigma)]
    tables += [sixdim_brace.add, sixdim_brace.mult]
    for g in tables:
        ranked = (np.argsort(_centraliser_sizes(g)[1:], kind="stable") + 1).tolist()
        assert _greedy_generators(g) == greedy_generators_by_closure(g, ranked)


def test_generating_sequence_matches_the_rule_that_closes_from_the_identity(sixdim_brace):
    # closing each candidate from the span of the generators so far picks
    # what closing it from element 0 picks
    groups = [g for n in range(1, 32) for g in _abstract_groups_of_order(n)]
    groups += [heisenberg_group(5), abelian_group([3, 3, 3]), sixdim_brace.mult]
    for g in groups:
        assert tuple(generating_sequence(g)) == greedy_generators_from_identity(g)


def test_aut_order_is_cached_and_reads_a_listed_group(monkeypatch):
    g, h = heisenberg_group(3), abelian_group([3, 3])
    assert _aut_chain(g, _Budget(None, "count"))[0] == 432
    auts = automorphism_group(h)

    def fail(*args):
        raise AssertionError("automorphisms searched again")

    monkeypatch.setattr("bracelab.groups._HomSearch", fail)
    assert _aut_chain(g, _Budget(None, "count"))[0] == 432
    assert _aut_chain(h, _Budget(None, "count"))[0] == len(auts) == 48


def test_aut_order_stops_at_its_budget():
    # |Aut(C5^3)| = |GL(3, 5)| = 1,488,000 from 147 nodes; one node fewer
    # fails (every element of an abelian group has the same centraliser)
    p = 5
    assert _aut_chain(abelian_group([p] * 3), _Budget(147, "count"))[0] == math.prod(
        p**3 - p**i for i in range(3)
    )
    with pytest.raises(SearchLimitExceeded, match="automorphism order search"):
        _aut_chain(abelian_group([p] * 3), _Budget(146, "automorphism order search"))


def test_generating_sequence_generates():
    for g in [symmetric_group(4), heisenberg_group(3), abelian_group([2, 2, 3])]:
        gens = generating_sequence(g)
        assert len(subgroup_closure(g, gens)) == g.order


def test_generating_sequence_puts_no_central_element_first():
    # ties go to the smallest centraliser: the central element 1 of Heis(3)
    # would make every non-central candidate image for it a subtree to refute
    assert generating_sequence(heisenberg_group(3)) == [3, 9]


def test_generating_sequence_is_cached_on_the_group(monkeypatch):
    g = heisenberg_group(3)
    first = generating_sequence(g)
    first.append(5)

    def fail(*args):
        raise AssertionError("generating sequence searched again")

    monkeypatch.setattr("bracelab.groups.subgroup_closure", fail)
    assert generating_sequence(g) == first[:-1]


def test_budget_exhaustion_raises():
    with pytest.raises(SearchLimitExceeded):
        automorphism_group(cyclic_group(59), budget=10)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("BRACELAB_BUDGET", "5")
    with pytest.raises(SearchLimitExceeded):
        automorphism_group(cyclic_group(61))


# ---------------------------------------------------------------------------
# isomorphism


def test_are_isomorphic_distinguishes_c4_from_klein():
    assert are_isomorphic(cyclic_group(4), abelian_group([2, 2])) is None


def test_are_isomorphic_compares_keys_before_building_the_search(monkeypatch):
    # C1024 and C2 x C512 have different element orders, so no generating
    # sequence or table column is built
    g, h = cyclic_group(1024), abelian_group([2, 512])

    def fail(*args):
        raise AssertionError("generating_sequence ran")

    monkeypatch.setattr("bracelab.groups.generating_sequence", fail)
    assert are_isomorphic(g, h) is None


def test_are_isomorphic_compares_derived_sizes_before_the_search(monkeypatch):
    # C6 and S3 have order 6 and commutator subgroups of orders 1 and 3
    def refuse(*args):
        raise AssertionError("the map search ran")

    monkeypatch.setattr("bracelab.groups._HomSearch", refuse)
    assert are_isomorphic(cyclic_group(6), symmetric_group(3)) is None


def test_derived_size_is_the_order_of_the_commutator_subgroup():
    for n in range(1, 17):
        for g in _abstract_groups_of_order(n):
            t, inv = g.table.tolist(), g.inverses.tolist()
            comms = {t[t[inv[a]][inv[b]]][t[a][b]] for a in range(n) for b in range(n)}
            assert g.derived_size() == len(subgroup_closure(g, sorted(comms))), (n, g)


def test_isomorphism_tests_leave_numpy_ma_unimported():
    # numpy's unique imports numpy.ma on first use, which costs a fresh
    # process about 17 ms of CPU and 1 MB in its first isomorphism test
    # (numpy 1.x imports numpy.ma with numpy itself, so only a change counts)
    code = (
        "import sys\n"
        "from bracelab.groups import abelian_group, are_isomorphic, dihedral_group, make_group\n"
        "before = 'numpy.ma' in sys.modules\n"
        "d4 = dihedral_group(4)\n"
        "assert are_isomorphic(d4, abelian_group([2, 4])) is None\n"
        "assert are_isomorphic(d4, make_group(d4.table[::-1, ::-1] ^ 7)) is not None\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    assert after == before


def test_are_isomorphic_finds_map():
    hom = are_isomorphic(abelian_group([3, 2]), cyclic_group(6))
    assert hom is not None
    assert hom.is_bijective()


def test_are_isomorphic_returns_first_map_of_the_plain_scan():
    rng = np.random.default_rng(3)
    groups = [
        cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4),
        abelian_group([2, 2]), cyclic_group(5), cyclic_group(6), symmetric_group(3),
        cyclic_group(7), cyclic_group(8), abelian_group([2, 4]), abelian_group([2, 2, 2]),
        dihedral_group(4), quaternion_group(), heisenberg_group(3),
    ]
    for g in groups:
        for _ in range(3):
            h = relabel(g, [0] + list(1 + rng.permutation(g.order - 1)))
            hom = are_isomorphic(g, h)
            assert hom is not None
            assert hom.images == product_scan_isomorphism([g], [h])


def test_isomorphism_search_pairs_elements_by_centraliser_size():
    # images must match in element order and centraliser size, so Heis(p)
    # finds a relabelled copy in a few nodes; pairing by element order
    # alone took over 100,000 nodes at p = 5
    for p, nodes in ((5, 3), (7, 4)):
        g = heisenberg_group(p)
        h = relabel(g, [0] + list(1 + np.random.default_rng(3).permutation(g.order - 1)))
        with pytest.raises(SearchLimitExceeded, match="isomorphism search"):
            are_isomorphic(g, h, budget=nodes - 1)
        assert are_isomorphic(g, h, budget=nodes) is not None


def test_map_search_with_unequal_keys_spends_no_node():
    # C3^3 and Heis(3) have the same element orders but not the same
    # centraliser sizes, so no bijection carries one table to the other
    search = _HomSearch(
        [abelian_group([3, 3, 3])], [heisenberg_group(3)], _Budget(1, "isomorphism search")
    )
    assert list(search.maps()) == []
    assert search.budget.nodes == 0


# ---------------------------------------------------------------------------
# regular representation and holomorph


def test_left_regular_is_regular():
    rep = left_regular(symmetric_group(3))
    rep.verify()
    assert rep.is_regular()


def test_holomorph_orders():
    assert holomorph(cyclic_group(3)).order == 6
    assert holomorph(abelian_group([2, 2])).order == 24
    hol = holomorph(cyclic_group(5))
    assert hol.order == 20
    hol.verify_closure()


def test_holomorph_of_klein_is_s4():
    hol = group_from_permutations(holomorph(abelian_group([2, 2])))
    assert are_isomorphic(hol, symmetric_group(4)) is not None


def test_group_from_permutations_identity_first():
    g = group_from_permutations(holomorph(cyclic_group(3)))
    assert recognize(g) == "S3"


# ---------------------------------------------------------------------------
# recognition


def test_recognize_names():
    assert recognize(cyclic_group(1)) == "C1"
    assert recognize(cyclic_group(12)) == "C12"
    assert recognize(abelian_group([2, 6])) == "C2 x C6"
    assert recognize(abelian_group([6, 2])) == "C2 x C6"
    assert recognize(abelian_group([2, 2, 2])) == "C2 x C2 x C2"
    assert recognize(symmetric_group(3)) == "S3"
    assert recognize(symmetric_group(4)) == "S4"
    assert recognize(dihedral_group(4)) == "D4"
    assert recognize(dihedral_group(6)) == "D6"
    assert recognize(heisenberg_group(3)) == "M(3)"
    assert recognize(m3_group(3)) == "M3(3)"
    assert recognize(quaternion_group()) == "Q8"
    klein, c3 = abelian_group([2, 2]), cyclic_group(3)
    a4 = semidirect_product(klein, c3, [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
    assert recognize(a4) == "A4"
    dic3 = semidirect_product(c3, cyclic_group(4), [[0, 1, 2], [0, 2, 1]] * 2)
    assert recognize(dic3) == "Dic3"


def test_recognize_matches_the_isomorphism_search(monkeypatch):
    c2, c3 = cyclic_group(2), cyclic_group(3)
    a4 = semidirect_product(
        abelian_group([2, 2]), c3, [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    )
    groups = [g for n in range(1, 16) for g in _abstract_groups_of_order(n)]
    groups += nonabelian_groups_of_order_16().values()
    for m in range(3, 41):
        # C_m x|_r C2, the involution acting as multiplication by r
        identity = list(range(m))
        for r in range(m):
            if r * r % m == 1:
                times_r = [r * x % m for x in range(m)]
                groups.append(semidirect_product(cyclic_group(m), c2, [identity, times_r]))
    for m in range(3, 13):
        inversion = [-x % m for x in range(m)]
        action = [list(range(m)), inversion] * 2
        groups.append(semidirect_product(cyclic_group(m), cyclic_group(4), action))
    for k in range(3, 13):
        groups += [direct_product(c2, dihedral_group(k)), direct_product(c3, dihedral_group(k))]
    # SL(2,3), the third group of order 24 with 4 Sylow 3-subgroups
    sl23 = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(3), repeat=4)
        if (a * d - b * c) % 3 == 1
    ]
    index = {x: i for i, x in enumerate(sl23)}
    sl23_table = [
        [
            index[(a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3]
            for e, f, g, h in sl23
        ]
        for a, b, c, d in sl23
    ]
    groups += [symmetric_group(4), direct_product(c2, a4), make_group(sl23_table)]
    for p in (3, 5, 7):
        groups += [heisenberg_group(p), m3_group(p), to_brace(catalog("degraaf_A340", p)).mult]
    expected = [searched_name(g) for g in groups]
    assert {"S4", "M(7)", "M3(7)", "D40", "D12", "unrecognized"} <= set(expected)

    def fail(*args):
        raise AssertionError("recognize ran a homomorphism search")

    monkeypatch.setattr("bracelab.groups._HomSearch", fail)
    assert [recognize(g) for g in groups] == expected

import hashlib

import numpy as np
import pytest

from bracelab import census
from bracelab.braces import SkewBrace, brace_from_groups, is_biskew, is_two_sided, trivial_brace
from bracelab.census import classify_braces, enumerate_braces
from bracelab.errors import CapExceeded, SearchLimitExceeded
from bracelab.groups import (
    _Budget,
    _automorphisms,
    _isomorphism,
    abelian_group,
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    holomorph,
    make_group,
    recognize,
    symmetric_group,
)
from bracelab.perms import PermutationGroup
from oracles import (
    _abstract_groups_of_order,
    first_non_associative,
    law_failures,
    nonabelian_groups_of_order_16,
    oracle_tables,
    pairwise_classes,
    quaternion_group,
    relabel,
    tuple_closure_regular_subgroups,
)

SMALL = [
    ("C1", lambda: cyclic_group(1)),
    ("C2", lambda: cyclic_group(2)),
    ("C3", lambda: cyclic_group(3)),
    ("C4", lambda: cyclic_group(4)),
    ("Klein", lambda: abelian_group([2, 2])),
    ("C5", lambda: cyclic_group(5)),
    ("C6", lambda: cyclic_group(6)),
    ("S3", lambda: symmetric_group(3)),
]


def test_prime_orders_have_exactly_one_brace():
    for p in (2, 3, 5, 7):
        braces = enumerate_braces(cyclic_group(p))
        assert len(braces) == 1
        assert recognize(braces[0].mult) == f"C{p}"


def test_klein_has_four_regular_subgroups():
    braces = enumerate_braces(abelian_group([2, 2]))
    assert len(braces) == 4
    names = sorted(recognize(b.mult) for b in braces)
    assert names == ["C2 x C2", "C4", "C4", "C4"]


def test_raw_counts_small():
    expected = {
        "C1": 1, "C2": 1, "C3": 1, "C4": 2, "Klein": 4, "C5": 1, "C6": 2, "S3": 8,
    }
    for label, build in SMALL:
        assert len(enumerate_braces(build(), cap=20)) == expected[label], label


def test_search_finds_each_subgroup_once():
    subs = [PermutationGroup(6, b.mult.table) for b in enumerate_braces(symmetric_group(3), cap=20)]
    assert len({frozenset(s.elements) for s in subs}) == len(subs) == 8


def test_braces_read_off_the_search_are_the_regular_subgroups():
    # enumerate_braces trusts the search: pin that each circle table is the
    # matching regular subgroup, a group with make_group's generating set,
    # and a brace with g, each against an independent check
    rng = np.random.default_rng(29)
    bases = [g for n in range(4, 13) for g in _abstract_groups_of_order(n)]
    bases += [cyclic_group(16), abelian_group([2, 8]), abelian_group([4, 4])]
    for base in bases:
        sigma = np.concatenate([[0], 1 + rng.permutation(base.order - 1)])
        for g in (base, relabel(base, sigma)):
            hol = set(holomorph(g).elements)
            braces = enumerate_braces(g)
            subs = [PermutationGroup(g.order, b.mult.table) for b in braces]
            assert [s.elements for s in subs] == sorted(s.elements for s in subs)
            for b, sub in zip(braces, subs):
                # row x of the table is the subgroup element sending 0 to x
                assert [p[0] for p in sub.elements] == list(range(g.order))
                assert hol.issuperset(sub.elements)
                again = make_group(b.mult.table)
                assert b.mult.generators == again.generators
                assert np.array_equal(b.mult.inverses, again.inverses)
                assert first_non_associative(b.mult.table) is None
                assert not law_failures(g, b.mult.table)


def test_oracle_agrees_with_holomorph_route_up_to_order_6():
    for label, build in SMALL:
        g = build()
        expected = {
            tuple(tuple(int(v) for v in row) for row in b.mult.table)
            for b in enumerate_braces(g, cap=20)
        }
        assert set(oracle_tables(g)) == expected, label


def test_classify_s3_census():
    census = classify_braces(enumerate_braces(symmetric_group(3), cap=20))
    assert census.raw_count == 8
    shapes = sorted((e.circle_name, e.size) for e in census.entries)
    assert shapes == [("C6", 3), ("C6", 3), ("S3", 1), ("S3", 1)]


def test_classify_refuses_an_empty_list():
    with pytest.raises(ValueError) as exc:
        classify_braces([])
    assert str(exc.value) == "cannot classify an empty brace list"


def test_classify_c6_census():
    census = classify_braces(enumerate_braces(cyclic_group(6)))
    assert sorted((e.circle_name, e.size) for e in census.entries) == [
        ("C6", 1),
        ("S3", 1),
    ]


def test_classify_mixed_additive_groups():
    mixed = enumerate_braces(cyclic_group(6)) + enumerate_braces(
        symmetric_group(3), cap=20
    )
    census = classify_braces(mixed)
    assert census.raw_count == 10
    assert len(census.entries) == 6


def test_census_matches_the_published_counts_up_to_order_15():
    # s(n) skew braces and b(n) braces (abelian additive group) of order n,
    # from Guarnieri and Vendramin, Math. Comp. 86 (2017); 1/1 elsewhere
    published = {
        4: (4, 4), 6: (6, 2), 8: (47, 27), 9: (4, 4),
        10: (6, 2), 12: (38, 10), 14: (6, 2), 15: (1, 1),
    }
    for n in range(1, 16):
        s = b = 0
        for g in _abstract_groups_of_order(n):
            classes = len(classify_braces(enumerate_braces(g)).entries)
            s += classes
            b += classes if g.is_abelian() else 0
        assert (s, b) == published.get(n, (1, 1)), n


def test_abstract_catalog_lists_every_group_up_to_order_31_once():
    # the number of groups of each order n <= 31 (OEIS A000001); a list of
    # that length, pairwise non-isomorphic, holds every type
    counts = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15, 2, 2, 5, 4, 1, 4, 1]
    for n, count in enumerate(counts, start=1):
        groups = _abstract_groups_of_order(n)
        assert [g.order for g in groups] == [n] * count, n
        for i, g in enumerate(groups):
            for h in groups[i + 1:]:
                assert are_isomorphic(g, h) is None, n


def test_census_matches_the_published_counts_from_order_17_to_31():
    # s(n) and b(n) from Guarnieri and Vendramin, Math. Comp. 86 (2017); 1/1
    # at the primes.  test_order_16_census pins order 16 and
    # test_order_27_census b(27) = 37, so that C2^4 and C3^3 are enumerated
    # once: order 27 adds here only its nonabelian groups, s(27) - b(27)
    published = {
        18: (49, 8), 20: (43, 11), 21: (8, 2), 22: (6, 2), 24: (855, 96),
        25: (4, 4), 26: (6, 2), 27: (101 - 37, 0), 28: (29, 9), 30: (36, 4),
    }
    for n in range(17, 32):
        s = b = 0
        for g in _abstract_groups_of_order(n):
            if n == 27 and g.is_abelian():
                continue
            classes = len(classify_braces(enumerate_braces(g)).entries)
            s += classes
            b += classes if g.is_abelian() else 0
        assert (s, b) == published.get(n, (1, 1)), n


def test_classify_matches_the_pairwise_oracle():
    rng = np.random.default_rng(11)
    # pairs of non-isomorphic additive groups of one order, each group
    # under two labellings, plus one table repeated in a new brace
    for pair in ((dihedral_group(4), quaternion_group()), (cyclic_group(6), symmetric_group(3))):
        braces = []
        for g in pair:
            found = enumerate_braces(g)
            picks = rng.choice(len(found), min(len(found), 12), replace=False).tolist()
            for _ in range(2):
                sigma = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
                add = relabel(g, sigma)
                braces += [brace_from_groups(add, relabel(found[i].mult, sigma)) for i in picks]
        again = braces[int(rng.integers(len(braces)))]
        braces.append(brace_from_groups(again.add, again.mult))
        braces = [braces[i] for i in rng.permutation(len(braces)).tolist()]
        assert len({b.add for b in braces}) == 4

        census = classify_braces(braces)
        classes = pairwise_classes(braces)
        assert census.raw_count == len(braces)
        assert [
            (e.brace.add.table.tobytes(), e.brace.mult.table.tobytes(), e.size, e.circle_name)
            for e in census.entries
        ] == [
            (c[0].add.table.tobytes(), c[0].mult.table.tobytes(), len(c), recognize(c[0].mult))
            for c in classes
        ]


def test_classify_finds_each_foreign_isomorphism_once(monkeypatch):
    g = abelian_group([2, 4])
    found = enumerate_braces(g)
    sigma = [0, 3, 5, 1, 7, 2, 6, 4]
    # every brace after the first on one foreign labelling, each built anew
    braces = found[:1] + [
        brace_from_groups(relabel(g, sigma), relabel(b.mult, sigma)) for b in found
    ]
    assert braces[1].add != g
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _isomorphism(*args, **kwargs)

    monkeypatch.setattr(census, "_isomorphism", counted)
    result = classify_braces(braces)
    assert len(calls) == 1
    assert [e.size for e in result.entries] == [
        e.size + (e.brace is found[0]) for e in classify_braces(found).entries
    ]


def _entries(result):
    return [(e.brace.mult.table.tobytes(), e.size, e.circle_name) for e in result.entries]


def _unclassed(braces):
    return [SkewBrace(b.add, b.mult) for b in braces]


def test_classes_from_the_search_match_the_orbit_walk():
    # a brace rebuilt by the constructor carries no class, so its list takes
    # the orbit walk; whole lists and shuffled sublists with repeats agree
    rng = np.random.default_rng(41)
    bases = [g for n in range(1, 13) for g in _abstract_groups_of_order(n)]
    for base in bases + [abelian_group([4, 4]), abelian_group([2, 2, 4])]:
        sigma = np.concatenate([[0], 1 + rng.permutation(base.order - 1)])
        for g in (base, relabel(base, sigma)):
            found = enumerate_braces(g)
            # classes are numbered by first occurrence
            firsts = list(dict.fromkeys(b._census_class for b in found))
            assert firsts == list(range(len(classify_braces(_unclassed(found)).entries)))
            picks = rng.integers(len(found), size=2 * len(found) // 3 + 1).tolist()
            for braces in (found, [found[i] for i in picks]):
                plain = _unclassed(braces)
                assert all(b._census_class is None for b in plain)
                assert _entries(classify_braces(braces)) == _entries(classify_braces(plain))


def test_enumerated_braces_are_classified_without_an_orbit_walk(monkeypatch):
    # the list is enumerated first, and only then does every search of the
    # orbit walk raise
    g = abelian_group([2, 2, 4])
    found = enumerate_braces(g)
    picks = np.random.default_rng(43).integers(len(found), size=500).tolist()
    lists = [found, found[::-1], [found[i] for i in picks], found[5::7] + found[:9]]
    walked = [_entries(classify_braces(_unclassed(braces))) for braces in lists]

    def fail(*args, **kwargs):
        raise AssertionError("enumerated braces need no orbit walk")

    for name in ("_orbit_tables", "_aut_chain", "_isomorphism"):
        monkeypatch.setattr(census, name, fail)
    for braces, expected in zip(lists, walked):
        result = classify_braces(braces)
        assert result.group is g and result.raw_count == len(braces)
        assert _entries(result) == expected
    assert len(walked[0]) == 161


def test_copies_and_mixed_lists_take_the_orbit_walk(monkeypatch):
    # a class means something only beside the braces one search gave on the
    # same additive group object: copies carry none, and a list mixing two
    # group objects is walked, even when their tables are equal
    found = enumerate_braces(cyclic_group(6))
    assert all(b._census_class is not None for b in found)
    for b in found:
        assert b.swapped()._census_class is None
        assert brace_from_groups(b.add, b.mult)._census_class is None
    walks = []
    walk = census._orbit_tables

    def counted(sigma):
        walks.append(sigma)
        return walk(sigma)

    monkeypatch.setattr(census, "_orbit_tables", counted)
    c8 = abelian_group([2, 4])
    same = enumerate_braces(c8) + enumerate_braces(c8)
    for braces, walked in (
        (same, False),
        (found + enumerate_braces(symmetric_group(3), cap=20), True),
        (enumerate_braces(c8) + enumerate_braces(abelian_group([2, 4])), True),
        ([brace_from_groups(b.add, b.mult) for b in found], True),
    ):
        expected = _entries(classify_braces(_unclassed(braces)))
        walks.clear()
        assert _entries(classify_braces(braces)) == expected
        assert bool(walks) == walked


def test_enumerate_shares_g_with_the_translations_brace_alone():
    # the translations' circle table is g's own, and that brace alone takes
    # g itself as its circle group
    for g in (symmetric_group(3), abelian_group([2, 2, 4]), dihedral_group(6)):
        found = enumerate_braces(g)
        shared = [b for b in found if b.mult is b.add]
        assert len(shared) == 1 and shared[0].add is g
        assert [b for b in found if np.array_equal(b.mult.table, g.table)] == shared


def test_realizability_is_symmetric_up_to_order_6():
    for order in (4, 6):
        groups = {
            "C4": cyclic_group(4),
            "Klein": abelian_group([2, 2]),
        } if order == 4 else {
            "C6": cyclic_group(6),
            "S3": symmetric_group(3),
        }
        pairs = set()
        for add_name, g in groups.items():
            for b in enumerate_braces(g, cap=20):
                mult_name = recognize(b.mult)
                lookup = {"C2 x C2": "Klein"}.get(mult_name, mult_name)
                pairs.add((add_name, lookup))
        assert pairs == {(b, a) for a, b in pairs}


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_braces(abelian_group([2, 2]), cap=2)
    with pytest.raises(CapExceeded):
        enumerate_braces(cyclic_group(1), cap=0)


def test_budget_exceeded():
    with pytest.raises(SearchLimitExceeded):
        enumerate_braces(symmetric_group(3), budget=3)


def test_search_node_count_on_c4_x_c4():
    # one node is one candidate generator that passes both filters, is no
    # conjugate of one closed before it at its node, and is closed; 1440
    # nodes find a member of each Aut-class of all 880 (2878 when every
    # conjugate was closed, 6828 when every fixed-point-free candidate was);
    # Aut(g) is listed first, so that the budget counts search nodes alone
    g = abelian_group([4, 4])
    automorphism_group(g)
    with pytest.raises(SearchLimitExceeded) as exc:
        enumerate_braces(g, budget=1439)
    assert "regular subgroup search" in str(exc.value)
    assert len(enumerate_braces(g, budget=1440)) == 880


def test_one_budget_pays_for_the_listing_and_the_search():
    # on a fresh group the call lists Aut(g) (11 order-search nodes and 96
    # listed maps) and then searches (1440 nodes), all from one budget
    listing = _Budget(None, "automorphism search")
    _automorphisms(abelian_group([4, 4]), listing)
    assert listing.nodes == 11 + 96
    with pytest.raises(SearchLimitExceeded, match="regular subgroup search"):
        enumerate_braces(abelian_group([4, 4]), budget=listing.nodes + 1439)
    assert len(enumerate_braces(abelian_group([4, 4]), budget=listing.nodes + 1440)) == 880


def test_classification_spends_one_budget_on_its_isomorphism_tests(monkeypatch):
    # x -> a x mod 27 relabels Heis(3) for a = 1, 2, 4, 5; classifying the
    # trivial braces of the four copies runs the first copy's order search
    # (27 nodes) and an isomorphism search into it from each other copy
    # (8 nodes each), all from the one default budget
    def braces():
        h = heisenberg_group(3)
        return [trivial_brace(relabel(h, np.arange(27) * a % 27)) for a in (1, 2, 4, 5)]

    monkeypatch.setenv("BRACELAB_BUDGET", str(27 + 3 * 8))
    assert len(classify_braces(braces()).entries) == 1
    monkeypatch.setenv("BRACELAB_BUDGET", str(27 + 3 * 8 - 1))
    with pytest.raises(SearchLimitExceeded, match="classification search"):
        classify_braces(braces())


def _cubes_vanish(brace):
    """Whether (a.b).c = 0 for all a, b, c, where a.b = a o b - a - b, read off the tables."""
    add, inv = brace.add.table, brace.add.inverses
    dot = add[add[brace.mult.table, inv[:, None]], inv[None, :]]
    return not dot[dot[:, :, None], np.arange(brace.order)].any()


def test_bachiller_order_p3_classes_are_biskew_as_their_rings_cube_to_zero():
    # per additive group of order p^3 (C5^3 left out for time), the classes
    # that are two-sided, bi-skew and have A^3 = 0; two-sided, not bi-skew
    # and A^3 != 0; bi-skew and not two-sided; and neither.  A^3 is read on
    # two-sided classes only.  The bi-skew classes that are not two-sided
    # are named by circle group and confirmed by the triple scan
    columns = [(True, True, True), (True, False, False), (False, True, None), (False, False, None)]
    expected = {
        (27,): ((2, 1, 0, 0), []),
        (3, 9): ((14, 2, 2, 4), ["M3(3)", "M(3)"]),
        (3, 3, 3): ((8, 1, 1, 2), ["M3(3)"]),
        (125,): ((2, 1, 0, 0), []),
        (5, 25): ((18, 2, 2, 8), ["M3(5)", "M3(5)"]),
        (343,): ((2, 1, 0, 0), []),
    }
    for factors, (counts, exceptional) in expected.items():
        found, odd = {}, []
        for entry in classify_braces(enumerate_braces(abelian_group(factors))).entries:
            b = entry.brace
            two_sided, biskew = is_two_sided(b), is_biskew(b)
            key = (two_sided, biskew, _cubes_vanish(b) if two_sided else None)
            found[key] = found.get(key, 0) + 1
            if biskew and not two_sided:
                assert law_failures(b.mult, b.add.table) == []
                odd.append(entry.circle_name)
        assert found == {k: c for k, c in zip(columns, counts) if c}, factors
        assert odd == exceptional, factors


def test_regular_subgroups_match_the_tuple_closure():
    # every group of order up to 12 and C4 x C4, each also relabelled, and
    # one relabelling each of C16, C2 x C8 and the nonabelian groups of
    # order 16 but C2 x Q8, whose oracle alone takes about a second; the
    # searches of order 16 end mostly in index-2 closures
    rng = np.random.default_rng(17)
    bases = [g for n in range(1, 13) for g in _abstract_groups_of_order(n)]
    cases = []
    for base in bases + [abelian_group([4, 4])]:
        sigma = np.concatenate([[0], 1 + rng.permutation(base.order - 1)])
        cases += [base, relabel(base, sigma)]
    order_16 = [g for name, g in nonabelian_groups_of_order_16().items() if name != "C2 x Q8"]
    for base in [cyclic_group(16), abelian_group([2, 8]), *order_16]:
        cases.append(relabel(base, np.concatenate([[0], 1 + rng.permutation(15)])))
    for g in cases:
        # the oracle runs first, so Aut(g) is cached outside the budget
        expected, nodes = tuple_closure_regular_subgroups(g)
        # a budget must be positive, so a search of 0 or 1 nodes (orders
        # 1 and prime) is pinned at budget 1 alone
        braces = enumerate_braces(g, budget=max(nodes, 1))
        assert [PermutationGroup(g.order, b.mult.table) for b in braces] == expected
        if nodes > 1:
            with pytest.raises(SearchLimitExceeded, match="regular subgroup search"):
                enumerate_braces(g, budget=nodes - 1)


# SHA-256 of enumerate_braces and classify_braces on each group, as the
# stock table and one relabelling: the circle tables and search classes of
# the braces in order, then the size and circle name of each class
CENSUS_DIGESTS = {
    "C2^3": (
        "736e9cf4782d3178a779b140d127180bf20e80803919a145a5a564475b875158",
        "c756f83cd92aa9390eb90dc42854144e67e0a0b98ca8610867fa8075a10db370",
    ),
    "Q8": (
        "e578c08b306fd5dedbc97e4673d20d756a0b55c0d5da14dfbe9de0f8f1737a9c",
        "17b4502e4c9a8aa99df3acdd5118bf89805da80d5edc820401c5b522abd0c6a7",
    ),
    "D6": (
        "375a516f14a72d96862116a0a237e0308e642f18f6a3f28ac0e87763849970f5",
        "b4d34bf289ee9e19cd7909652453d08eab7c5ad12b135368fa50fd3a2193dd10",
    ),
    "C2 x C8": (
        "91e72aa7fb62ccb7725099eb7434001e9aba68547cda712e89d6111e496937bc",
        "f21156c3e62edcaf07275014fc9aeb311b23147bb2749ab9ae0511eb7828c335",
    ),
    "C4 x C4": (
        "4aa7f5d7b03481006cac4e24b3e4ca3aa750170cfe7d87a41f870054805dfe40",
        "0274f495ec0c884bfdc5033c16bd010dbf9d8db6c3be2a4ad0965d069c6a842a",
    ),
    "C2^2 x C4": (
        "db26d54367e454645a0bdd4ecdf2ca3ff9fd4e339a44764560512a902a2c43cd",
        "53c39605ba41ae85cbb6046ce7cd62e812284a04690c971acd530900800f910d",
    ),
}


def _census_digest(g):
    h = hashlib.sha256()
    braces = enumerate_braces(g)
    for b in braces:
        h.update(np.ascontiguousarray(b.mult.table, dtype="<i4").tobytes())
        h.update(b._census_class.to_bytes(4, "little"))
    for e in classify_braces(braces).entries:
        h.update(f"{e.size} {e.circle_name};".encode())
    return h.hexdigest()


def test_census_output_matches_its_pinned_digests():
    rng = np.random.default_rng(45)
    groups = {
        "C2^3": abelian_group([2, 2, 2]),
        "Q8": quaternion_group(),
        "D6": dihedral_group(6),
        "C2 x C8": abelian_group([2, 8]),
        "C4 x C4": abelian_group([4, 4]),
        "C2^2 x C4": abelian_group([2, 2, 4]),
    }
    for name, base in groups.items():
        sigma = np.concatenate([[0], 1 + rng.permutation(base.order - 1)])
        assert (_census_digest(base), _census_digest(relabel(base, sigma))) == CENSUS_DIGESTS[name], name


def test_filtered_candidates_lie_in_no_regular_overgroup():
    # the plain search closes every fixed-point-free candidate; each one
    # the filters drop lies in no regular subgroup it finds that contains
    # the group the candidate was dropped at (any, for a candidate dropped
    # by its cycles), and both searches find the same subgroups
    rng = np.random.default_rng(23)
    bases = [g for n in range(1, 13) for g in _abstract_groups_of_order(n)]
    for base in bases + [abelian_group([4, 4])]:
        sigma = np.concatenate([[0], 1 + rng.permutation(base.order - 1)])
        for g in (base, relabel(base, sigma)):
            plain, plain_nodes = tuple_closure_regular_subgroups(g, filtered=False, pruned=False)
            dropped: list = []
            found, nodes = tuple_closure_regular_subgroups(g, dropped=dropped, pruned=False)
            assert found == plain and nodes <= plain_nodes
            containing: dict = {}
            for sub in plain:
                elements = frozenset(sub.elements)
                for p in elements:
                    containing.setdefault(p, []).append(elements)
            for q, group in dropped:
                assert not any(group <= sub for sub in containing.get(q, [])), (q, group)


def test_pruning_by_conjugates_loses_no_regular_subgroup():
    # closing one candidate per stabiliser orbit and conjugating the leaves
    # by every automorphism finds what closing every candidate finds
    rng = np.random.default_rng(31)
    bases = [g for n in range(1, 13) for g in _abstract_groups_of_order(n)]
    for base in bases + [abelian_group([4, 4])]:
        sigma = np.concatenate([[0], 1 + rng.permutation(base.order - 1)])
        for g in (base, relabel(base, sigma)):
            pruned, nodes = tuple_closure_regular_subgroups(g)
            full, full_nodes = tuple_closure_regular_subgroups(g, pruned=False)
            assert pruned == full and nodes <= full_nodes


def test_order_27_census():
    # b(27) = 37 (Guarnieri and Vendramin, Math. Comp. 86, 2017) under the
    # default budget and cap; C3^3 needs 1004 nodes (65 411 when every
    # conjugate candidate was closed)
    counts = []
    for factors, raw in (([27], 9), ([3, 9], 135), ([3, 3, 3], 3537)):
        braces = enumerate_braces(abelian_group(factors))
        assert len(braces) == raw, factors
        counts.append(len(classify_braces(braces).entries))
    assert counts == [3, 22, 12]


def test_order_16_census():
    # b(16) = 357 and s(16) = 1605 (Guarnieri and Vendramin, Math. Comp. 86,
    # 2017) under the default budget; C2^4 has 62 896 regular subgroups in
    # its holomorph, past the default cap
    b = 0
    for factors in ([16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2]):
        b += len(classify_braces(enumerate_braces(abelian_group(factors), cap=100_000)).entries)
    assert b == 357
    s = b + sum(
        len(classify_braces(enumerate_braces(g)).entries)
        for g in nonabelian_groups_of_order_16().values()
    )
    assert s == 1605


def test_recognize_names_every_nonabelian_group_of_order_16():
    built = nonabelian_groups_of_order_16()
    for name, g in built.items():
        assert recognize(g) == name
    names = list(built)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            assert are_isomorphic(built[first], built[second]) is None, (first, second)
    seen = set()
    for factors in ([16], [2, 8], [4, 4]):
        entries = classify_braces(enumerate_braces(abelian_group(factors))).entries
        for e in entries:
            assert e.circle_name != "unrecognized", factors
            if not e.brace.mult.is_abelian():
                assert are_isomorphic(e.brace.mult, built[e.circle_name]) is not None
                seen.add(e.circle_name)
    assert seen == set(built)


def test_budget_reaches_the_automorphism_search():
    # a fresh group has no automorphisms cached, so the call lists them
    # from its own budget: 14 order-search nodes and 480 listed maps on
    # Aut(C5^2), and the error names the call's search
    with pytest.raises(SearchLimitExceeded) as exc:
        enumerate_braces(abelian_group([5, 5]), cap=10**6, budget=493)
    assert "regular subgroup search" in str(exc.value)


def test_budget_error_names_the_argument_that_set_it():
    with pytest.raises(SearchLimitExceeded) as exc:
        enumerate_braces(abelian_group([5, 5]), cap=10**6, budget=493)
    message = str(exc.value)
    assert "budget=" in message and "--budget" in message
    assert "when neither is given, the BRACELAB_BUDGET environment variable" in message

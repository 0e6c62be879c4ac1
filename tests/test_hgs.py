import numpy as np
import pytest

from bracelab import groups
from bracelab.algebras import catalog, cyclic_ring, to_brace
from bracelab.braces import make_brace, opposite_brace, trivial_brace
from bracelab.errors import NotBiskew, SearchLimitExceeded
from bracelab.groups import _Budget, _aut_chain, symmetric_group
from bracelab.hgs import count_hgs, reciprocity_check


def mod4_brace():
    star = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    circ = [[(i + j + 2 * i * j) % 4 for j in range(4)] for i in range(4)]
    return make_brace(star, circ)


def test_count_mod4():
    r = count_hgs(mod4_brace())
    assert (r.galois_name, r.type_name) == ("C2 x C2", "C4")
    assert (r.aut_mult, r.aut_add, r.aut_brace) == (6, 2, 2)
    assert r.count == 3


def test_reciprocity_mod4():
    r = reciprocity_check(mod4_brace())
    assert (r.count_forward, r.count_swapped) == (3, 1)
    assert r.balanced


def test_count_trivial_brace_is_one():
    r = count_hgs(trivial_brace(symmetric_group(3)))
    assert r.count == 1
    assert r.aut_brace == r.aut_mult == 6


def test_opposite_brace_count_s3():
    r = count_hgs(opposite_brace(symmetric_group(3)))
    # automorphisms of the pair = automorphisms of the group itself
    assert r.aut_brace == 6
    assert r.count == 1
    rec = reciprocity_check(opposite_brace(symmetric_group(3)))
    assert rec.balanced


def test_count_degraaf_3():
    r = count_hgs(to_brace(catalog("degraaf_A340", 3)))
    assert (r.galois_name, r.type_name) == ("M(3)", "C3 x C3 x C3")
    assert (r.aut_mult, r.aut_add, r.aut_brace) == (432, 11232, 36)
    assert r.count == 12
    assert r.aut_add == 26 * r.aut_mult


def test_reciprocity_degraaf_3():
    r = reciprocity_check(to_brace(catalog("degraaf_A340", 3)))
    assert (r.count_forward, r.count_swapped) == (12, 312)
    assert r.count_forward * r.aut_add == r.count_swapped * r.aut_mult == 134784
    assert r.balanced


def test_count_degraaf_5_within_a_small_budget():
    # orbit-stabiliser counts need a few thousand nodes each here, where
    # listing Aut(C5^3) = GL(3, 5) would need over a million maps
    p = 5
    b = to_brace(catalog("degraaf_A340", p))
    r = count_hgs(b, budget=20_000)
    assert (r.galois_name, r.type_name) == ("M(5)", "C5 x C5 x C5")
    assert r.aut_add == (p**3 - 1) * (p**3 - p) * (p**3 - p**2) == 1_488_000
    assert r.aut_mult == p**2 * (p**2 - 1) * (p**2 - p) == 12_000
    assert (r.aut_brace, r.count) == (400, 30)
    rec = reciprocity_check(b, budget=20_000)
    assert (rec.count_forward, rec.count_swapped) == (30, 3720)
    assert rec.balanced


def test_brace_count_runs_under_the_caller_budget():
    # the group counts need exactly 61 (additive) and 12 (circle) nodes and
    # the brace count 46 (61, 40 and 76 before candidates were filtered by
    # centraliser size); with the group counts cached on b, a budget of 45
    # stops the brace count alone
    b = to_brace(catalog("degraaf_A340", 3))
    for table, nodes, order in ((b.add, 61, 11232), (b.mult, 12, 432)):
        with pytest.raises(SearchLimitExceeded, match="automorphism order search"):
            _aut_chain(table, _Budget(nodes - 1, "automorphism order search"))
        assert _aut_chain(table, _Budget(nodes, "count"))[0] == order
    with pytest.raises(SearchLimitExceeded, match="automorphism order search") as exc:
        count_hgs(b, budget=45)
    assert exc.value.budget == 45
    assert count_hgs(b, budget=46).aut_brace == 36


def test_one_budget_pays_for_all_three_counts():
    # on a fresh brace the three order searches spend 61 + 12 + 46 = 119
    # nodes from the caller's one budget, so one node fewer fails
    with pytest.raises(SearchLimitExceeded, match="automorphism order search") as exc:
        count_hgs(to_brace(catalog("degraaf_A340", 3)), budget=118)
    assert exc.value.budget == 118
    r = count_hgs(to_brace(catalog("degraaf_A340", 3)), budget=119)
    assert (r.count, r.aut_brace) == (12, 36)


def test_count_cyclic_r2():
    r = count_hgs(to_brace(cyclic_ring(3, 2)))
    assert (r.aut_mult, r.aut_add, r.aut_brace) == (18, 18, 9)
    assert r.count == 2
    rec = reciprocity_check(to_brace(cyclic_ring(3, 2)))
    assert rec.count_forward == rec.count_swapped == 2
    assert rec.balanced


def test_reciprocity_rejects_one_sided_brace():
    with pytest.raises(NotBiskew):
        reciprocity_check(to_brace(cyclic_ring(3, 1)))


def test_report_lines_are_ordered_pairs():
    lines = count_hgs(mod4_brace()).lines()
    assert [k for k, _ in lines] == [
        "galois_group",
        "type",
        "aut_mult",
        "aut_add",
        "aut_brace",
        "count",
    ]



def test_count_searches_read_each_groups_own_column_lists(monkeypatch):
    # the three chains of a count read the column lists kept on the two
    # groups: the brace chain both of them, and a second count none anew
    b = to_brace(catalog("degraaf_A340", 3))
    assert not np.array_equal(b.add.table, b.mult.table)
    searches = []

    class Recorded(groups._HomSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    def read_kept_lists():
        for search in searches:
            for g, (s_cols, d_cols) in zip(search.src, search.cols):
                assert s_cols is d_cols is g._cols is kept[g]

    monkeypatch.setattr("bracelab.groups._HomSearch", Recorded)
    report = count_hgs(b)
    kept = {b.add: b.add._cols, b.mult: b.mult._cols}
    assert len(searches) == 3 and {len(s.src) for s in searches} == {1, 2}
    read_kept_lists()
    searches.clear()
    assert count_hgs(b) == report and searches == []
    # with the orders forgotten, all three chains search again over the same lists
    b._chain = b.add._chain = b.mult._chain = None
    assert count_hgs(b) == report and len(searches) == 3
    read_kept_lists()

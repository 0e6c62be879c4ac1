import numpy as np
import pytest

from bracelab import braces
from bracelab.braces import (
    CounterexampleTriple,
    SkewBrace,
    _owner,
    are_brace_isomorphic,
    brace_automorphism_group,
    brace_from_groups,
    exponent_compare,
    find_axiom_failures,
    is_biskew,
    is_two_sided,
    l_map,
    make_brace,
    opposite_brace,
    prepare_brace_groups,
    square_agreement_set,
    trivial_brace,
    validate_direct,
    validate_via_holomorph,
)
from bracelab.census import enumerate_braces
from bracelab.errors import (
    BraceAxiomFailure,
    IdentityMismatch,
    InvalidTableError,
    NoIdentityError,
    SearchLimitExceeded,
)
from bracelab.algebras import catalog, to_brace
from bracelab.groups import (
    FiniteGroup,
    _Budget,
    _aut_chain,
    abelian_group,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    heisenberg_group,
    m3_group,
    make_group,
    recognize,
    subgroup_closure,
    symmetric_group,
)
from oracles import (
    _abstract_groups_of_order,
    abelian_image_endomorphisms,
    filtered_brace_automorphisms,
    holomorph_scan,
    law_failures,
    product_scan_isomorphism,
    quaternion_group,
    relabel,
    searched_automorphisms,
)
from test_acceptance import (
    CATALOG_SWEEP,
    order36_factorization_brace,
    s3_factorization_brace,
    s4_factorization_brace,
    seeded_pairs,
)


def mod4_ring_brace():
    """Addition mod 4 with circle x + y + 2xy; a nilpotent-ring brace."""
    star = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    circ = [[(i + j + 2 * i * j) % 4 for j in range(4)] for i in range(4)]
    return make_brace(star, circ)


def scrambled_c4():
    """A cyclic table relabeled by a non-automorphism (1 <-> 2 swap)."""
    sigma = [0, 2, 1, 3]
    return make_group(
        [[sigma[(sigma[i] + sigma[j]) % 4] for j in range(4)] for i in range(4)]
    )


def test_mod4_ring_brace_is_valid_and_biskew():
    b = mod4_ring_brace()
    assert recognize(b.add) == "C4"
    assert recognize(b.mult) == "C2 x C2"
    assert is_biskew(b)


def test_trivial_brace_properties():
    b = trivial_brace(symmetric_group(3))
    assert is_biskew(b)
    assert is_two_sided(b)
    assert brace_automorphism_group(b).order == 6


def test_brace_automorphism_group_is_cached_on_the_brace():
    b = mod4_ring_brace()
    auts = brace_automorphism_group(b)
    assert brace_automorphism_group(b) is auts
    # both orientations have the same automorphisms
    assert brace_automorphism_group(b.swapped()) is auts


def test_trivial_brace_shares_its_group_automorphisms():
    # both operations are one group, so the group owns the listing
    g = symmetric_group(3)
    assert brace_automorphism_group(trivial_brace(g)) is automorphism_group(g)


def test_brace_automorphisms_match_the_table_filter():
    braces = [
        b for n in range(4, 13) for g in _abstract_groups_of_order(n) for b in enumerate_braces(g)
    ]
    rng = np.random.default_rng(5)
    for name, p, params in (
        ("truncated_poly", 2, {"m": 3}),
        ("truncated_poly", 3, {"m": 2}),
        ("cyclic", 3, {"r": 1}),
        ("degraaf_A340", 3, {}),
    ):
        b = to_brace(catalog(name, p, **params))
        sigma = np.concatenate([[0], 1 + rng.permutation(b.order - 1)])
        braces.append(brace_from_groups(relabel(b.add, sigma), relabel(b.mult, sigma)))
    for b in braces:
        # counted first: the listing then closes the maps the count kept
        order = _aut_chain(_owner(b), _Budget(None, "count"))[0]
        assert brace_automorphism_group(b) == filtered_brace_automorphisms(b)
        assert order == len(brace_automorphism_group(b))


def test_brace_closure_listing_matches_the_search_listing():
    # the degraaf_A340 brace at p = 7 is left out: its search listing
    # alone takes about 5 s
    braces = [
        to_brace(catalog(name, p, **kw))
        for name, p, kw in CATALOG_SWEEP
        if (name, p) != ("degraaf_A340", 7)
    ]
    braces += [s3_factorization_brace(), order36_factorization_brace()]
    for b in braces:
        assert brace_automorphism_group(b) == searched_automorphisms([b.add, b.mult])


def test_brace_automorphism_group_lists_inside_a_small_budget(monkeypatch):
    # one order search over both tables (46 nodes) and one node per listed
    # map (36) list the brace automorphisms in 82 nodes, where listing
    # Aut(C3^3) = GL(3,3) alone would need far more
    def listed():
        return brace_automorphism_group(to_brace(catalog("degraaf_A340", 3)))

    monkeypatch.setenv("BRACELAB_BUDGET", "2000")
    auts = listed()
    monkeypatch.setenv("BRACELAB_BUDGET", "82")
    assert listed() == auts
    monkeypatch.setenv("BRACELAB_BUDGET", "81")
    with pytest.raises(SearchLimitExceeded, match="brace automorphism search"):
        listed()
    monkeypatch.delenv("BRACELAB_BUDGET")
    assert len(auts) == 36
    assert auts == filtered_brace_automorphisms(to_brace(catalog("degraaf_A340", 3)))


def test_brace_automorphism_group_runs_under_the_caller_budget(monkeypatch):
    # the caller's budget= overrides the variable, as in every other search
    monkeypatch.setenv("BRACELAB_BUDGET", "2000")
    b = to_brace(catalog("degraaf_A340", 3))
    with pytest.raises(SearchLimitExceeded, match="brace automorphism search") as exc:
        brace_automorphism_group(b, budget=81)
    assert exc.value.budget == 81
    monkeypatch.setenv("BRACELAB_BUDGET", "1")
    assert len(brace_automorphism_group(b, budget=82)) == 36


def test_brace_aut_order_is_shared_with_the_swapped_brace(monkeypatch):
    b = mod4_ring_brace()
    assert _aut_chain(_owner(b), _Budget(None, "count"))[0] == 2

    def fail(*args):
        raise AssertionError("brace automorphisms counted again")

    monkeypatch.setattr("bracelab.groups._HomSearch", fail)
    swapped = _owner(b.swapped())
    assert _aut_chain(_owner(b), _Budget(None, "count"))[0] == 2
    assert _aut_chain(swapped, _Budget(None, "count"))[0] == 2


def test_koch_abelian_maps_give_biskew_braces():
    # Koch (Proc. AMS Ser. B 8, 2021): for an endomorphism psi of G with
    # abelian image, g o h = g psi(g)^-1 h psi(g) is a bi-skew brace on G.
    # Every group of order 15 or less has 916 such maps; C2^4 alone has
    # 65,536, so order 16 is left out
    groups = [g for n in range(1, 16) for g in _abstract_groups_of_order(n)]
    maps = 0
    for g in groups:
        t, x = g.table, np.arange(g.order)
        for psi in abelian_image_endomorphisms(g):
            p = np.array(psi)
            # row x: x psi(x)^-1 times column h: h psi(x)
            circle = t[t[x, g.inverses[p]][:, None], t[:, p].T]
            assert is_biskew(brace_from_groups(g, make_group(circle)))
            maps += 1
    assert (len(groups), maps) == (28, 916)


def test_opposite_brace_is_biskew_and_two_sided():
    b = opposite_brace(symmetric_group(3))
    assert is_biskew(b)
    assert is_two_sided(b)


def test_validate_direct_accepts_and_rejects():
    good = mod4_ring_brace()
    assert validate_direct(good.add, good.mult) is None
    assert validate_direct(cyclic_group(4), scrambled_c4()) is not None


def test_validators_agree_on_first_failure():
    c4 = cyclic_group(4)
    bad = scrambled_c4()
    ct = validate_direct(c4, bad)
    hw = validate_via_holomorph(c4, bad)
    assert ct is not None and hw is not None
    assert hw.element == ct.a
    assert (hw.x, hw.y) == (ct.b, ct.c)
    # the reported sides really are the two sides of the law
    lhs = bad.mul(ct.a, c4.mul(ct.b, ct.c))
    rhs = c4.mul(c4.mul(bad.mul(ct.a, ct.b), c4.inv(ct.a)), bad.mul(ct.a, ct.c))
    assert (ct.left, ct.right) == (lhs, rhs)
    assert ct.left != ct.right


def test_holomorph_route_matches_the_full_scan():
    pairs = seeded_pairs()
    seeded = len(pairs)
    braces = [to_brace(catalog(name, p, **kw)) for name, p, kw in CATALOG_SWEEP]
    braces += [s3_factorization_brace(), order36_factorization_brace()]
    for b in braces:
        pairs += [(b.add, b.mult), (b.mult, b.add)]
    verdicts = [validate_via_holomorph(add, mult) for add, mult in pairs]
    assert verdicts == [holomorph_scan(add, mult) for add, mult in pairs]
    # both outcomes among the seeded pairs and among the braces
    for part in (verdicts[:seeded], verdicts[seeded:]):
        assert None in part and any(part)


def _respects_addition(add, mult, a):
    disp = add.table[add.inverses[a]][mult.table[a]]
    return np.array_equal(disp[add.table], add.table[np.ix_(disp, disp)])


def test_holomorph_route_falls_back_to_the_first_failing_element():
    fallbacks = 0
    for add, mult in seeded_pairs():
        expected = holomorph_scan(add, mult)
        if expected is None:
            continue
        # the maps of the generators alone decide the verdict
        assert not all(_respects_addition(add, mult, g) for g in mult.generators)
        # make_group's generators are picked greedily, each the smallest
        # element the earlier ones do not generate, so the first failing
        # element is itself a generator; the same table with every other
        # nonidentity element as its generating set, which still generates
        # from order 3 on, puts it outside
        assert expected.element in mult.generators
        if mult.order < 3:
            continue
        others = tuple(a for a in range(1, mult.order) if a != expected.element)
        rewrapped = FiniteGroup(mult.table)
        rewrapped._generators = others
        first_failing_generator = next(
            g for g in others if not _respects_addition(add, mult, g)
        )
        assert first_failing_generator > expected.element
        assert validate_via_holomorph(add, rewrapped) == expected
        fallbacks += 1
    assert fallbacks >= 300


def test_find_axiom_failures_matches_first_witness():
    c4 = cyclic_group(4)
    bad = scrambled_c4()
    ct = validate_direct(c4, bad)
    failures = find_axiom_failures(c4, bad)
    assert failures[0] == ct
    only = find_axiom_failures(c4, bad, sides=(ct.left, ct.right), limit=1)
    assert only[0] == ct


def test_make_brace_raises_axiom_failure():
    c4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(BraceAxiomFailure) as exc:
        make_brace(c4, scrambled_c4().table.tolist())
    w = exc.value.witness
    assert w.left != w.right


def test_make_brace_identity_mismatch():
    shifted = [[0] * 4 for _ in range(4)]
    sigma = [1, 0, 2, 3]
    for i in range(4):
        for j in range(4):
            shifted[sigma[i]][sigma[j]] = sigma[(i + j) % 4]
    plain = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(IdentityMismatch):
        make_brace(shifted, plain)


def refuse(*args):
    raise AssertionError("validation went past the shape and order checks")


@pytest.mark.parametrize(
    "add, mult, message",
    [
        ([[0]], [[0, 1], [1, 0]], "tables must have matching shapes, got (1, 1) and (2, 2)"),
        ([[0, 1]], [[0, 1]], "tables must be square, got shape (1, 2)"),
    ],
)
def test_prepare_brace_groups_checks_shapes_before_either_table(monkeypatch, add, mult, message):
    for name in ("make_group", "_table_entries", "_group"):
        monkeypatch.setattr(f"bracelab.braces.{name}", refuse)
    with pytest.raises(InvalidTableError) as exc:
        prepare_brace_groups(add, mult)
    assert str(exc.value) == message


def test_make_brace_rejects_non_integral_entries():
    # such entries were once truncated, so this pair passed as a brace on C2
    c2, bad = [[0, 1], [1, 0]], [[0, 1.7], [1, 0]]
    for add, mult in ((bad, c2), (c2, bad)):
        with pytest.raises(InvalidTableError, match=r"^table entry 1\.7 at \(0, 1\) is not an"):
            make_brace(add, mult)
    b = make_brace([[0.0, 1.0], [1.0, 0.0]], [[0, 1], [1, 0]])
    assert b.add is b.mult and b.add.table.tolist() == [[0, 1], [1, 0]]


def test_prepare_brace_groups_reports_the_additive_table_first():
    # each table is converted once, but the errors come in the order of
    # make_group on the additive table, then on the circle table
    with pytest.raises(NoIdentityError):
        prepare_brace_groups([[1, 0], [0, 0]], [[0, 2], [2, 0]])
    with pytest.raises(InvalidTableError, match=r"^table entries must lie in 0\.\.1$"):
        prepare_brace_groups([[0, 1], [1, 0]], [[0, 2], [2, 0]])
    with pytest.raises(NoIdentityError):
        prepare_brace_groups([[0, 1], [1, 0]], [[1, 0], [0, 0]])


def test_unequal_orders_are_no_brace_and_no_brace_isomorphism(monkeypatch):
    with pytest.raises(InvalidTableError) as exc:
        brace_from_groups(cyclic_group(2), cyclic_group(3))
    assert str(exc.value) == "operations have different orders 2 and 3"
    b2, b3 = trivial_brace(cyclic_group(2)), trivial_brace(cyclic_group(3))
    monkeypatch.setattr("bracelab.braces._HomSearch", refuse)
    assert are_brace_isomorphic(b2, b3) is None


def test_make_brace_relabels_both_tables_together():
    b = mod4_ring_brace()
    sigma = [2, 1, 0, 3]
    star = [[0] * 4 for _ in range(4)]
    circ = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            star[sigma[i]][sigma[j]] = sigma[b.add.mul(i, j)]
            circ[sigma[i]][sigma[j]] = sigma[b.mult.mul(i, j)]
    recovered = make_brace(star, circ)
    assert np.array_equal(recovered.add.table, b.add.table)
    assert np.array_equal(recovered.mult.table, b.mult.table)


def test_l_map_values_and_law():
    b = mod4_ring_brace()
    rep = l_map(b)
    rep.verify()
    # displacement by a is multiplication by 1 + 2a mod 4
    assert rep.perms == ((0, 1, 2, 3), (0, 3, 2, 1), (0, 1, 2, 3), (0, 3, 2, 1))


def test_swapped_orientation_caching():
    b = mod4_ring_brace()
    assert is_biskew(b)
    s = b.swapped()
    assert s.add is b.mult
    assert validate_direct(s.add, s.mult) is None


def test_brace_automorphism_group_mod4():
    b = mod4_ring_brace()
    assert brace_automorphism_group(b).order == 2


def test_exponent_compare_mod4():
    rep = exponent_compare(mod4_ring_brace())
    assert rep.add_exponent == 4
    assert rep.mult_exponent == 2
    assert rep.first_mismatch == (1, 4, 2)
    assert not rep.orders_agree


def test_square_agreement_mod4():
    assert square_agreement_set(mod4_ring_brace()) == [0, 2]


def test_two_sided_mod4():
    assert is_two_sided(mod4_ring_brace())


def test_are_brace_isomorphic():
    b = mod4_ring_brace()
    # transport both tables along the Klein automorphism swapping 1 and 2
    tau = [0, 2, 1, 3]
    star = [[0] * 4 for _ in range(4)]
    circ = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            star[tau[i]][tau[j]] = tau[b.add.mul(i, j)]
            circ[tau[i]][tau[j]] = tau[b.mult.mul(i, j)]
    other = make_brace(star, circ)
    assert are_brace_isomorphic(b, other) is not None
    assert are_brace_isomorphic(b, trivial_brace(cyclic_group(4))) is None


def test_are_brace_isomorphic_returns_first_map_of_the_plain_scan():
    rng = np.random.default_rng(5)
    braces = enumerate_braces(abelian_group([2, 2, 2]), cap=300)
    for b in braces + [to_brace(catalog("degraaf_A340", 3))]:
        sigma = [0] + list(1 + rng.permutation(b.order - 1))
        other = brace_from_groups(relabel(b.add, sigma), relabel(b.mult, sigma))
        found = are_brace_isomorphic(b, other)
        assert found is not None
        assert found == product_scan_isomorphism([b.add, b.mult], [other.add, other.mult])


def _tuples(witnesses):
    return [(w.a, w.b, w.c, w.left, w.right) for w in witnesses]


def _groups_by_order():
    """Groups of order 8 to 27, one list per order."""
    return [
        [cyclic_group(8), abelian_group([2, 4]), abelian_group([2, 2, 2]), dihedral_group(4),
         quaternion_group()],
        [cyclic_group(9), abelian_group([3, 3])],
        [cyclic_group(12), abelian_group([2, 6]), dihedral_group(6)],
        [abelian_group([4, 4]), abelian_group([2, 2, 2, 2]), dihedral_group(8)],
        [cyclic_group(18), direct_product(symmetric_group(3), cyclic_group(3))],
        [abelian_group([3, 3, 3]), heisenberg_group(3), m3_group(3), cyclic_group(27)],
    ]


def test_law_kernel_matches_the_triple_scan():
    rng = np.random.default_rng(13)
    pairs = []
    for groups in _groups_by_order():
        for add in groups:
            for j in rng.integers(len(groups), size=2):
                sigma = [0] + list(1 + rng.permutation(add.order - 1))
                pairs.append((add, relabel(groups[j], sigma)))
    # braces, relabelled as a whole, where the law holds in one orientation
    braces = enumerate_braces(abelian_group([2, 2, 2]), cap=300)[::29]
    braces.append(to_brace(catalog("degraaf_A340", 3)))
    for b in braces:
        sigma = [0] + list(1 + rng.permutation(b.order - 1))
        pairs.append((relabel(b.add, sigma), relabel(b.mult, sigma)))
    holding = 0
    for add, mult in pairs:
        expected = law_failures(add, mult.table)
        holding += not expected
        assert _tuples(find_axiom_failures(add, mult)) == expected
        assert _tuples(find_axiom_failures(add, mult, limit=3)) == expected[:3]
        if expected:
            sides = expected[-1][3:]
            assert _tuples(find_axiom_failures(add, mult, sides=sides)) == [
                w for w in expected if w[3:] == sides
            ]
        first = validate_direct(add, mult)
        assert _tuples([first] if first else []) == expected[:1]
        brace = SkewBrace(add, mult)
        assert is_biskew(brace) == (not law_failures(mult, add.table))
        assert is_two_sided(brace) == (not law_failures(add, mult.table.T))
    assert len(braces) <= holding < len(pairs)


def test_equal_tables_share_one_group():
    # brace_from_groups gives equal tables one group, and with it one cache
    # of automorphisms; the unvalidated constructor keeps what it is given
    for g in (symmetric_group(3), abelian_group([2, 4]), heisenberg_group(3)):
        b = trivial_brace(g)
        assert b.mult is b.add is g
        copy = brace_from_groups(g, make_group(g.table.copy()))
        assert copy.mult is copy.add is g
        mult = make_group(g.table.copy())
        assert SkewBrace(g, mult).mult is mult
    for g in (cyclic_group(6), abelian_group([2, 2, 2])):
        b = opposite_brace(g)
        assert b.mult is b.add
    b = opposite_brace(symmetric_group(3))
    assert b.mult is not b.add


def test_trivial_brace_of_klein_aut_count():
    b = trivial_brace(abelian_group([2, 2]))
    assert brace_automorphism_group(b).order == 6


def test_first_failure_below_every_failing_generator():
    # with make_group's generators the first failing element is always one
    # of them; given only generators above it, the kernel's backward scan
    # from the smallest failing generator must still find it
    rng = np.random.default_rng(29)
    pairs = seeded_pairs()[:200]
    for groups in _groups_by_order():
        for add in groups:
            for mult in groups:
                sigma = [0] + list(1 + rng.permutation(add.order - 1))
                pairs.append((add, relabel(mult, sigma)))
    backward = 0
    for add, mult in pairs:
        expected = law_failures(add, mult.table)
        if not expected:
            continue
        a = expected[0][0]
        above = tuple(range(a + 1, mult.order))
        if len(subgroup_closure(mult, above)) < mult.order:
            continue
        rewrapped = FiniteGroup(mult.table)
        rewrapped._generators = above
        assert min(g for g in above if not _respects_addition(add, mult, g)) > a
        assert validate_direct(add, rewrapped) == CounterexampleTriple(*expected[0])
        assert validate_via_holomorph(add, rewrapped) == holomorph_scan(add, mult)
        backward += 1
    assert backward >= 100


def test_two_sided_on_factorization_braces():
    # the circle groups are C3 x C2 (two-sided), S3 x S3 and S3 x C4
    # (neither): the opposite group is a different table from the circle
    # group only in the last two
    rng = np.random.default_rng(31)
    verdicts = []
    for b in (s3_factorization_brace(), order36_factorization_brace(), s4_factorization_brace()):
        sigma = [0] + list(1 + rng.permutation(b.order - 1))
        for add, mult in ((b.add, b.mult), (relabel(b.add, sigma), relabel(b.mult, sigma))):
            verdict = is_two_sided(SkewBrace(add, mult))
            assert verdict == (not law_failures(add, mult.table.T))
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_a_holding_verdict_checks_only_the_circle_generators(monkeypatch):
    rows = []
    kernel = braces._respects_addition

    def spy(add, m_t, asked):
        rows.append(len(asked))
        return kernel(add, m_t, asked)

    monkeypatch.setattr(braces, "_respects_addition", spy)
    for b in (to_brace(catalog("degraaf_A340", 3)), s3_factorization_brace(), mod4_ring_brace()):
        for check in (
            lambda: validate_direct(b.add, b.mult) is None,
            lambda: validate_via_holomorph(b.add, b.mult) is None,
            lambda: is_two_sided(SkewBrace(b.add, b.mult)),
        ):
            rows.clear()
            assert check()
            assert rows == [len(b.mult.generators)]

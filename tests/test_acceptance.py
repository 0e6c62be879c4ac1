"""Acceptance gate: eleven end-to-end checks, one verdict line each.

Every frozen number below was computed with this library and, where an
independent route exists (brute-force bijection search, transported-table
oracles, closed-form formulas), cross-checked against it before being
written down.  Randomized sweeps use fixed seeds so runs are repeatable.
"""
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

from bracelab.algebras import (
    NilpotentAlgebra,
    catalog,
    cubes_vanish,
    cyclic_ring,
    make_algebra,
    power_ideal_dims,
    quasi_inverse,
    to_brace,
)
from bracelab.braces import (
    exponent_compare,
    is_biskew,
    is_two_sided,
    make_brace,
    opposite_brace,
    square_agreement_set,
    trivial_brace,
    validate_direct,
    validate_via_holomorph,
)
from bracelab.census import enumerate_braces
from bracelab.cli import main as cli_main
from bracelab.errors import (
    BraceLabError,
    NotNilpotent,
    QuasiInverseMissing,
)
from bracelab.factorizations import (
    circle_from_factorization,
    demo_s4,
    validate_factorization,
)
from bracelab.groups import (
    abelian_group,
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_permutations,
    heisenberg_group,
    make_group,
    recognize,
    semidirect_product,
    subgroup_closure,
    symmetric_group,
)
from bracelab.hgs import reciprocity_check
from bracelab.perms import all_perms, parse_cycles
from oracles import brute_force_automorphisms, holomorph_scan, law_failures, oracle_tables


@contextmanager
def verdict(num: int, slug: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d} {slug}: FAIL")
        raise
    print(f"acceptance {num:02d} {slug}: PASS")


# shared constructions ------------------------------------------------------

_QUAT = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]


def s3_factorization_brace():
    s3 = symmetric_group(3)
    index = {p: i for i, p in enumerate(all_perms(3))}
    f = validate_factorization(
        s3,
        subgroup_closure(s3, [index[parse_cycles("(123)", 3)]]),
        subgroup_closure(s3, [index[parse_cycles("(12)", 3)]]),
    )
    return circle_from_factorization(f)


def order36_factorization_brace():
    s3 = symmetric_group(3)
    auts = automorphism_group(s3)
    actor = group_from_permutations(auts)
    g = semidirect_product(s3, actor, list(auts.elements))
    f = validate_factorization(g, [h * 6 for h in range(6)], list(range(6)))
    return circle_from_factorization(f)


def s4_factorization_brace():
    g = symmetric_group(4)
    perms = all_perms(4)
    index = {p: i for i, p in enumerate(perms)}
    fix_last = [i for i, p in enumerate(perms) if p[3] == 3]
    four_cycle = subgroup_closure(g, [index[parse_cycles("(1234)", 4)]])
    return circle_from_factorization(validate_factorization(g, fix_last, four_cycle))


def mod4_ring_brace():
    star = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    circ = [[(i + j + 2 * i * j) % 4 for j in range(4)] for i in range(4)]
    return make_brace(star, circ)


# the catalog algebras whose braces test_03 checks, as (name, p, keywords)
CATALOG_SWEEP = [
    ("degraaf_A340", 3, {}), ("degraaf_A340", 5, {}), ("degraaf_A340", 7, {}),
    ("truncated_poly", 2, {"m": 2}), ("truncated_poly", 2, {"m": 3}),
    ("truncated_poly", 2, {"m": 4}), ("truncated_poly", 3, {"m": 2}),
    ("truncated_poly", 3, {"m": 3}), ("truncated_poly", 3, {"m": 4}),
    ("truncated_poly", 5, {"m": 2}), ("truncated_poly", 5, {"m": 3}),
    ("cyclic", 3, {"r": 1}), ("cyclic", 3, {"r": 2}),
    ("cyclic", 5, {"r": 1}), ("cyclic", 5, {"r": 2}),
    ("cyclic", 7, {"r": 1}), ("cyclic", 7, {"r": 2}),
]


def seeded_pairs():
    """1000 pairs of independently relabeled groups of one order from 2 to 6."""
    by_order = {
        2: [cyclic_group(2)], 3: [cyclic_group(3)],
        4: [cyclic_group(4), abelian_group([2, 2])], 5: [cyclic_group(5)],
        6: [cyclic_group(6), symmetric_group(3)],
    }

    def relabeled(table, rng):
        n = len(table)
        sigma = np.array([0] + rng.sample(range(1, n), n - 1), dtype=np.int64)
        inv = np.argsort(sigma)
        return make_group(sigma[np.asarray(table)[inv][:, inv]])

    rng = random.Random(424242)
    pairs = []
    for _ in range(1000):
        n = rng.choice([2, 3, 4, 5, 6])
        pairs.append(
            (
                relabeled(rng.choice(by_order[n]).table, rng),
                relabeled(rng.choice(by_order[n]).table, rng),
            )
        )
    return pairs


# ---------------------------------------------------------------------------


def test_01_s4_counterexample(capsys):
    with verdict(1, "s4-counterexample"):
        report = demo_s4()
        assert report.forward_valid
        assert not report.swapped_valid
        assert report.featured_sides == ("(132)", "(134)")
        assert report.swapped_failure_count == 5376
        assert cli_main(["demo", "s4", "--format", "kv"]) == 0
        out = capsys.readouterr().out
        assert "left_side=(132)" in out
        assert "right_side=(134)" in out
        assert "forward_valid=true" in out
        assert "swapped_valid=false" in out


def test_02_heisenberg_circle(capsys):
    with verdict(2, "heisenberg-circle"):
        algebra = catalog("degraaf_A340", 3)
        brace = to_brace(algebra)
        # closed form: (x1,y1,z1) o (x2,y2,z2) = (x1+x2+z1*y2, y1+y2, z1+z2)
        idx = np.arange(27)
        x, y, z = idx // 9, (idx // 3) % 3, idx % 3
        expected = (
            ((x[:, None] + x[None, :] + z[:, None] * y[None, :]) % 3) * 9
            + ((y[:, None] + y[None, :]) % 3) * 3
            + (z[:, None] + z[None, :]) % 3
        )
        assert np.array_equal(brace.mult.table, expected)
        assert recognize(brace.mult) == "M(3)"
        assert brace.mult.order == 27
        assert brace.mult.exponent() == 3
        assert not brace.mult.is_abelian()
        assert is_biskew(brace)
        assert is_two_sided(brace)
        assert validate_direct(brace.add, brace.mult) is None
        assert validate_via_holomorph(brace.add, brace.mult) is None


def test_03_cube_criterion(sixdim_brace):
    with verdict(3, "cube-vanishing-iff-biskew"):
        for name, p, kw in CATALOG_SWEEP:
            algebra = catalog(name, p, **kw)
            assert cubes_vanish(algebra) == is_biskew(to_brace(algebra)), (name, p, kw)
        assert cubes_vanish(catalog("sixdim_wedge", 3))
        assert is_biskew(sixdim_brace)

        def sample(rng):
            p = rng.choice([2, 3, 5])
            if rng.random() < 0.45:
                # chain-flavored draws reach the cube-not-vanishing class
                a, b, c = rng.sample(range(3), 3)
                products = {}
                for key, slot, coeff in (
                    ((a, a), b, rng.randrange(p)),
                    ((a, b), c, rng.randrange(p)),
                    ((b, a), c, rng.randrange(p)),
                ):
                    vec = [0, 0, 0]
                    vec[slot] = coeff
                    products[key] = vec
                return p, 3, products
            dim = rng.randint(1, 3)
            products = {}
            for _ in range(rng.randint(0, 3)):
                i, j = rng.randrange(dim), rng.randrange(dim)
                products[(i, j)] = [rng.randrange(p) for _ in range(dim)]
            return p, dim, products

        rng = random.Random(20260823)
        checked = nonvanishing = 0
        while checked < 200:
            p, dim, products = sample(rng)
            try:
                algebra = make_algebra(p, dim, products)
            except BraceLabError:
                continue
            checked += 1
            vanish = cubes_vanish(algebra)
            assert vanish == is_biskew(to_brace(algebra))
            nonvanishing += not vanish
        assert checked == 200
        assert nonvanishing >= 10  # both classes must actually occur


def test_04_cyclic_cube_cases():
    with verdict(4, "cyclic-ring-levels"):
        assert is_biskew(to_brace(cyclic_ring(3, 2)))
        r1 = to_brace(cyclic_ring(3, 1))
        assert validate_direct(r1.add, r1.mult) is None
        witness = validate_direct(r1.mult, r1.add)
        assert witness is not None
        assert (witness.a, witness.b, witness.c) == (1, 1, 1)
        assert (witness.left, witness.right) == (6, 24)
        with pytest.raises(NotNilpotent):
            cyclic_ring(3, 0)
        # built directly, as cyclic_ring(3, 0) rejects it
        unit_product = NilpotentAlgebra("cyclic", 3, 3, np.ones((1, 1, 1), dtype=np.int64), r=0)
        with pytest.raises(QuasiInverseMissing):
            quasi_inverse(unit_product, 1)


def test_05_automorphism_orders():
    with verdict(5, "automorphism-orders"):
        assert automorphism_group(symmetric_group(3)).order == 6
        assert automorphism_group(abelian_group([2, 2, 2])).order == 168
        big = automorphism_group(abelian_group([3, 3, 3])).order
        heis = automorphism_group(heisenberg_group(3)).order
        assert big == 11232
        assert heis == 432
        assert big % heis == 0
        assert big // heis == 26 == 3**3 - 1
        small = (
            [cyclic_group(k) for k in range(1, 9)]
            + [abelian_group([2, 2]), abelian_group([2, 4]), abelian_group([2, 2, 2])]
            + [dihedral_group(4), symmetric_group(3), make_group(_QUAT)]
        )
        for g in small:
            fast = automorphism_group(g)
            slow = brute_force_automorphisms(g)
            assert set(fast.elements) == set(slow.elements), g.order


def test_06_validator_equivalence(sixdim_brace):
    with verdict(6, "direct-vs-holomorph"):
        suite = [
            trivial_brace(symmetric_group(3)),
            opposite_brace(symmetric_group(3)),
            mod4_ring_brace(),
            to_brace(catalog("degraaf_A340", 3)),
            to_brace(cyclic_ring(3, 1)),
            to_brace(cyclic_ring(3, 2)),
            to_brace(catalog("truncated_poly", 2, m=2)),
            s3_factorization_brace(),
            order36_factorization_brace(),
            s4_factorization_brace(),
            sixdim_brace,
        ]
        tasks = []
        for brace in suite:
            tasks.append((brace.add, brace.mult))
            tasks.append((brace.mult, brace.add))  # swapped orientation too

        tasks += seeded_pairs()

        valid = invalid = 0
        for add, mult in tasks:
            direct = validate_direct(add, mult)
            holo = validate_via_holomorph(add, mult)
            assert (direct is None) == (holo is None)
            # both routes share one kernel, so each is also held against its
            # own independent full scan (the n^3 triple scan skips order 729)
            if add.order < sixdim_brace.order:
                first = [(direct.a, direct.b, direct.c, direct.left, direct.right)] if direct else []
                assert first == law_failures(add, mult.table)[:1]
                assert holo == holomorph_scan(add, mult)
            if direct is None:
                valid += 1
            else:
                invalid += 1
                assert direct.a == holo.element
                assert (direct.b, direct.c) == (holo.x, holo.y)
        assert valid >= 300 and invalid >= 300  # both outcomes well covered


def test_07_reciprocity(sixdim_brace):
    with verdict(7, "count-reciprocity"):
        suite = {
            "trivial": trivial_brace(symmetric_group(3)),
            "opposite": opposite_brace(symmetric_group(3)),
            "degraaf3": to_brace(catalog("degraaf_A340", 3)),
            "cyclic r=2": to_brace(cyclic_ring(3, 2)),
            "s3 factorization": s3_factorization_brace(),
            "order 36": order36_factorization_brace(),
        }
        reports = {}
        for name, brace in suite.items():
            report = reciprocity_check(brace)
            assert report.balanced, name
            reports[name] = report
        assert (reports["degraaf3"].count_forward, reports["degraaf3"].count_swapped) == (12, 312)
        assert (reports["s3 factorization"].count_forward,
                reports["s3 factorization"].count_swapped) == (1, 3)
        assert (reports["order 36"].count_forward, reports["order 36"].count_swapped) == (12, 12)
        # The 729-element brace is bi-skew.  Its additive group is C3^6, so
        # |Aut(+)| = |GL(6, 3)|.  Its circle group is the free 3-generator
        # class-2 group of exponent 3 (exponent 3, derived subgroup = centre
        # of order 27), so |Aut(o)| = |GL(3, 3)| * 3^9: any images of the
        # three generators modulo the centre that span, each lifted freely.
        # The brace comes from the ring A, a o b = a + b + ab, so a brace
        # automorphism is additive, hence F_3-linear, and keeps
        # ab = a o b - a - b: it is a ring automorphism.  With U = <e0, e1,
        # e2> and A^2 = <e3, e4, e5> (A^3 = 0), a ring automorphism is a
        # g in GL(U) with g (x) g keeping the kernel K of the product
        # U (x) U -> A^2, plus any linear map U -> A^2 (3^9 of them), and
        # each such pair is one.  x.x = 0 in U exactly when x has at most
        # one nonzero coordinate, and x (x) x lies in K for those x alone,
        # so g permutes the three lines <e_i>: it is monomial.  A
        # transposition of two lines sends a product e_j (x) e_i in K to a
        # multiple of e_i (x) e_j outside it (e1 (x) e0 to e0 (x) e1, say),
        # so the permutation is a power of e0 -> e1 -> e2 -> e0, and every
        # such monomial g keeps K: 3 * 2^3 = 24 choices of g, and
        # |Aut of the brace| = 24 * 3^9.
        assert is_biskew(sixdim_brace)
        report = reciprocity_check(sixdim_brace, budget=20_000)
        assert report.aut_add == math.prod(3**6 - 3**i for i in range(6))
        assert report.aut_mult == math.prod(3**3 - 3**i for i in range(3)) * 3**9 == 221_079_456
        assert report.aut_brace == 24 * 3**9 == 472_392
        assert (report.count_forward, report.count_swapped) == (468, 178_092_794_880)
        assert report.balanced


def test_08_enumeration_oracles():
    with verdict(8, "holomorph-vs-oracle"):
        small = [
            cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4),
            abelian_group([2, 2]), cyclic_group(5), cyclic_group(6),
            symmetric_group(3),
        ]
        for g in small:
            found = {
                tuple(tuple(int(v) for v in row) for row in b.mult.table)
                for b in enumerate_braces(g, cap=20)
            }
            assert found == set(oracle_tables(g)), g.order
        for p in (2, 3, 5, 7):
            braces = enumerate_braces(cyclic_group(p))
            assert len(braces) == 1
            assert recognize(braces[0].mult) == f"C{p}"
        klein = abelian_group([2, 2])
        braces = enumerate_braces(klein)
        assert len(braces) == 4
        names = sorted(recognize(b.mult) for b in braces)
        assert names == ["C2 x C2", "C4", "C4", "C4"]


def test_09_exponent_boundary():
    with verdict(9, "exponent-boundary"):
        tight = exponent_compare(to_brace(catalog("truncated_poly", 2, m=2)))
        assert (tight.add_exponent, tight.mult_exponent) == (2, 4)
        assert tight.first_mismatch is not None
        safe = exponent_compare(to_brace(catalog("degraaf_A340", 5)))
        assert safe.orders_agree
        assert (safe.add_exponent, safe.mult_exponent) == (5, 5)


def test_10_sixdim_squares(sixdim_brace):
    with verdict(10, "sixdim-square-agreement"):
        algebra = catalog("sixdim_wedge", 3)
        assert power_ideal_dims(algebra) == [6, 3, 0]
        assert cubes_vanish(algebra)
        agree = set(square_agreement_set(sixdim_brace))
        # exactly the elements with at most one nonzero generator coordinate
        expected = {
            i for i in range(729)
            if sum(1 for v in algebra.decode(i)[:3] if v) <= 1
        }
        assert agree == expected
        assert len(agree) == 189


def test_11_semidirect_circles():
    with verdict(11, "semidirect-circle-groups"):
        small = s3_factorization_brace()
        assert is_biskew(small)
        assert small.mult.is_abelian()
        assert recognize(small.mult) == "C6"
        big = order36_factorization_brace()
        assert is_biskew(big)
        assert not big.add.is_abelian()
        assert not big.mult.is_abelian()
        s3 = symmetric_group(3)
        assert are_isomorphic(big.mult, direct_product(s3, s3)) is not None

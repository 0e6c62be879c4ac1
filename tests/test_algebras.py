import time
import tracemalloc

import numpy as np
import pytest

from bracelab.algebras import (
    _CATALOG_PRIMES,
    NilpotentAlgebra,
    additive_group,
    catalog,
    circle_group,
    cubes_vanish,
    cyclic_ring,
    make_algebra,
    power_ideal_dims,
    quasi_inverse,
    to_brace,
)
from bracelab.braces import exponent_compare, is_biskew, is_two_sided
from bracelab.errors import (
    BadPrime,
    InvalidTableError,
    NotAssociativeError,
    NotNilpotent,
    QuasiInverseMissing,
    UnknownName,
    UnsupportedParameter,
)
from bracelab.groups import MAX_ORDER, are_isomorphic, heisenberg_group, recognize
from oracles import ring_tables


def unchecked_algebra(p, dim, products):
    """A vector algebra from sparse products, with no associativity or nilpotency check."""
    consts = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j), vec in products.items():
        consts[i, j] = vec
    return NilpotentAlgebra("modp", p, dim, consts)


def test_make_algebra_rejects_bad_prime():
    with pytest.raises(BadPrime):
        make_algebra(4, 2, {})


def test_primes_whose_products_could_overflow_are_rejected_before_primality():
    # 2^61 - 1 is prime, and trial division up to its square root takes minutes
    start = time.process_time()
    with pytest.raises(BadPrime):
        make_algebra(2**61 - 1, 2, {(0, 0): [0, 1]})
    cap = f"^order {(2**61 - 1) ** 3} exceeds the supported cap of 1024$"
    with pytest.raises(InvalidTableError, match=cap):
        cyclic_ring(2**61 - 1, 1)
    # 10^14 + 31 is prime; its int64 products wrapped into wrong values
    with pytest.raises(BadPrime):
        make_algebra(10**14 + 31, 2, {(0, 0): [0, 1]})
    assert time.process_time() - start < 0.5
    # 1321109 is the largest prime with 4 (p - 1)^3 < 2^63, so the largest
    # accepted at dimension 2, and the next prime is rejected; every product
    # at the accepted one is exact
    p = 1321109
    with pytest.raises(BadPrime):
        make_algebra(1321139, 2, {})
    full = {(i, j): [p - 1, p - 1] for i in range(2) for j in range(2)}
    dense = unchecked_algebra(p, 2, full)
    assert dense.multiply([p - 1, p - 1], [p - 1, p - 1]).tolist() == [4 * (p - 1) ** 3 % p] * 2
    nil = make_algebra(p, 2, {(0, 0): [0, 1]})
    assert quasi_inverse(nil, [p - 2, 0]).tolist() == [2, 4]


def test_arithmetic_reduces_unreduced_coordinates_before_int64():
    # 2^62 = 1 mod 3; unreduced, 2^62 * 2^62 and 2^62 + 2^62 wrap int64
    a = make_algebra(3, 2, {(0, 0): [0, 1]})
    big = [2**62, 0]
    assert a.multiply(big, big).tolist() == [0, 1]
    assert a.add(big, big).tolist() == [2, 0]
    assert a.circle(big, big).tolist() == [2, 1]
    assert a.neg([-(2**63), 0]).tolist() == [2, 0]
    # a coordinate past int64 is reduced as a Python int
    assert a.multiply([2**70, 0], [1, 0]).tolist() == [0, 2**70 % 3]
    ring = cyclic_ring(3, 1)
    assert ring.multiply(2**62, 2**62) == 3 * pow(2, 124, 27) % 27


def test_make_algebra_reduces_structure_constants_past_int64():
    a = make_algebra(3, 2, {(0, 0): [3 * 10**29, -(10**29)]})
    assert a.consts[0, 0].tolist() == [0, 2]


def test_make_algebra_rejects_a_dimension_past_the_table_cap_before_building():
    # 2^11 > MAX_ORDER = 1024, and p^dim only grows with p: dimension 11 and
    # up is rejected at once, before the dim^4 associativity tensors
    for dim in (11, 12):
        with pytest.raises(InvalidTableError, match=f"dimension {dim}"):
            make_algebra(2, dim, {})
        with pytest.raises(InvalidTableError):
            make_algebra(5, dim, {})
    with pytest.raises(InvalidTableError):
        catalog("truncated_poly", 2, m=11)
    assert make_algebra(2, 10, {}).order == 1024
    assert catalog("truncated_poly", 2, m=10).order == 1024


def test_catalog_rejects_a_large_truncated_poly_degree_before_building():
    # building the m^2/2 structure constants first would take gigabytes here
    tracemalloc.start()
    try:
        with pytest.raises(InvalidTableError, match="dimension 10000"):
            catalog("truncated_poly", 2, m=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_make_algebra_rejects_non_associative_constants():
    # e0.e0 = e1 and e1.e0 = e0 force (e0 e0) e0 = e0 but e0 (e0 e0) = 0
    with pytest.raises(NotAssociativeError):
        make_algebra(3, 2, {(0, 0): [0, 1], (1, 0): [1, 0]})


def test_make_algebra_rejects_non_nilpotent():
    # an idempotent basis vector: e0.e0 = e0
    with pytest.raises(NotNilpotent):
        make_algebra(3, 1, {(0, 0): [1]})


def test_power_ideal_dims():
    assert power_ideal_dims(catalog("degraaf_A340", 3)) == [3, 1, 0]
    assert power_ideal_dims(catalog("sixdim_wedge", 3)) == [6, 3, 0]
    assert power_ideal_dims(catalog("truncated_poly", 3, m=3)) == [3, 2, 1, 0]
    assert power_ideal_dims(cyclic_ring(3, 1)) == [3, 2, 1, 0]
    assert power_ideal_dims(cyclic_ring(3, 2)) == [3, 1, 0]
    assert power_ideal_dims(cyclic_ring(3, 3)) == [3, 0]


def test_cubes_vanish():
    assert cubes_vanish(catalog("degraaf_A340", 3))
    assert cubes_vanish(catalog("sixdim_wedge", 3))
    assert not cubes_vanish(catalog("truncated_poly", 3, m=3))
    assert not cubes_vanish(cyclic_ring(3, 1))
    assert cubes_vanish(cyclic_ring(3, 2))


def test_quasi_inverse_of_sum_in_degraaf():
    a = catalog("degraaf_A340", 3)
    u = np.array([0, 1, 1])  # e1 + e2
    v = quasi_inverse(a, u)
    # square is e2.e1 = e0, cube vanishes: inverse is e0 - e1 - e2
    assert list(v) == [1, 2, 2]
    assert a.is_zero(a.circle(u, v))
    assert a.is_zero(a.circle(v, u))


def test_quasi_inverse_cyclic():
    a = cyclic_ring(3, 1)
    for x in range(a.order):
        y = quasi_inverse(a, x)
        assert a.circle(x, y) == 0


def test_codec_roundtrip():
    a = catalog("degraaf_A340", 3)
    for index in range(a.order):
        assert a.encode(a.decode(index)) == index
    assert list(a.decode(1)) == [0, 0, 1]
    assert list(a.decode(9)) == [1, 0, 0]


def test_codecs_round_trip_past_int64():
    # the order 449^10 passes 2^63, so int64 place values wrap in encode
    # and overflow in decode
    a = make_algebra(449, 10, {})
    assert a.encode(a.decode(1)) == 1
    assert a.decode(449**9).tolist() == [1] + [0] * 9
    assert a.encode(a.decode(449**9)) == 449**9


def test_ring_tables_match_the_per_kind_formulas():
    cases = [("degraaf_A340", {}), ("sixdim_wedge", {})]
    cases += [("truncated_poly", {"m": m}) for m in (1, 2, 3)]
    cases += [("cyclic", {"r": r}) for r in (1, 2, 3, 4)]
    for name, params in cases:
        for p in _CATALOG_PRIMES[name]:
            a = catalog(name, p, **params)
            if a.order > MAX_ORDER:
                cap = f"^order {a.order} exceeds the supported cap of 1024$"
                with pytest.raises(InvalidTableError, match=cap):
                    additive_group(a)
                continue
            add_table, circle_table = ring_tables(a)
            assert np.array_equal(additive_group(a).table, add_table)
            assert np.array_equal(circle_group(a).table, circle_table)
            if name == "cyclic":
                assert type(a.decode(5)) is int and a.decode(5) == 5
                assert type(quasi_inverse(a, 5)) is int
                assert a.circle(5, quasi_inverse(a, 5)) == 0


def test_degraaf_circle_is_heisenberg():
    a = catalog("degraaf_A340", 3)
    cg = circle_group(a)
    assert recognize(cg) == "M(3)"
    assert are_isomorphic(cg, heisenberg_group(3)) is not None
    assert recognize(additive_group(a)) == "C3 x C3 x C3"


def test_degraaf_circle_formula():
    # (x1,y1,z1) o (x2,y2,z2) = (x1+x2+z1*y2, y1+y2, z1+z2)
    a = catalog("degraaf_A340", 3)
    cg = circle_group(a)
    for i in range(a.order):
        x1, y1, z1 = a.decode(i)
        for j in range(a.order):
            x2, y2, z2 = a.decode(j)
            expect = a.encode([(x1 + x2 + z1 * y2) % 3, (y1 + y2) % 3, (z1 + z2) % 3])
            assert cg.mul(i, j) == expect


def test_cyclic_circle_groups_are_cyclic():
    assert recognize(circle_group(cyclic_ring(3, 1))) == "C27"
    assert recognize(circle_group(cyclic_ring(3, 2))) == "C27"
    assert recognize(circle_group(cyclic_ring(5, 1))) == "C125"
    # p^40 does not fit a 64-bit integer; the product is zero from r = 3 on
    assert recognize(circle_group(cyclic_ring(3, 40))) == "C27"


def test_cyclic_rejection_modes():
    with pytest.raises(NotNilpotent):
        cyclic_ring(3, 0)
    bypassed = NilpotentAlgebra("cyclic", 3, 3, np.ones((1, 1, 1), dtype=np.int64), r=0)
    with pytest.raises(QuasiInverseMissing) as exc:
        circle_group(bypassed)
    assert exc.value.element == (1,)
    with pytest.raises(QuasiInverseMissing):
        quasi_inverse(bypassed, 1)
    with pytest.raises(UnsupportedParameter):
        cyclic_ring(3, -1)


def test_quasi_inverse_rejects_an_element_of_the_wrong_length():
    # () once raised a bare IndexError
    with pytest.raises(ValueError, match=r"^expected an element of length 1, got length 0$"):
        quasi_inverse(cyclic_ring(3, 2), ())
    with pytest.raises(ValueError, match=r"^expected an element of length 3, got length 2$"):
        quasi_inverse(catalog("degraaf_A340", 3), [1, 0])


def test_circle_group_reports_the_first_element_without_an_inverse():
    # e0 . e0 = e0 is idempotent, so no power of e0 = (1, 0) vanishes
    idempotent = unchecked_algebra(3, 2, {(0, 0): [1, 0]})
    with pytest.raises(QuasiInverseMissing) as exc:
        circle_group(idempotent)
    assert exc.value.element == (1, 0)
    with pytest.raises(QuasiInverseMissing) as exc:
        quasi_inverse(idempotent, [1, 1])
    assert exc.value.element == (1, 1)
    # not associative: the series of element 5 = e0 + e2 ends at e0, and
    # (e0 + e2) o e0 = e2
    skewed = unchecked_algebra(2, 3, {(0, 2): [0, 0, 1], (1, 1): [1, 0, 0], (1, 2): [1, 0, 0]})
    with pytest.raises(AssertionError, match="element 5 does not cancel"):
        circle_group(skewed)


def test_cyclic_brace_verdicts():
    b1 = to_brace(cyclic_ring(3, 1))
    assert not is_biskew(b1)
    assert is_two_sided(b1)
    b2 = to_brace(cyclic_ring(3, 2))
    assert is_biskew(b2)
    assert is_two_sided(b2)


def test_truncated_poly_exponent_gap():
    b = to_brace(catalog("truncated_poly", 2, m=2))
    assert recognize(b.add) == "C2 x C2"
    assert recognize(b.mult) == "C4"
    rep = exponent_compare(b)
    assert (rep.add_exponent, rep.mult_exponent) == (2, 4)
    assert not rep.orders_agree


def test_truncated_poly_m3():
    a = catalog("truncated_poly", 3, m=3)
    b = to_brace(a)
    assert recognize(b.mult) == "C3 x C9"
    assert not is_biskew(b)
    assert is_two_sided(b)


def test_degraaf_p5_orders_agree():
    b = to_brace(catalog("degraaf_A340", 5))
    assert recognize(b.mult) == "M(5)"
    assert exponent_compare(b).orders_agree
    assert is_biskew(b)


def test_catalog_errors():
    with pytest.raises(UnknownName):
        catalog("nosuch", 3)
    with pytest.raises(UnsupportedParameter):
        catalog("degraaf_A340", 2)
    with pytest.raises(UnsupportedParameter):
        catalog("truncated_poly", 3)
    with pytest.raises(UnsupportedParameter):
        catalog("cyclic", 3)
    with pytest.raises(NotNilpotent):
        catalog("cyclic", 3, r=0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: make_algebra(3, 0, {}), InvalidTableError,
         "algebra dimension must be a positive integer, got 0"),
        (lambda: make_algebra(3, 2, {(2, 0): [0, 0]}), InvalidTableError,
         "structure constant index 2 at (0, 0) is not in 0..1"),
        (lambda: make_algebra(3, 2, {(0, 1): [1]}), InvalidTableError,
         "structure constant for (0, 1) must have length 2"),
        (lambda: cyclic_ring(4, 1), BadPrime, "4 is not a supported prime"),
        (lambda: catalog("truncated_poly", 3, m=0), UnsupportedParameter,
         "truncated_poly degree m = 0 is out of range"),
    ],
)
def test_algebra_constructors_reject_bad_parameters(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_table_cap_blocks_large_algebra_tables():
    big = catalog("sixdim_wedge", 5)  # 5^6 elements: fine as an algebra
    assert power_ideal_dims(big) == [6, 3, 0]
    with pytest.raises(InvalidTableError):
        additive_group(big)


def test_ring_braces_are_two_sided():
    for a in [
        catalog("degraaf_A340", 3),
        catalog("truncated_poly", 2, m=2),
        cyclic_ring(3, 1),
    ]:
        assert is_two_sided(to_brace(a))

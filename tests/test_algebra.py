import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdist.algebra import (
    AlgebraVector,
    InvalidElementError,
    SO3Element,
    SU2Element,
    identity_residual,
    klein_omega,
    lift_so3,
    mat3_mul,
    random_so3,
    random_su2,
    su2_exp,
    su2_inv,
    su2_mul,
)

unit_quaternions = st.tuples(
    *(st.floats(-1.0, 1.0) for _ in range(4))
).filter(lambda v: sum(x * x for x in v) > 1e-2).map(
    lambda v: SU2Element(*(np.array(v) / np.linalg.norm(v)))
)


def test_construction_rejects_non_unit():
    with pytest.raises(InvalidElementError):
        SU2Element(2.0, 0.0, 0.0, 0.0)


def test_construction_renormalizes_within_tolerance():
    g = SU2Element(1.0 + 5e-10, 0.0, 0.0, 0.0)
    assert math.hypot(g.a_re, g.a_im) == pytest.approx(1.0, abs=1e-15)


def test_so3_rejects_non_rotation():
    with pytest.raises(InvalidElementError):
        SO3Element(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(InvalidElementError):
        SO3Element(np.diag([1.0, 1.0, -1.0]))  # det = -1


@pytest.mark.parametrize("m, cause", [
    (np.eye(3) + 1e-3j * np.ones((3, 3)), "complex entries"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1j]], "complex entries"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "inhomogeneous shape"),
    ([[1.0, 0.0, 0.0], [0.0, "a", 0.0], [0.0, 0.0, 1.0]], "could not convert string to float"),
], ids=["complex-array", "complex-entry", "ragged", "string-entry"])
def test_so3_rejects_malformed_input(m, cause):
    # The complex cases raise before numpy's cast, which would warn and drop
    # the imaginary part; under filterwarnings = error a warning fails here.
    with pytest.raises(InvalidElementError, match=cause):
        SO3Element(m)


@pytest.mark.parametrize("bad", ["a", 1j, None])
def test_su2_rejects_non_real_components(bad):
    with pytest.raises(InvalidElementError, match="must be real numbers"):
        SU2Element(bad, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [
    np.complex128(0.6 + 1e-6j), np.complex128(0.6), np.complex64(0.6 + 1e-3j), np.complex64(0.6),
], ids=["complex128", "complex128-real", "complex64", "complex64-real"])
def test_su2_rejects_numpy_complex_components(bad):
    # numpy converts a complex scalar to float with only a warning, dropping
    # its imaginary part; under filterwarnings = error a warning fails here.
    with pytest.raises(InvalidElementError, match="must be real numbers"):
        SU2Element(bad, 0.0, 0.8, 0.0)
    with pytest.raises(InvalidElementError, match="must be real numbers"):
        SU2Element(0.8, 0.0, 0.0, bad)


def test_so3_rows_are_python_floats_for_any_array_like():
    rows = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    for m in (np.array(rows), np.array(rows, dtype=int), [list(r) for r in rows], rows):
        c = SO3Element(m)
        assert type(c.m) is tuple and len(c.m) == 3
        assert all(type(row) is tuple and len(row) == 3 for row in c.m)
        assert all(type(v) is float for row in c.m for v in row)
        assert c.m == rows


def test_rotations_compare_and_hash_by_value():
    assert SO3Element(np.eye(3)) == SO3Element.identity()
    assert len({SO3Element(np.eye(3)), SO3Element.identity()}) == 1
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_su2(rng)
        # Every entry is quadratic in (A, B), so the two covers give equal bits.
        assert klein_omega(g) == klein_omega(g.negate())
        assert len({klein_omega(g), klein_omega(g.negate())}) == 1


def test_scalar_3x3_helpers_match_numpy():
    rng = np.random.default_rng(41)
    for x, y in rng.standard_normal((50, 2, 3, 3)):
        assert np.allclose(mat3_mul(x.tolist(), y.tolist()), x @ y, rtol=0.0, atol=1e-14)
        assert identity_residual(x.tolist()) == np.max(np.abs(x - np.eye(3)))


def test_mul_identity():
    g = SU2Element(0.6, 0.0, 0.8, 0.0)
    e = SU2Element.identity()
    assert su2_mul(e, g) == g


def test_mul_matches_matrix_product():
    # (0,1)*(0,1) = (-1,0), checked against the explicit 2x2 product
    g = SU2Element(0.0, 0.0, 1.0, 0.0)
    prod = su2_mul(g, g)
    expected = g.as_matrix() @ g.as_matrix()
    assert prod.a == pytest.approx(expected[0, 0])
    assert prod.b == pytest.approx(expected[0, 1])
    assert prod.a == pytest.approx(-1.0)


@given(unit_quaternions)
@settings(max_examples=200, deadline=None)
def test_inverse_law(g):
    e = su2_mul(g, su2_inv(g))
    assert abs(e.a - 1.0) < 1e-12
    assert abs(e.b) < 1e-12


def test_inverse_examples():
    assert su2_inv(SU2Element.identity()) == SU2Element.identity()
    assert su2_inv(SU2Element(0.0, 1.0, 0.0, 0.0)).a == pytest.approx(-1j)
    g = su2_inv(SU2Element(0.6, 0.0, 0.8, 0.0))
    assert (g.a, g.b) == pytest.approx((0.6, -0.8))


def test_exp_zero_vector():
    assert su2_exp(AlgebraVector(0.0, 0.0, 0.0), 5.0) == SU2Element.identity()


def test_exp_against_series_summation():
    # independent oracle: sum the matrix exponential series directly
    for v, t in [
        (AlgebraVector(1.0, 0.0, 0.0), math.pi),
        (AlgebraVector(0.0, 0.0, 1.0), math.pi),
        (AlgebraVector(0.3, -1.2, 0.7), 2.5),
    ]:
        gen = t * (
            v.x * 0.5 * np.array([[0, 1], [-1, 0]], dtype=complex)
            + v.y * 0.5 * np.array([[0, 1j], [1j, 0]], dtype=complex)
            + v.z * 0.5 * np.array([[1j, 0], [0, -1j]], dtype=complex)
        )
        series = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 40):
            term = term @ gen / k
            series = series + term
        g = su2_exp(v, t)
        assert np.allclose(g.as_matrix(), series, atol=1e-12)


def test_exp_known_values():
    g = su2_exp(AlgebraVector(1.0, 0.0, 0.0), math.pi)
    assert (g.a, g.b) == pytest.approx((0.0, 1.0), abs=1e-15)
    g = su2_exp(AlgebraVector(0.0, 0.0, 1.0), math.pi)
    assert (g.a, g.b) == pytest.approx((1j, 0.0), abs=1e-15)


@given(
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    st.floats(-10.0, 10.0),
)
@settings(max_examples=300, deadline=None)
def test_exp_stays_unit(x, y, z, t):
    g = su2_exp(AlgebraVector(x, y, z), t)
    norm = g.a_re**2 + g.a_im**2 + g.b_re**2 + g.b_im**2
    assert abs(norm - 1.0) < 1e-12


def test_klein_identity_and_half_turns():
    assert np.allclose(klein_omega(SU2Element.identity()).m, np.eye(3))
    assert np.allclose(
        klein_omega(SU2Element(0.0, 0.0, 1.0, 0.0)).m, np.diag([-1.0, 1.0, -1.0])
    )


def test_klein_axis1_rotation():
    theta = 0.7
    g = SU2Element(math.cos(theta / 2), math.sin(theta / 2), 0.0, 0.0)
    expected = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(theta), -math.sin(theta)],
            [0.0, math.sin(theta), math.cos(theta)],
        ]
    )
    assert np.allclose(klein_omega(g).m, expected, atol=1e-14)


def test_klein_homomorphism_and_double_cover():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        g, h = random_su2(rng), random_su2(rng)
        lhs = klein_omega(su2_mul(g, h)).m
        rhs = np.asarray(klein_omega(g).m) @ klein_omega(h).m
        assert np.max(np.abs(np.subtract(lhs, rhs))) < 1e-9
        assert np.max(np.abs(np.subtract(klein_omega(g).m, klein_omega(g.negate()).m))) < 1e-14


def test_lift_identity():
    lift, neg = lift_so3(SO3Element.identity())
    assert (lift.a, lift.b) == pytest.approx((1.0, 0.0))
    assert (neg.a, neg.b) == pytest.approx((-1.0, 0.0))


def test_lift_half_turn_axis1():
    lift, _ = lift_so3(SO3Element(np.diag([1.0, -1.0, -1.0])))
    assert lift.a == pytest.approx(1j)
    assert lift.b == pytest.approx(0.0)


def test_lift_a_zero_branch():
    lift, _ = lift_so3(SO3Element(np.diag([-1.0, 1.0, -1.0])))
    assert abs(lift.a) < 1e-15
    assert abs(lift.b) == pytest.approx(1.0)


def test_lift_then_project_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        c = random_so3(rng)
        lift, neg = lift_so3(c)
        assert lift.a_re >= 0.0
        assert np.max(np.abs(np.subtract(klein_omega(lift).m, c.m))) < 1e-9
        assert np.max(np.abs(np.subtract(klein_omega(neg).m, c.m))) < 1e-9


def test_lift_pair_is_an_exact_negation():
    # The oracle scans both lifts from one set of rows, which needs their
    # |B| to agree bit for bit.  A negation that renormalized again moved
    # the second lift by an ulp on 409 of these rotations.
    rng = np.random.default_rng(0)
    for _ in range(20000):
        lift, neg = lift_so3(random_so3(rng))
        bits = [v.hex() for v in (neg.a_re, neg.a_im, neg.b_re, neg.b_im)]
        assert bits == [(-v).hex() for v in (lift.a_re, lift.a_im, lift.b_re, lift.b_im)]


def test_random_su2_components_are_python_floats():
    # numpy scalars would make every formula downstream numpy-scalar arithmetic.
    rng, same = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        g = random_su2(rng)
        v = same.standard_normal(4)
        want = SU2Element(*(v / np.linalg.norm(v)))  # the numpy-scalar build, same values
        assert all(type(x) is float for x in (g.a_re, g.a_im, g.b_re, g.b_im))
        assert (g.a_re, g.a_im, g.b_re, g.b_im) == (want.a_re, want.a_im, want.b_re, want.b_im)


def test_lift_rejects_non_rotation():
    with pytest.raises(InvalidElementError):
        lift_so3(SO3Element(np.ones((3, 3))))

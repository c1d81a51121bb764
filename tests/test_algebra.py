import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdist.algebra import (
    CONSTRUCTION_TOL,
    AlgebraVector,
    InvalidElementError,
    SO3Element,
    SU2Element,
    _mul,
    cover_pair,
    klein_omega,
    lift_so3,
    mat3_mul,
    orthogonality_residual,
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
    # In float32 0.6^2 + 0.8^2 rounds to 1, but the float64 values stored
    # are off unit norm by 4.8e-8.
    with pytest.raises(InvalidElementError, match="unit-norm violation"):
        SU2Element(np.float32(0.6), 0.0, np.float32(0.8), 0.0)
    # Its float32 square overflows: no numpy warning escapes the real-number rule.
    with pytest.raises(InvalidElementError, match="unit-norm violation"):
        SU2Element(np.float32(1e20), 0.0, 0.0, 0.0)


def test_construction_renormalizes_within_tolerance():
    g = SU2Element(1.0 + 5e-10, 0.0, 0.0, 0.0)
    assert math.hypot(g.a_re, g.a_im) == pytest.approx(1.0, abs=1e-15)


def test_so3_rejects_non_rotation():
    with pytest.raises(InvalidElementError):
        SO3Element(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(InvalidElementError, match="reflection"):
        SO3Element(np.diag([1.0, 1.0, -1.0]))  # det = -1


@pytest.mark.parametrize("scale", [1.0 + 4.9e-10, 1.0 - 4.9e-10])
def test_so3_accepts_rotations_scaled_within_the_tolerance(scale):
    # Orthogonal to 9.8e-10, inside CONSTRUCTION_TOL, with det 1 +- 1.5e-9:
    # the determinant only decides orientation, so R is accepted and -R
    # refused as a reflection.
    rng = np.random.default_rng(47)
    for _ in range(200):
        rows = tuple(tuple(x * scale for x in row) for row in random_so3(rng).m)
        assert orthogonality_residual(rows) <= CONSTRUCTION_TOL
        assert SO3Element(rows).m == rows
        with pytest.raises(InvalidElementError, match="reflection"):
            SO3Element([[-x for x in row] for row in rows])


def test_so3_rule_is_the_orthogonality_residual():
    # Rotations scaled by up to 1 +- 6e-10 with 1e-10 entry noise straddle
    # the tolerance: each is refused exactly when its residual exceeds it.
    rng = np.random.default_rng(48)
    refused = 0
    for _ in range(1000):
        m = np.asarray(random_so3(rng).m) * (1.0 + rng.uniform(-6e-10, 6e-10)) + 1e-10 * rng.standard_normal((3, 3))
        if orthogonality_residual(m.tolist()) > CONSTRUCTION_TOL:
            refused += 1
            with pytest.raises(InvalidElementError, match="orthogonality violation"):
                SO3Element(m)
        else:
            SO3Element(m)
    assert 0 < refused < 1000


@pytest.mark.parametrize("m, cause", [
    (np.eye(3) + 1e-3j * np.ones((3, 3)), "complex"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1j]], "complex"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "expected 3, got 2"),
    ([[1.0, 0.0, 0.0], [0.0, "a", 0.0], [0.0, 0.0, 1.0]], "'str'"),
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "'str'"),
    (np.array([["1", 0, 0], [0, 1, 0], [0, 0, 1]], dtype=object), "'str'"),
    (np.array([b"1", b"0", b"0", b"0", b"1", b"0", b"0", b"0", b"1"]).reshape(3, 3), "'bytes'"),
    ([[10**400, 0, 0], [0, 1, 0], [0, 0, 1]], "int too large"),
    ([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]], "must be finite$"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.inf]], "must be finite$"),
    ([[-math.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "must be finite$"),
    ([[1e308, 1e308, 1e308], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "orthogonality violation: .* = inf"),
    ([[1e308, -1e308, 1e308], [1e308, 1.0, 0.0], [0.0, 0.0, 1.0]], "orthogonality violation: .* = inf"),
    (np.eye(2), "expected 3, got 2"),
    (np.eye(3, 4), "too many values"),
    ([[np.complex128(1.0), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "complex"),
    ([[1.0, 0.0, 0.0], [0.0, None, 0.0], [0.0, 0.0, 1.0]], "'NoneType'"),
    (np.eye(3).ravel(), "too many values"),
    ([b"\x01\x00\x00", b"\x00\x01\x00", b"\x00\x00\x01"], "'bytes' row"),
    ([[np.float32(1e20), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "orthogonality violation"),
], ids=["complex-array", "complex-entry", "ragged", "string-entry", "numeric-strings", "object-string",
        "numeric-bytes", "huge-int", "nan", "inf", "-inf", "overflowing-sum", "overflowing-product", "2x2", "3x4",
        "numpy-complex-entry", "none-entry", "flat", "bytes-rows", "float32-overflowing-square"])
def test_so3_rejects_malformed_input(m, cause):
    # Entries are refused by the real-number rule SU2Element applies, before
    # any conversion that would warn; under filterwarnings = error a warning
    # fails here.  A complex entry, numpy's complex scalars included, is
    # refused with a real part of 1.0 too, and a numeric string with the
    # other strings; a bytes row, which unpacks into ints, is refused as
    # such.  Finite entries whose sum overflows pass the finiteness check and
    # fail orthogonality.
    with pytest.raises(InvalidElementError, match=cause):
        SO3Element(m)


def test_su2_rejects_an_int_beyond_float_range():
    with pytest.raises(InvalidElementError, match="overflow float arithmetic"):
        SU2Element(10**400, 0, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_su2_rejects_non_finite_components(bad):
    for k in range(4):
        with pytest.raises(InvalidElementError, match="must be finite$"):
            SU2Element(*[bad if j == k else 0.0 for j in range(4)])


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
    mixed = [[0, -1.0, 0], [1, 0.0, 0], [0, 0, 1.0]]
    arrays = (np.array(rows), np.array(rows, dtype=int), np.array(rows, dtype=object), np.array(rows, dtype=np.float32))
    for m in (*arrays, [list(r) for r in rows], rows, mixed):
        c = SO3Element(m)
        assert type(c.m) is tuple and len(c.m) == 3
        assert all(type(row) is tuple and len(row) == 3 for row in c.m)
        assert all(type(v) is float for row in c.m for v in row)
        assert c.m == rows


def test_su2_components_are_python_floats_for_any_real():
    # Norm exactly 1, where nothing is renormalized, and norm off 1: ints,
    # bools and numpy scalars are stored as the floats a float build stores.
    for args, norm_is_one in [
        ((1, 0, 0, 0), True),
        ((True, False, 0, 0), True),
        ((np.int64(0), np.int64(-1), 0, 0), True),
        ((np.float64(0.6), 0, np.float64(0.8), 0.0), True),
        ((np.float32(0.5),) * 4, True),
        ((1, 0, 0, np.float64(1e-6)), False),
        ((np.float64(0.6), 0, np.float64(0.8), np.float64(1e-6)), False),
    ]:
        assert (math.sqrt(sum(v * v for v in args)) == 1.0) is norm_is_one
        g, want = SU2Element(*args), SU2Element(*map(float, args))
        got = (g.a_re, g.a_im, g.b_re, g.b_im)
        assert all(type(x) is float for x in got), args
        assert got == (want.a_re, want.a_im, want.b_re, want.b_im)


_NO_NUMPY = """
import sys
import srdist
g = srdist.geodesic_point(srdist.GeodesicParams(1.0, 0.5), 2.0)
r = srdist.distance_su2(g)
srdist.distance_su2_pair(g, srdist.SU2Element(0.6, 0.0, 0.0, 0.8))
srdist.shoot_min_time(g)
srdist.geodesic_point_exp(srdist.GeodesicParams(r.phi0, r.beta), r.t)
srdist.in_cut_locus_su2_l2(g)
srdist.arg_short(r.beta, abs(g.a))
srdist.time_long(r.beta, abs(g.a))
assert "numpy" not in sys.modules, "an SU(2) call imported numpy"
c = srdist.SO3Element(((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
h = srdist.klein_omega(g)
srdist.distance_so3(h)
srdist.distance_so3_pair(c, h)
srdist.lift_so3(h)
srdist.classify_cut_locus_so3(c)
srdist.shoot_min_time_so3(h)
srdist.geodesic_point_so3(srdist.GeodesicParams(r.phi0, r.beta), r.t)
assert "numpy" not in sys.modules, "an SO(3) call imported numpy"
"""


def test_element_calls_import_no_numpy(child_env):
    # numpy is imported only where an array is built or drawn: SU(2) and
    # SO(3) calls on elements built from floats and rows load none.
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr


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


def test_orthogonality_residual_is_that_of_the_full_product():
    # The six distinct entries of M^T M, each summed in mat3_mul's order,
    # give the residual of the full product to the bit, on rotations and on
    # matrices off SO(3) by up to 1e-6 (1e-9 passes the check, 1e-6 fails).
    rng = np.random.default_rng(43)
    for k in range(300):
        m = np.asarray(random_so3(rng).m) + (10.0 ** -(6 + k % 12)) * rng.standard_normal((3, 3))
        rows = m.tolist()
        full = np.max(np.abs(np.array(mat3_mul(zip(*rows), rows)) - np.eye(3)))
        assert orthogonality_residual(rows).hex() == float(full).hex()


def test_mul_is_the_complex_product():
    # _mul sums as CPython's complex arithmetic does: equal to the bit, the
    # signs of zeros included, on Haar pairs, on the conjugated pairs
    # distance_so3_pair multiplies, and on pairs with signed zero parts.
    def complex_product(p, q):
        a, b, c, d = complex(p[0], p[1]), complex(p[2], p[3]), complex(q[0], q[1]), complex(q[2], q[3])
        x, y = a * c - b * d.conjugate(), a * d + b * c.conjugate()
        return x.real, x.imag, y.real, y.imag

    rng = np.random.default_rng(49)
    pairs = [tuple(v / np.linalg.norm(v)) for v in rng.standard_normal((400, 4))]
    pairs += [(p, -q, -r, -s) for p, q, r, s in pairs[:100]]
    pairs += list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=4))
    for p, q in zip(pairs, pairs[1:] + pairs[:1]):
        assert [x.hex() for x in _mul(p, q)] == [x.hex() for x in complex_product(p, q)]


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


def test_inverse_is_an_exact_involution():
    # The inverse flips signs and, like negate, does not renormalize again:
    # a second division by the rounded norm moved 191 of these draws by an ulp.
    rng = np.random.default_rng(0)
    for _ in range(10000):
        g = random_su2(rng)
        bits = [v.hex() for v in (g.a_re, g.a_im, g.b_re, g.b_im)]
        h = su2_inv(su2_inv(g))
        assert [v.hex() for v in (h.a_re, h.a_im, h.b_re, h.b_im)] == bits


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
    # g and -g cover one rotation, so the lifts must be the same floats up
    # to sign: both then read the same |A| and |B| to the bit.  A negation
    # that renormalized again moved the second lift by an ulp on 409 of
    # these rotations.
    rng = np.random.default_rng(0)
    for _ in range(20000):
        lift, neg = lift_so3(random_so3(rng))
        bits = [v.hex() for v in (neg.a_re, neg.a_im, neg.b_re, neg.b_im)]
        assert bits == [(-v).hex() for v in (lift.a_re, lift.a_im, lift.b_re, lift.b_im)]


def test_lift_is_the_covering_pair_to_the_bit():
    # lift_so3 builds its canonical lift from cover_pair, the one inverse of
    # the covering map, without renormalizing it: on Haar rotations, on
    # half turns with Re A = 0 and |B| > |A|, and on the axis-1 half turn
    # with every sign of its zero entries.
    rng = np.random.default_rng(5)
    rotations = [random_so3(rng) for _ in range(1000)]
    for _ in range(100):
        a_im, gamma = rng.uniform(-0.7, 0.7), rng.uniform(-math.pi, math.pi)
        abs_b = math.sqrt(1.0 - a_im * a_im)
        rotations.append(klein_omega(SU2Element(0.0, a_im, abs_b * math.cos(gamma), abs_b * math.sin(gamma))))
    for z12, z13, z21, z23, z31, z32 in itertools.product((0.0, -0.0), repeat=6):
        rotations.append(SO3Element(((1.0, z12, z13), (z21, -1.0, z23), (z31, z32, -1.0))))
    for c in rotations:
        lift, _ = lift_so3(c)
        pair = cover_pair(c)
        assert all(type(v) is float for v in pair)
        assert [v.hex() for v in (lift.a_re, lift.a_im, lift.b_re, lift.b_im)] == [v.hex() for v in pair]


def test_random_su2_components_are_python_floats():
    # numpy scalars would make every formula downstream numpy-scalar arithmetic.
    # The draws are those of np.linalg.norm, to the bit: every test sampler
    # depends on them.
    rng, same = np.random.default_rng(0), np.random.default_rng(0)
    for _ in range(1000):
        g = random_su2(rng)
        v = same.standard_normal(4)
        want = SU2Element(*(v / np.linalg.norm(v)).tolist())
        assert all(type(x) is float for x in (g.a_re, g.a_im, g.b_re, g.b_im))
        assert [x.hex() for x in (g.a_re, g.a_im, g.b_re, g.b_im)] == [
            x.hex() for x in (want.a_re, want.a_im, want.b_re, want.b_im)
        ]


def test_lift_rejects_non_rotation():
    with pytest.raises(InvalidElementError):
        lift_so3(SO3Element(np.ones((3, 3))))

import math

import numpy as np
import pytest

from srdist.algebra import SU2Element, klein_omega
from srdist.geodesics import (
    GeodesicParams,
    cut_time_bound,
    endpoint_coords,
    endpoint_jacobian,
    geodesic_point,
    geodesic_point_exp,
    geodesic_point_so3,
)
from srdist.so3_distance import distance_so3
from srdist.su2_distance import distance_su2

TWO_PI = 2.0 * math.pi


def _components(g):
    return np.array([g.a_re, g.a_im, g.b_re, g.b_im])


def test_origin():
    for p in [GeodesicParams(0.0, 0.0), GeodesicParams(1.3, -2.4)]:
        g = geodesic_point(p, 0.0)
        assert (g.a, g.b) == pytest.approx((1.0, 0.0))


def test_straight_half_circle():
    g = geodesic_point(GeodesicParams(0.0, 0.0), math.pi)
    assert (g.a, g.b) == pytest.approx((0.0, 1.0), abs=1e-15)
    g = geodesic_point_exp(GeodesicParams(0.0, 0.0), math.pi)
    assert (g.a, g.b) == pytest.approx((0.0, 1.0), abs=1e-15)


def test_exp_route_beta_zero_quarter():
    g = geodesic_point_exp(GeodesicParams(math.pi / 2, 0.0), math.pi / 2)
    assert g.a == pytest.approx(math.cos(math.pi / 4))
    assert g.b == pytest.approx(math.sin(math.pi / 4) * 1j)


def test_phi0_independent_endpoint_at_cut_bound():
    # at t = 2*pi/sqrt(1+beta^2) the endpoint has B = 0 and depends only on beta
    for beta in [0.0, 1.0, -2.5, 4.0]:
        t = cut_time_bound(beta)
        s = math.sqrt(1.0 + beta * beta)
        expected_re = -math.cos(math.pi * beta / s)
        expected_im = math.sin(math.pi * beta / s)
        for phi0 in [0.0, 1.0, 4.0]:
            g = geodesic_point(GeodesicParams(phi0, beta), t)
            assert g.a_re == pytest.approx(expected_re, abs=1e-12)
            assert g.a_im == pytest.approx(expected_im, abs=1e-12)
            assert abs(g.b) < 1e-12


def test_so3_route_composition():
    p = GeodesicParams(0.7, 1.0)
    t = 1.3
    assert np.allclose(
        geodesic_point_so3(p, t).m, klein_omega(geodesic_point(p, t)).m
    )
    g = geodesic_point_so3(GeodesicParams(0.0, 0.0), math.pi)
    assert np.allclose(g.m, np.diag([-1.0, 1.0, -1.0]), atol=1e-14)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        geodesic_point(GeodesicParams(0.0, 0.0), -0.1)
    with pytest.raises(ValueError):
        geodesic_point_exp(GeodesicParams(0.0, 0.0), -0.1)


def test_cut_time_bound_values():
    assert cut_time_bound(0.0) == pytest.approx(TWO_PI)
    assert cut_time_bound(math.sqrt(3.0)) == pytest.approx(math.pi)
    assert cut_time_bound(1e3) == pytest.approx(TWO_PI / math.sqrt(1.0 + 1e6))
    assert cut_time_bound(10.0) < cut_time_bound(5.0) < cut_time_bound(1.0)


def test_huge_beta_does_not_overflow():
    # 1 + beta^2 overflows for |beta| > 1.34e154; sqrt(1 + beta^2) must not.
    assert cut_time_bound(1e200) == pytest.approx(TWO_PI * 1e-200, rel=1e-15)
    g = geodesic_point(GeodesicParams(0.3, 1e200), 1e-200)
    assert np.all(np.isfinite(_components(g)))
    assert np.linalg.norm(_components(g)) == pytest.approx(1.0, abs=1e-15)


def test_su2_cut_time_is_exact():
    # Before 2*pi/s the geodesic is minimizing, so its endpoint is at
    # distance t; just past it a shorter geodesic reaches the endpoint.
    rng = np.random.default_rng(3)
    betas = np.concatenate([rng.normal(0.0, 2.0, 150), rng.uniform(-20.0, 20.0, 150)])
    phi0s = rng.uniform(0.0, TWO_PI, 300)
    before, after = 0.0, math.inf
    for phi0, beta in zip(phi0s, betas):
        p = GeodesicParams(phi0, beta)
        cut = cut_time_bound(beta)
        for frac in (0.5, 0.9, 0.999):
            t = frac * cut
            before = max(before, abs(distance_su2(geodesic_point(p, t)).t - t))
        t = 1.01 * cut
        after = min(after, t - distance_su2(geodesic_point(p, t)).t)
    assert before <= 1e-12
    assert after > 1e-9


def test_short_geodesics_are_minimizing():
    # Endpoints at t = 1e-6 ... 1e-8 have |B| ~ t and 1 - |A| ~ t^2/2, so
    # |A| rounds to 1; the distance must still read t, on both groups.
    rng = np.random.default_rng(15)
    for t in (1e-6, 1e-7, 1e-8):
        for _ in range(20):
            p = GeodesicParams(rng.uniform(0.0, TWO_PI), rng.uniform(-5.0, 5.0))
            assert abs(distance_su2(geodesic_point(p, t)).t - t) <= 1e-12 * t
            assert abs(distance_so3(geodesic_point_so3(p, t)).t - t) <= 1e-12 * t


def test_numpy_inputs_give_python_floats():
    # The same values to the bit as from Python floats.
    p, t = GeodesicParams(np.float64(0.3), np.float64(1.2)), np.float64(0.7)
    g = geodesic_point(p, t)
    want = SU2Element(*endpoint_coords(0.3, 1.2, 0.7))
    assert all(type(x) is float for x in (g.a_re, g.a_im, g.b_re, g.b_im))
    assert (g.a_re, g.a_im, g.b_re, g.b_im) == (want.a_re, want.a_im, want.b_re, want.b_im)


def test_cross_route_agreement_grid():
    # the acceptance suite runs the full 50^3 grid; this is a faster slice
    rng = np.random.default_rng(11)
    for _ in range(500):
        p = GeodesicParams(rng.uniform(0, TWO_PI), rng.uniform(-5, 5))
        t = rng.uniform(0, cut_time_bound(p.beta))
        d = np.max(
            np.abs(
                _components(geodesic_point(p, t))
                - _components(geodesic_point_exp(p, t))
            )
        )
        assert d < 1e-10


def test_abs_a_identity_and_b_phase():
    rng = np.random.default_rng(12)
    for _ in range(300):
        p = GeodesicParams(rng.uniform(0, TWO_PI), rng.uniform(-5, 5))
        t = rng.uniform(0, cut_time_bound(p.beta))
        g = geodesic_point(p, t)
        s2 = 1.0 + p.beta**2
        expected = (p.beta**2 + math.cos(t * math.sqrt(s2) / 2.0) ** 2) / s2
        assert abs(g.a_re**2 + g.a_im**2 - expected) < 1e-12
        if math.sin(t * math.sqrt(s2) / 2.0) > 1e-6:
            phase = (p.beta * t / 2.0 + p.phi0) % TWO_PI
            assert math.atan2(g.b_im, g.b_re) % TWO_PI == pytest.approx(
                phase, abs=1e-9
            )


def test_a_component_independent_of_phi0():
    rng = np.random.default_rng(13)
    for _ in range(200):
        beta = rng.uniform(-5, 5)
        t = rng.uniform(0, cut_time_bound(beta))
        g1 = geodesic_point(GeodesicParams(rng.uniform(0, TWO_PI), beta), t)
        g2 = geodesic_point(GeodesicParams(rng.uniform(0, TWO_PI), beta), t)
        assert abs(g1.a_re - g2.a_re) < 1e-14
        assert abs(g1.a_im - g2.a_im) < 1e-14


def test_geodesics_never_beat_the_distance():
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = GeodesicParams(rng.uniform(0, TWO_PI), rng.uniform(-5, 5))
        t = rng.uniform(0, cut_time_bound(p.beta))
        assert distance_su2(geodesic_point(p, t)).t <= t + 1e-9


def test_endpoint_jacobian_matches_central_differences():
    # The endpoint it returns is `endpoint_coords`' bit for bit: the
    # endpoint formula is written once, and the Jacobian reads it.
    rng = np.random.default_rng(15)
    h = 1e-6
    worst = 0.0
    for _ in range(300):
        x = np.array([rng.uniform(0, TWO_PI), rng.uniform(-100, 100), 0.0])
        x[2] = rng.uniform(0, cut_time_bound(x[1]))
        end, columns = endpoint_jacobian(*x)
        assert [v.hex() for v in end] == [v.hex() for v in endpoint_coords(*x)]
        for i, col in enumerate(columns):
            step = np.zeros(3)
            step[i] = h
            fd = np.subtract(endpoint_coords(*(x + step)), endpoint_coords(*(x - step))) / (2 * h)
            worst = max(worst, np.max(np.abs(fd - col)))
    assert worst < 1e-7

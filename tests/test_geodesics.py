import math

import numpy as np
import pytest

from srdist.algebra import InvalidElementError, SU2Element, klein_omega
from srdist.cutlocus import conjugate_locus_so3
from srdist.geodesics import (
    GeodesicParams,
    cut_time_bound,
    endpoint_coords,
    geodesic_point,
    geodesic_point_exp,
    geodesic_point_so3,
)
from srdist.so3_distance import distance_so3
from srdist.su2_distance import distance_su2


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


_REST = GeodesicParams(0.0, 0.0)
# The entry points that take a real number: the name their errors give it,
# and the calls that pass it a given value.
_TAKES_REAL = {
    "params": ("geodesic parameters", lambda v: [lambda: GeodesicParams(v, 0.0), lambda: GeodesicParams(0.0, v)]),
    "t": ("geodesic parameter t", lambda v: [lambda: geodesic_point(_REST, v), lambda: geodesic_point_exp(_REST, v)]),
    "beta": ("beta", lambda v: [lambda: cut_time_bound(v)]),
}


def _cases(values: dict) -> list:
    """(entry, *value) per entry point and value, with the value's id bare for `GeodesicParams`."""
    return [pytest.param(entry, *v, id=k if entry == "params" else f"{entry}-{k}")
            for entry in _TAKES_REAL for k, v in values.items()]


@pytest.mark.parametrize("t", [-0.1, -1, np.float64(-0.1), -5e-324], ids=["float", "int", "numpy", "subnormal"])
def test_negative_time_rejected(t):
    for point in (geodesic_point, geodesic_point_exp):
        with pytest.raises(InvalidElementError, match="^geodesic parameter t must be nonnegative$"):
            point(_REST, t)


@pytest.mark.parametrize("entry, bad", _cases({"nan": (math.nan,), "inf": (math.inf,), "-inf": (-math.inf,)}))
def test_non_finite_parameters_rejected(entry, bad):
    # The error names the input: a NaN time is not reported as non-finite SU(2) components.
    name, calls = _TAKES_REAL[entry]
    for call in calls(bad):
        with pytest.raises(InvalidElementError, match=f"^{name} must be finite$"):
            call()


@pytest.mark.parametrize("entry, bad, cause", _cases({
    "complex": (1j, "must be real numbers: must be real number, not complex"),
    "str": ("a", "must be real numbers: .*'str'"),
    "none": (None, "must be real numbers: .*'NoneType'"),
    "huge-int": (10**400, "overflow float arithmetic: int too large"),
}))
def test_non_real_parameters_rejected(entry, bad, cause):
    # The elements' real-number rule: a typed error naming the cause.
    name, calls = _TAKES_REAL[entry]
    for call in calls(bad):
        with pytest.raises(InvalidElementError, match=f"^{name} {cause}"):
            call()


def test_parameters_are_python_floats():
    p = GeodesicParams(np.float64(7.0), np.float32(0.5))
    assert type(p.phi0) is float and type(p.beta) is float
    assert (p.phi0, p.beta) == (7.0 % math.tau, 0.5)
    # A float32 beyond the square's float32 range is finite and kept.
    assert GeodesicParams(0.0, np.float32(1e20)).beta == float(np.float32(1e20))


def test_cut_time_bound_values():
    assert cut_time_bound(0.0) == pytest.approx(math.tau)
    assert cut_time_bound(math.sqrt(3.0)) == pytest.approx(math.pi)
    assert cut_time_bound(1e3) == pytest.approx(math.tau / math.sqrt(1.0 + 1e6))
    assert cut_time_bound(10.0) < cut_time_bound(5.0) < cut_time_bound(1.0)


def test_huge_beta_does_not_overflow():
    # 1 + beta^2 overflows for |beta| > 1.34e154; sqrt(1 + beta^2) must not.
    assert cut_time_bound(1e200) == pytest.approx(math.tau * 1e-200, rel=1e-15)
    g = geodesic_point(GeodesicParams(0.3, 1e200), 1e-200)
    assert np.all(np.isfinite(_components(g)))
    assert np.linalg.norm(_components(g)) == pytest.approx(1.0, abs=1e-15)


def test_su2_cut_time_is_exact():
    # Before 2*pi/s the geodesic is minimizing, so its endpoint is at
    # distance t; just past it a shorter geodesic reaches the endpoint.
    rng = np.random.default_rng(3)
    betas = np.concatenate([rng.normal(0.0, 2.0, 150), rng.uniform(-20.0, 20.0, 150)])
    phi0s = rng.uniform(0.0, math.tau, 300)
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
            p = GeodesicParams(rng.uniform(0.0, math.tau), rng.uniform(-5.0, 5.0))
            assert abs(distance_su2(geodesic_point(p, t)).t - t) <= 1e-12 * t
            assert abs(distance_so3(geodesic_point_so3(p, t)).t - t) <= 1e-12 * t


def test_numpy_inputs_give_python_floats():
    # The same values to the bit as from Python floats.
    p, t = GeodesicParams(np.float64(0.3), np.float64(1.2)), np.float64(0.7)
    g = geodesic_point(p, t)
    want = SU2Element(*endpoint_coords(0.3, 1.2, 0.7))
    assert all(type(x) is float for x in (g.a_re, g.a_im, g.b_re, g.b_im))
    assert (g.a_re, g.a_im, g.b_re, g.b_im) == (want.a_re, want.a_im, want.b_re, want.b_im)


def test_a_component_independent_of_phi0():
    # phi0 only turns B: its phase is beta*t/2 + phi0 wherever |B| is
    # not near 0 (the sine of the half angle t*s/2 above 1e-6).
    rng = np.random.default_rng(13)
    for _ in range(200):
        beta = rng.uniform(-5, 5)
        t = rng.uniform(0, cut_time_bound(beta))
        p1 = GeodesicParams(rng.uniform(0, math.tau), beta)
        p2 = GeodesicParams(rng.uniform(0, math.tau), beta)
        g1, g2 = geodesic_point(p1, t), geodesic_point(p2, t)
        assert abs(g1.a_re - g2.a_re) < 1e-14
        assert abs(g1.a_im - g2.a_im) < 1e-14
        if math.sin(t * math.hypot(1.0, beta) / 2.0) > 1e-6:
            for p, g in ((p1, g1), (p2, g2)):
                phase = (beta * t / 2.0 + p.phi0) % math.tau
                assert math.atan2(g.b_im, g.b_re) % math.tau == pytest.approx(phase, abs=1e-9)


def test_geodesics_never_beat_the_distance():
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = GeodesicParams(rng.uniform(0, math.tau), rng.uniform(-5, 5))
        t = rng.uniform(0, cut_time_bound(p.beta))
        assert distance_su2(geodesic_point(p, t)).t <= t + 1e-9


def _endpoint_det(phi0, beta, t):
    # D(t) = det[q, dq/dphi0, dq/dbeta, dq/dt], the partials by central differences.
    x = np.array([phi0, beta, t])
    columns = [endpoint_coords(*x)]
    for i, h in enumerate((1e-6, 1e-6 * max(1.0, abs(beta)), 1e-6 * t)):
        step = np.zeros(3)
        step[i] = h
        columns.append(np.subtract(endpoint_coords(*(x + step)), endpoint_coords(*(x - step))) / (2.0 * h))
    return np.linalg.det(np.array(columns))


def test_first_conjugate_time_is_the_su2_cut_time():
    # D keeps one sign up to the cut time and changes it just after, so the
    # first conjugate time is the SU(2) cut time; there the SO(3) endpoint
    # is a nontrivial rotation about axis 1 (the conjugate locus), and just
    # before it is not.
    rng = np.random.default_rng(16)
    for k in range(300):
        beta = rng.normal(0.0, 5.0) if k % 2 == 0 else rng.uniform(-50.0, 50.0)
        p = GeodesicParams(rng.uniform(0.0, math.tau), beta)
        cut = cut_time_bound(beta)
        before = {np.sign(_endpoint_det(p.phi0, beta, f * cut)) for f in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)}
        after = np.sign(_endpoint_det(p.phi0, beta, 1.001 * cut))
        assert after != 0.0 and before == {-after}, (p, before, after)
        assert conjugate_locus_so3(geodesic_point_so3(p, cut)), p
        assert not conjugate_locus_so3(geodesic_point_so3(p, 0.999 * cut)), p


def test_exp_route_at_huge_beta():
    # |beta| up to 1e307: the exp route's |v| must not square beta.
    rng = np.random.default_rng(17)
    betas = [math.copysign(10.0 ** e, rng.uniform(-1.0, 1.0)) for e in rng.uniform(0.0, 307.0, 400)]
    betas += [sign * b for b in np.logspace(150, 306, 40) for sign in (1.0, -1.0)]
    worst = 0.0
    for beta in betas:
        p = GeodesicParams(rng.uniform(0.0, math.tau), beta)
        for t in (0.0, rng.uniform(0.0, 1.0) * cut_time_bound(beta)):
            worst = max(worst, np.max(np.abs(_components(geodesic_point(p, t)) - _components(geodesic_point_exp(p, t)))))
    assert worst <= 2.2e-16


@pytest.mark.parametrize("beta, t", [(10.0, 1e308), (1e300, 1e9), (-1e300, 1e9), (1.0, 1.7e308)])
def test_time_overflow_rejected(beta, t):
    # t*sqrt(1 + beta^2) overflows: a typed error names it, on both routes.
    for point in (geodesic_point, geodesic_point_exp):
        with pytest.raises(InvalidElementError, match=r"^geodesic parameter t = .* overflows t\*sqrt\(1 \+ beta\^2\)"):
            point(GeodesicParams(0.0, beta), t)

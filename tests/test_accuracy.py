"""Distances against the 40-digit mpmath reference, band by band.

The reference is `perfbench/reference.py`, which re-implements the arc
functions in mpmath and bisects each branch equation with no threshold
shortcuts.  Each band draws seeded unit pairs: |A| = 1e-k and
1 - |A| = 1e-k (k = 2 ... 11) with uniform theta, theta within 1e-9 of
the branch-3 boundary (a band that an absolute `EPS_CASE` of 1e-9 once
routed to the boundary value; the band is now relative and 1e-15
wide), Haar draws, |B| = 1e-6 ... 1e-10 with uniform theta (once routed
to the |A| = 1 formula), short arcs at every 1 - |A| = 1e-k, long arcs
at 1 - |A| = d = 1e-4 ... 1e-10 with |theta| = pi*d/2 * U(1, 30), whose
phase lies next to the end of its range, and endpoints of steep
geodesics, where |A| is near 1.  Per band, the first pair, its lift with
Re A >= 0 when that is the other one, and its SO(3) image through both
SO(3) routes are compared with the reference (one reference value costs
about 20 ms, so a band pays for one or two); every result of the band's
PER_BAND pairs that names its geodesic (beta and phi0 set) must reach
its target along it.  One more band holds exact half turns 2nn^T - E,
built as float matrices with area-uniform axes n: the direct route's
reading of the covering pair must not cancel there.

On 30 steep geodesic endpoints the shooting oracle is held to 2e-15 of
the reference, where its 1-D solve on the loop phase is written without
cancellation, and the case analysis to TOL.  On endpoints near the
identity, t from 1e-2 down to 1e-8, the oracle is held to relative TOL
and must list one minimizer per target.

Tolerance: 1e-13 on every band, for SU(2), for the SO(3) images
through both routes and for the half turns.  At 1 - |A| = d this holds
for SO(3) because k^2 is |B|^2 of the covering pair, not (1 - c11)/2
read off the matrix, which would lose 3e-16/sqrt(d) there.
"""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")

from srdist.algebra import SO3Element, SU2Element, klein_omega, random_su2
from srdist.geodesics import (
    GeodesicParams,
    cut_time_bound,
    geodesic_point,
    geodesic_point_exp,
    geodesic_point_so3,
)
from srdist.oracle import shoot_min_time
from srdist.so3_distance import distance_so3, distance_so3_via_lifts
from srdist.su2_distance import distance_su2

_spec = importlib.util.spec_from_file_location(
    "srdist_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

PER_BAND = 16
# Distance tolerance against the reference, on every band and both groups.
TOL = 1e-13
GEODESIC_TOL = 1e-9


def _pair(rng, abs_a, abs_b, theta=None):
    if theta is None:
        theta = rng.uniform(-math.pi, math.pi)
    gamma = rng.uniform(-math.pi, math.pi)
    return SU2Element(
        abs_a * math.cos(theta), abs_a * math.sin(theta), abs_b * math.cos(gamma), abs_b * math.sin(gamma)
    )


def _eps_case_pair(rng):
    abs_a = rng.uniform(0.1, 0.9)
    theta = math.pi * (1.0 - abs_a) / 2.0 + rng.uniform(-1e-9, 1e-9)
    return _pair(rng, abs_a, math.sqrt(1.0 - abs_a * abs_a), theta * rng.choice([-1.0, 1.0]))


def _near_one_pair(rng, d, lo, hi):
    """1 - |A| = d, |theta| = pi*d/2 * U(lo, hi): short arcs below 1, long arcs above."""
    theta = rng.choice([-1.0, 1.0]) * math.pi * d / 2.0 * rng.uniform(lo, hi)
    return _pair(rng, 1.0 - d, math.sqrt(d * (2.0 - d)), theta)


def _steep_endpoint(rng):
    """Endpoint of a steep geodesic, |beta| = round(10^U(0.78, 2.5)): |A| is near 1."""
    beta = rng.choice([-1.0, 1.0]) * round(10.0 ** rng.uniform(0.78, 2.5))
    p = GeodesicParams(rng.uniform(0.0, 2.0 * math.pi), beta)
    return geodesic_point(p, rng.uniform(0.05, 0.95) * cut_time_bound(beta))


# (band, generator)
BANDS = (
    [
        (f"abs_a_1e-{k}", lambda rng, a=10.0**-k: _pair(rng, a, math.sqrt((1.0 - a) * (1.0 + a))))
        for k in range(2, 12)
    ]
    + [
        (f"one_minus_abs_a_1e-{k}", lambda rng, d=10.0**-k: _pair(rng, 1.0 - d, math.sqrt(d * (2.0 - d))))
        for k in range(2, 12)
    ]
    + [("eps_case_band", _eps_case_pair), ("haar", random_su2)]
    + [
        (f"abs_b_1e-{k}", lambda rng, b=10.0**-k: _pair(rng, math.sqrt((1.0 - b) * (1.0 + b)), b))
        for k in range(6, 11)
    ]
    + [(f"short_one_minus_abs_a_1e-{k}", lambda rng, d=10.0**-k: _near_one_pair(rng, d, 0.0, 1.0))
       for k in range(2, 12)]
    + [(f"long_one_minus_abs_a_1e-{k}", lambda rng, d=10.0**-k: _near_one_pair(rng, d, 1.0, 30.0))
       for k in range(4, 11)]
    + [("steep_endpoint", _steep_endpoint)]
)


@pytest.mark.parametrize("band, draw", BANDS, ids=[b[0] for b in BANDS])
def test_band_against_reference(band, draw):
    rng = np.random.default_rng(sum(map(ord, band)))
    pairs = [draw(rng) for _ in range(PER_BAND)]
    results = [distance_su2(g) for g in pairs]

    for g, res in zip(pairs, results):
        if res.beta is not None and res.phi0 is not None:
            e = geodesic_point_exp(GeodesicParams(res.phi0, res.beta), res.t)
            miss = max(abs(e.a_re - g.a_re), abs(e.a_im - g.a_im), abs(e.b_re - g.b_re), abs(e.b_im - g.b_im))
            assert miss <= GEODESIC_TOL, (band, g, miss)

    # The first pair, its lift with Re A >= 0 when that is the other one,
    # and its SO(3) image, whose distance is that lift's.  The lift route
    # takes the lesser of both lifts' distances, so it does not rest on this.
    g = pairs[0]
    lift = g if g.a_re >= 0.0 else g.negate()
    for q in [g] if lift is g else [g, lift]:
        ref = reference.su2_distance((q.a_re, q.a_im, q.b_re, q.b_im))
        err = distance_su2(q).t - ref
        assert abs(err) <= TOL, (band, q, err)

    c = klein_omega(g)
    lift_err = distance_so3_via_lifts(c) - ref
    direct_err = distance_so3(c).t - ref
    assert abs(lift_err) <= TOL, (band, g, lift_err)
    assert abs(direct_err) <= TOL, (band, g, direct_err)


def test_half_turns_against_reference():
    rng = np.random.default_rng(sum(map(ord, "half_turns")))
    for _ in range(PER_BAND):
        z, az = rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)
        rho = math.sqrt(1.0 - z * z)
        n = np.array([rho * math.cos(az), rho * math.sin(az), z])
        c = SO3Element(2.0 * np.outer(n, n) - np.eye(3))
        ref = reference.so3_distance(c.m)
        res = distance_so3(c)
        lift_err = distance_so3_via_lifts(c) - ref
        assert abs(lift_err) <= TOL, (n, lift_err)
        assert abs(res.t - ref) <= TOL, (n, res.t - ref)
        if res.beta is not None and res.phi0 is not None:
            miss = np.max(np.abs(np.subtract(geodesic_point_so3(GeodesicParams(res.phi0, res.beta), res.t).m, c.m)))
            assert miss <= GEODESIC_TOL, (n, miss)


@pytest.mark.parametrize("k", range(3, 9), ids=[f"t_1e-{k}" for k in range(3, 9)])
def test_near_identity_oracle_against_reference(k):
    # Endpoints near the identity, t = 10^U(-k, 1 - k), |beta| < 50: the
    # loop phase is about beta*t^3/24, so the scan's psi must be written
    # without cancellation, or spurious crossings list extra minimizers
    # (up to 114 at t in [1e-8, 1e-7) with psi = tau' - (beta/s)*u).  The
    # float endpoint pins beta only to about eps/t^2, so t_min is compared
    # with the reference distance of the float target, not the generating t.
    rng = np.random.default_rng(sum(map(ord, f"near_identity_{k}")))
    for i in range(PER_BAND):
        p = GeodesicParams(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-50.0, 50.0))
        g = geodesic_point(p, 10.0 ** rng.uniform(-k, 1 - k))
        res = shoot_min_time(g)
        assert len(res.minimizers) == 1, (k, g, res.minimizers)
        if i < 4:
            ref = reference.su2_distance((g.a_re, g.a_im, g.b_re, g.b_im))
            assert abs(res.t_min - ref) <= TOL * ref, (k, g, res.t_min - ref)


def test_steep_oracle_against_reference():
    # Endpoints of steep geodesics: the loop phase is small there, so the
    # oracle's F must be written without cancellation; the plain form
    # tau' - (beta/s)*u is off by up to 4e-13.  The case analysis, whose
    # long-arc phase lies within O(1 - |A|) of its range end, is held to TOL.
    rng = np.random.default_rng(84)
    for _ in range(30):
        g = _steep_endpoint(rng)
        ref = reference.su2_distance((g.a_re, g.a_im, g.b_re, g.b_im))
        err = shoot_min_time(g).t_min - ref
        assert abs(err) <= 2e-15, (g, err)
        err = distance_su2(g).t - ref
        assert abs(err) <= TOL, (g, err)

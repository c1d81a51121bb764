"""Distances against the 40-digit mpmath reference, band by band.

The reference is `perfbench/reference.py`, which re-implements the arc
functions in mpmath and bisects each branch equation with no threshold
shortcuts.  Each band draws seeded unit pairs: |A| = 1e-k, 1 - |A| = 1e-k
(k = 2 ... 11), theta within 1e-9 of the branch-3 boundary (the band
that `EPS_CASE` = 1e-9 used to route to the boundary value), and Haar
draws.  Per band, the first pair, and the SO(3) image of the second
through both SO(3) routes, are compared with the reference (one
reference value costs 30-50 ms); every result of the band's PER_BAND
pairs that names its geodesic (beta and phi0 set) must reach its target
along it.

Tolerances, per band:

* SU(2): 1e-13 everywhere.
* SO(3) images: 1e-13, except at 1 - |A| = d, where the float matrix's
  own rounding moves 1 - |A|^2 by about 1e-16 and the distance by about
  1e-16/sqrt(d): max(1e-13, 3e-16/sqrt(d)).
* The direct SO(3) route near half turns (the |A| bands): 3|A|.  Its
  `c11 <= -1 + _C11_EDGE` shortcut returns pi, about 2|A| off, and above
  the threshold 1 + c11 cancels; the lift route is held to 1e-13 there.
"""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")

from srdist.algebra import SU2Element, klein_omega, random_su2
from srdist.geodesics import GeodesicParams, geodesic_point_exp
from srdist.so3_distance import distance_so3, distance_so3_via_lifts
from srdist.su2_distance import distance_su2

_spec = importlib.util.spec_from_file_location(
    "srdist_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

PER_BAND = 16
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


# (band, generator, SO(3) tolerance, direct-route tolerance or None for the same)
BANDS = (
    [
        (f"abs_a_1e-{k}", lambda rng, a=10.0**-k: _pair(rng, a, math.sqrt((1.0 - a) * (1.0 + a))),
         1e-13, 3.0 * 10.0**-k)
        for k in range(2, 12)
    ]
    + [
        (f"one_minus_abs_a_1e-{k}", lambda rng, d=10.0**-k: _pair(rng, 1.0 - d, math.sqrt(d * (2.0 - d))),
         max(1e-13, 3e-16 / math.sqrt(10.0**-k)), None)
        for k in range(2, 12)
    ]
    + [("eps_case_band", _eps_case_pair, 1e-13, None), ("haar", random_su2, 1e-13, None)]
)


@pytest.mark.parametrize("band, draw, so3_tol, direct_tol", BANDS, ids=[b[0] for b in BANDS])
def test_band_against_reference(band, draw, so3_tol, direct_tol):
    rng = np.random.default_rng(sum(map(ord, band)))
    pairs = [draw(rng) for _ in range(PER_BAND)]
    results = [distance_su2(g) for g in pairs]

    for g, res in zip(pairs, results):
        if res.beta is not None and res.phi0 is not None:
            e = geodesic_point_exp(GeodesicParams(res.phi0, res.beta), res.t)
            miss = max(abs(e.a_re - g.a_re), abs(e.a_im - g.a_im), abs(e.b_re - g.b_re), abs(e.b_im - g.b_im))
            assert miss <= GEODESIC_TOL, (band, g, miss)

    g = pairs[0]
    err = results[0].t - reference.su2_distance((g.a_re, g.a_im, g.b_re, g.b_im))
    assert abs(err) <= 1e-13, (band, g, err)

    c = klein_omega(pairs[1])
    ref = reference.so3_distance(c.m)
    lift_err = distance_so3_via_lifts(c) - ref
    direct_err = distance_so3(c).t - ref
    assert abs(lift_err) <= so3_tol, (band, pairs[1], lift_err)
    assert abs(direct_err) <= (direct_tol or so3_tol), (band, pairs[1], direct_err)

import math

import numpy as np
import pytest

from srdist import BACKEND, oracle
from srdist._kernels import scan_su2
from srdist.algebra import random_su2
from srdist.geodesics import (
    GeodesicParams,
    cut_time_bound,
    endpoint_coords,
    geodesic_point,
)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

PHIS = np.linspace(0.0, TWO_PI, 48, endpoint=False)
BETAS = np.linspace(-6.0, 6.0, 49)


def _vec(g):
    return np.array([g.a_re, g.a_im, g.b_re, g.b_im])


def _max_dev(end, target):
    return float(np.max(np.abs(np.asarray(end) - target)))


def _phi_gap(a, b):
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _targets(rng, n):
    """Haar, steep and near-identity SU(2) targets, n of each."""
    out = [_vec(random_su2(rng)) for _ in range(n)]
    for _ in range(n):
        beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.78, 2.5)
        t = rng.uniform(0.05, 0.95) * cut_time_bound(beta)
        out.append(_vec(geodesic_point(GeodesicParams(rng.uniform(0.0, TWO_PI), beta), t)))
    for _ in range(n):
        p = GeodesicParams(rng.uniform(0.0, TWO_PI), rng.uniform(-30.0, 30.0))
        out.append(_vec(geodesic_point(p, 10.0 ** rng.uniform(-3.0, -2.0))))
    return out


def test_backend_name_reported():
    assert BACKEND == "python"


def test_python_scan_matches_direct_evaluation():
    # Four targets, so that some beta rows have B, not A, setting the
    # deviation.
    rng = np.random.default_rng(61)
    for _ in range(4):
        target = _vec(random_su2(rng))
        dev, t, phi0 = scan_su2([target], BETAS)
        assert dev.shape == phi0.shape == (1, 2, len(BETAS))
        assert t.shape == (2, len(BETAS))
        dev, phi0 = dev[0], phi0[0]
        assert np.all(np.abs(phi0) < TWO_PI)
        for j, beta in enumerate(BETAS):
            cut = cut_time_bound(beta)
            # Branch 0 stops at u = pi/2, branch 1 starts there.
            assert 0.0 < t[0, j] <= cut / 2.0 + 1e-15
            assert np.isinf(dev[1, j]) or cut / 2.0 - 1e-15 <= t[1, j] <= cut
            for b in range(2):
                if np.isfinite(dev[b, j]):
                    end = geodesic_point(GeodesicParams(phi0[b, j], beta), t[b, j])
                    assert _max_dev(_vec(end), target) == pytest.approx(dev[b, j], abs=1e-12)


def test_scan_finds_exact_grid_point():
    # Put the target exactly on a row's geodesic; the scan must report ~0
    # on that row, at the target's t and phi0.
    phi0, beta = PHIS[5], BETAS[30]
    t = 0.3 * cut_time_bound(beta)
    target = _vec(geodesic_point(GeodesicParams(phi0, beta), t))
    dev, t_best, phi_best = scan_su2([target], BETAS)
    assert dev[0, 0, 30] < 1e-15
    assert t_best[0, 30] == pytest.approx(t, abs=1e-15)
    assert _phi_gap(phi_best[0, 0, 30], phi0) < 1e-15


def test_scan_within_sqrt2_of_phi0_grid_scan():
    # At the scan's t the endpoint's A does not depend on phi0, and phase
    # alignment minimizes |B - B_target|; a max-norm deviation is at
    # least |z|/sqrt(2) of any complex difference z, so solving phi0 in
    # closed form loses at most a factor sqrt(2) against a phi0 grid.
    rng = np.random.default_rng(64)
    for _ in range(3):
        target = _vec(random_su2(rng))
        dev, ts, _ = scan_su2([target], BETAS)
        for (b, j), t in np.ndenumerate(ts):
            if not np.isfinite(dev[0, b, j]):
                continue
            grid = min(_max_dev(endpoint_coords(phi, BETAS[j], t), target) for phi in PHIS)
            assert dev[0, b, j] <= math.sqrt(2.0) * grid + 1e-12


def test_scan_matches_b_target():
    # Wherever s*|B_target| <= 1 a branch reaches |B_target| exactly, and
    # phi0 puts it on B_target's phase: every such cell, and so every
    # seed, lands on B_target up to the rounding of t and of the phases
    # (each below 2*pi, so at most a few ulps of 2*pi, 8.9e-16 each).
    rng = np.random.default_rng(62)
    betas = oracle._betas(oracle.GridSpec())
    s = np.sqrt(1.0 + betas * betas)
    seeds = 0
    for target in _targets(rng, 20):
        b_abs, theta = math.hypot(target[2], target[3]), math.atan2(target[3], target[2])
        dev, t, phi0 = scan_su2([target], betas)
        cells = [(phi0[0, b, j], betas[j], t[b, j]) for b, j in zip(*np.nonzero(np.isfinite(dev[0])))]
        points = [p for p in cells if math.sqrt(1.0 + p[1] ** 2) * b_abs <= 1.0]
        assert len(points) >= np.count_nonzero(s * b_abs <= 1.0)
        for seed in oracle._seeds([tuple(target)], betas):
            p = seed[1:]
            if math.sqrt(1.0 + p[1] ** 2) * b_abs <= 1.0:
                assert p in points
                seeds += 1
        for p in points:
            end = endpoint_coords(*p)
            assert abs(math.hypot(end[2], end[3]) - b_abs) <= 1e-15
            assert _phi_gap(math.atan2(end[3], end[2]), theta) <= 2e-15
    assert seeds >= 60


def test_target_on_a_row_is_found_on_that_row():
    # A target on a row's geodesic, at any t up to the cut time, has
    # deviation at the rounding floor on that row, 1e-15.  Near u = pi/2
    # the scan reads u back from s*|B| = sin(u), rounded by up to 4*eps,
    # through asin, whose slope is 1/|cos(u)|: u is off by up to
    # min(4*eps/|cos(u)|, sqrt(8*eps)), and A moves by sin(u)/s^2 per unit
    # of u along the row.  Refinement removes that error.
    rng = np.random.default_rng(63)
    betas = oracle._betas(oracle.GridSpec())
    for j in range(0, len(betas), 5):
        beta = betas[j]
        cut = cut_time_bound(beta)
        for k in range(1, 65):
            t = k / 64.0 * cut
            target = np.array(endpoint_coords(rng.uniform(0.0, TWO_PI), beta, t))
            dev = float(scan_su2([target], betas[j : j + 1])[0].min())
            s2 = 1.0 + beta * beta
            cos_u = abs(math.cos(t * math.sqrt(s2) / 2.0))
            u_err = min(4.0 * EPS / max(cos_u, EPS), math.sqrt(8.0 * EPS))
            assert dev <= 1e-15 + u_err / s2


def test_special_targets():
    # B = 0: branch 0 would be t = 0 and is dropped; branch 1 arrives at
    # the cut time.  A = 0: every row has s*|B| >= 1 and keeps branch 0
    # only, at u = pi/2.
    (dev,), t, _ = scan_su2([(math.cos(2.0), math.sin(2.0), 0.0, 0.0)], BETAS)
    assert np.all(np.isinf(dev[0])) and np.all(np.isfinite(dev[1]))
    assert np.allclose(t[1], [cut_time_bound(b) for b in BETAS], rtol=1e-15)
    (dev,), t, _ = scan_su2([(0.0, 0.0, math.cos(1.0), math.sin(1.0))], BETAS)
    assert np.all(np.isfinite(dev[0])) and np.all(np.isinf(dev[1]))
    assert np.allclose(t[0], [cut_time_bound(b) / 2.0 for b in BETAS], rtol=1e-15)

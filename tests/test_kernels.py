import math

import numpy as np
import pytest

from srdist import BACKEND, oracle
from srdist._kernels import scan_su2
from srdist.algebra import SU2Element, random_su2
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


def _loop_point(target, branch, tau):
    """(phi0, beta, t) of the loop point tau' on one half of the target's loop."""
    a, b = math.hypot(target[0], target[1]), math.hypot(target[2], target[3])
    sign = 1.0 - 2.0 * branch
    beta = sign * a / b * math.sin(tau)
    s = math.sqrt(1.0 + beta * beta)
    t = 2.0 * math.atan2(b * s, sign * a * math.cos(tau)) / s
    return math.atan2(target[3], target[2]) - beta * t / 2.0, beta, t


def _phase_mismatch(end, target):
    """A_end * conj(A_target) as a complex number."""
    return complex(end[0], end[1]) * complex(target[0], -target[1])


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
    # The scan's A*conj(A_target) at each loop point equals the endpoint
    # formula's at that point's (phi0, beta, t), and the point reaches
    # the target's B.
    rng = np.random.default_rng(61)
    for _ in range(4):
        target = _vec(random_su2(rng))
        tau, re, im = scan_su2(target, BETAS)
        assert re.shape == im.shape == (2, len(tau))
        assert np.all(np.diff(tau) >= 0.0)
        assert tau[0] == -math.pi / 2 and tau[-1] == math.pi / 2
        for b in range(2):
            for j, x in enumerate(tau):
                phi0, beta, t = _loop_point(target, b, x)
                # Branch 0 stops at u = pi/2, branch 1 starts there.
                cut = cut_time_bound(beta)
                assert (t <= cut / 2.0 + 1e-15) if b == 0 else (cut / 2.0 - 1e-15 <= t <= cut)
                end = endpoint_coords(phi0, beta, t)
                assert _max_dev(end[2:], target[2:]) <= 1e-15
                z = _phase_mismatch(end, target)
                assert abs(z - complex(re[b, j], im[b, j])) <= 1e-12


def test_scan_finds_exact_grid_point():
    # Put the target exactly on a row's geodesic; the scan must sample
    # that row on the target's loop, with phase mismatch ~0, at the
    # target's t and phi0.
    phi0, beta = PHIS[5], BETAS[30]
    t = 0.3 * cut_time_bound(beta)
    target = _vec(geodesic_point(GeodesicParams(phi0, beta), t))
    tau, re, im = scan_su2(target, BETAS)
    j = int(np.argmin(np.abs(im[0])))
    assert abs(im[0, j]) < 1e-15 and re[0, j] > 0.0
    phi_j, beta_j, t_j = _loop_point(target, 0, tau[j])
    assert beta_j == pytest.approx(beta, abs=1e-14)
    assert t_j == pytest.approx(t, abs=1e-15)
    assert _phi_gap(phi_j, phi0) < 1e-15


def test_scan_within_sqrt2_of_phi0_grid_scan():
    # At a loop point's (beta, t) the endpoint's A does not depend on
    # phi0, and phase alignment minimizes |B - B_target|; a max-norm
    # deviation is at least |z|/sqrt(2) of any complex difference z, so
    # solving phi0 in closed form loses at most a factor sqrt(2) against
    # a phi0 grid.  The scan's deviation is read from its A*conj(A_target).
    rng = np.random.default_rng(64)
    for _ in range(3):
        target = _vec(random_su2(rng))
        a2 = target[0] ** 2 + target[1] ** 2
        tau, re, im = scan_su2(target, BETAS)
        for (b, j), x in np.ndenumerate(re):
            a_end = complex(x, im[b, j]) * complex(target[0], target[1]) / a2
            dev = max(abs(a_end.real - target[0]), abs(a_end.imag - target[1]))
            _, beta, t = _loop_point(target, b, tau[j])
            grid = min(_max_dev(endpoint_coords(phi, beta, t), target) for phi in PHIS)
            assert dev <= math.sqrt(2.0) * grid + 1e-12


def test_scan_matches_b_target(monkeypatch):
    # Every loop point lands on B_target up to the rounding of t and of
    # the phases (each below 2*pi, so at most a few ulps of 2*pi, 8.9e-16
    # each), and every bracket the oracle solves starts from two
    # neighbouring loop points of the scan.
    rng = np.random.default_rng(62)
    betas = oracle._betas(oracle.GridSpec())
    brackets, solve = [], oracle._solve

    def spy(evaluate, lo, hi, *ends):
        brackets.append((lo, hi))
        return solve(evaluate, lo, hi, *ends)

    monkeypatch.setattr(oracle, "_solve", spy)
    for target in _targets(rng, 20):
        b_abs, theta = math.hypot(target[2], target[3]), math.atan2(target[3], target[2])
        tau = scan_su2(target, betas)[0]
        for b in range(2):
            for x in tau:
                end = endpoint_coords(*_loop_point(target, b, x))
                assert abs(math.hypot(end[2], end[3]) - b_abs) <= 1e-15
                assert _phi_gap(math.atan2(end[3], end[2]), theta) <= 2e-15
        del brackets[:]
        oracle.shoot_min_time(SU2Element(*target))
        assert brackets
        for lo, hi in brackets:
            j = int(np.searchsorted(tau, lo))
            assert (tau[j], tau[j + 1]) == (lo, hi)


def test_target_on_a_row_is_found_on_that_row():
    # A target on a row's geodesic, at any t up to the cut time, has a
    # loop point on that row whose phase mismatch is at the rounding
    # floor, 1e-15: the loop takes cos(u) = a*cos(tau), so no asin
    # amplifies the rounding near u = pi/2.  Branch 1 samples the rows
    # mirrored to -beta, so the scan is given the row and its mirror.
    rng = np.random.default_rng(63)
    betas = oracle._betas(oracle.GridSpec())
    for j in range(0, len(betas), 5):
        beta = betas[j]
        cut = cut_time_bound(beta)
        for k in range(1, 65):
            t = k / 64.0 * cut
            target = np.array(endpoint_coords(rng.uniform(0.0, TWO_PI), beta, t))
            _, re, im = scan_su2(target, np.sort([beta, -beta]))
            mismatch = np.abs(np.arctan2(im, re)).min()
            assert mismatch <= 2e-15, (j, k)


def test_special_targets():
    # B = 0: the loop is the cut time u = pi of every row, on branch 1
    # only, where A = -exp(-i*pi*beta/s).  A = 0: the loop shrinks to one
    # point, and every sample has A = 0.
    a = complex(math.cos(2.0), math.sin(2.0))
    x, re, im = scan_su2((a.real, a.imag, 0.0, 0.0), BETAS)
    assert x is BETAS and re.shape == (1, len(BETAS))
    s = np.sqrt(1.0 + BETAS**2)
    expected = -np.exp(-1j * math.pi * BETAS / s) * a.conjugate()
    assert np.allclose(re[0] + 1j * im[0], expected, rtol=0.0, atol=1e-15)
    tau, re, im = scan_su2((0.0, 0.0, math.cos(1.0), math.sin(1.0)), BETAS)
    assert len(tau) == oracle._kernels.LOOP_FLOOR + 1
    assert not np.any(re) and not np.any(im)

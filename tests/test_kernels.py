import math

import numpy as np
import pytest

from srdist import BACKEND
from srdist._kernels import scan_su2
from srdist.algebra import random_su2
from srdist.geodesics import GeodesicParams, geodesic_point

TWO_PI = 2.0 * math.pi

PHIS = np.linspace(0.0, TWO_PI, 48, endpoint=False)
BETAS = np.linspace(-6.0, 6.0, 49)
N_T = 96


def _vec(g):
    return np.array([g.a_re, g.a_im, g.b_re, g.b_im])


def _max_dev(end, target):
    return float(np.max(np.abs(_vec(end) - target)))


def _t_grid(beta):
    return TWO_PI / math.sqrt(1.0 + beta * beta) * np.arange(1, N_T + 1) / N_T


def _phase_phi0(target, beta, t):
    # phi0 giving B = (sin(u)/s) exp(i(beta*t/2 + phi0)) the target's phase
    return math.atan2(target[3], target[2]) - beta * t / 2.0


def _phi_gap(a, b):
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def test_backend_name_reported():
    assert BACKEND == "python"


def test_python_scan_matches_direct_evaluation():
    # Four targets, so that some beta rows have B, not A, setting the
    # deviation at the best t.
    rng = np.random.default_rng(61)
    for _ in range(4):
        target = _vec(random_su2(rng))
        dev, t_best, phi0 = scan_su2(target, BETAS, N_T)
        assert dev.shape == t_best.shape == phi0.shape == (len(BETAS),)
        assert np.all((0.0 <= phi0) & (phi0 < TWO_PI))
        for j, beta in enumerate(BETAS):
            devs = []
            for t in _t_grid(beta):
                end = geodesic_point(GeodesicParams(_phase_phi0(target, beta, t), beta), t)
                devs.append(_max_dev(end, target))
            k = int(np.argmin(devs))
            assert dev[j] == pytest.approx(devs[k], abs=1e-12)
            assert t_best[j] == pytest.approx(_t_grid(beta)[k], abs=1e-12)
            end = geodesic_point(GeodesicParams(phi0[j], beta), t_best[j])
            assert _max_dev(end, target) == pytest.approx(dev[j], abs=1e-12)


def test_scan_finds_exact_grid_point():
    # put the target exactly on a grid node; the scan must report ~0 there
    phi0, beta = PHIS[5], BETAS[30]
    t = _t_grid(beta)[49]
    target = _vec(geodesic_point(GeodesicParams(phi0, beta), t))
    dev, t_best, phi_best = scan_su2(target, BETAS, N_T)
    assert dev[30] < 1e-12
    assert t_best[30] == pytest.approx(t, abs=1e-12)
    assert _phi_gap(phi_best[30], phi0) < 1e-12


def test_scan_within_sqrt2_of_phi0_grid_scan():
    # Phase alignment minimizes |B - B_target|, and a max-norm deviation
    # is at least |z|/sqrt(2) of any complex difference z, so dropping
    # the phi0 axis loses at most a factor sqrt(2) per beta.
    rng = np.random.default_rng(64)
    for _ in range(3):
        target = _vec(random_su2(rng))
        dev, _, _ = scan_su2(target, BETAS, N_T)
        for j, beta in enumerate(BETAS):
            ts = _t_grid(beta)
            s = math.sqrt(1.0 + beta * beta)
            u, h = ts * s / 2.0, ts * beta / 2.0
            dev_a = np.maximum(
                np.abs((beta / s) * np.sin(u) * np.sin(h) + np.cos(u) * np.cos(h) - target[0]),
                np.abs((beta / s) * np.sin(u) * np.cos(h) - np.cos(u) * np.sin(h) - target[1]),
            )
            b = (np.sin(u) / s)[None, :] * np.exp(1j * (h[None, :] + PHIS[:, None]))
            dev_b = np.maximum(
                np.abs(b.real - target[2]), np.abs(b.imag - target[3])
            )
            dev3 = float(np.min(np.maximum(dev_b, dev_a[None, :])))
            assert dev[j] <= math.sqrt(2.0) * dev3 + 1e-12


def test_rows_scan_independently():
    # Each beta row's result is the same whatever rows are scanned with
    # it, bit for bit; the oracle's pruned scan relies on this.
    rng = np.random.default_rng(65)
    betas = np.linspace(-8.0, 8.0, 256)
    for _ in range(3):
        target = _vec(random_su2(rng))
        full = scan_su2(target, betas, N_T)
        for size in (1, 7, 33, 100, 256):
            rows = rng.permutation(len(betas))[:size]
            part = scan_su2(target, betas[rows], N_T)
            for got, want in zip(part, full):
                assert np.array_equal(got, want[rows])

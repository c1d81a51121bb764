import math

import numpy as np
import pytest

from srdist import BACKEND, _kernels, oracle
from srdist._kernels import RowTable, scan_su2
from srdist.algebra import random_su2
from srdist.geodesics import GeodesicParams, geodesic_point
from srdist.oracle import GridSpec, shoot_min_time

TWO_PI = 2.0 * math.pi

PHIS = np.linspace(0.0, TWO_PI, 48, endpoint=False)
BETAS = np.linspace(-6.0, 6.0, 49)
N_T = 96


def _vec(g):
    return np.array([g.a_re, g.a_im, g.b_re, g.b_im])


def _max_dev(end, target):
    return float(np.max(np.abs(_vec(end) - target)))


def _scan(target, betas, n_t):
    """The scan over every row, on a fresh table."""
    return scan_su2(RowTable(betas, n_t), target, np.arange(len(betas)))


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
        dev, t_best, phi0 = _scan(target, BETAS, N_T)
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
    dev, t_best, phi_best = _scan(target, BETAS, N_T)
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
        dev, _, _ = _scan(target, BETAS, N_T)
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
        full = _scan(target, betas, N_T)
        for size in (1, 7, 33, 100, 256):
            rows = rng.permutation(len(betas))[:size]
            part = _scan(target, betas[rows], N_T)
            for got, want in zip(part, full):
                assert np.array_equal(got, want[rows])


def test_table_rows_filled_in_any_order_match_fresh_scan():
    # One table shared by many targets, its rows filled in random subsets
    # and orders: every scan equals the full scan on a fresh table.
    rng = np.random.default_rng(66)
    betas = np.linspace(-8.0, 8.0, 256)
    shared = RowTable(betas, N_T)
    for _ in range(12):
        target = _vec(random_su2(rng))
        full = _scan(target, betas, N_T)
        rows = rng.permutation(len(betas))[: rng.integers(1, len(betas) + 1)]
        for got, want in zip(scan_su2(shared, target, rows), full):
            assert np.array_equal(got, want[rows])
    fresh = RowTable(betas, N_T)
    fresh.fill(np.arange(len(betas)))
    assert shared.filled.any()
    assert np.array_equal(shared.re_a[shared.filled], fresh.re_a[shared.filled])
    assert np.array_equal(shared.im_a[shared.filled], fresh.im_a[shared.filled])


def test_grids_differing_in_beta_max_or_n_t_have_own_tables():
    base = oracle._table(64, 8.0, 128)
    assert oracle._table(64, 8.0, 128) is base
    wider, finer = oracle._table(64, 16.0, 128), oracle._table(64, 8.0, 256)
    assert wider is not base and not np.array_equal(wider.betas, base.betas)
    assert finer is not base and finer.re_a.shape == (64, 256)


def test_shot_fills_exactly_the_scanned_rows(monkeypatch):
    oracle._table.cache_clear()
    grid = GridSpec()
    scanned = np.zeros(grid.n_beta, dtype=bool)
    real = _kernels.scan_su2

    def spy(table, target, rows):
        scanned[rows] = True
        return real(table, target, rows)

    monkeypatch.setattr(_kernels, "scan_su2", spy)
    shoot_min_time(random_su2(np.random.default_rng(67)), grid)
    table = oracle._table(grid.n_beta, grid.beta_max, grid.n_t)
    assert 0 < scanned.sum() < len(scanned)
    assert np.array_equal(table.filled, scanned)


def test_table_cache_is_bounded():
    g = random_su2(np.random.default_rng(68))
    for n_t in (64, 72, 80, 88, 96, 104):
        shoot_min_time(g, GridSpec(64, 64, 8.0, n_t))
    info = oracle._table.cache_info()
    assert info.maxsize == 4
    assert info.currsize == info.maxsize

import math

import numpy as np
import pytest

from srdist import _kernels, oracle
from srdist._kernels import row_bounds, scan_su2
from srdist.algebra import SO3Element, SU2Element, klein_entries, klein_omega, random_su2
from srdist.cutlocus import CutTag, classify_cut_locus_so3
from srdist.geodesics import (
    GeodesicParams,
    cut_time_bound,
    endpoint_coords,
    geodesic_point,
    geodesic_point_so3,
)
from srdist.oracle import (
    GridSpec,
    REFINED_TOL,
    TIME_TOL,
    ShootNoMatchError,
    _CANDIDATE_CAP,
    _jacobian_so3,
    _seeds,
    _threshold,
    br_system_residual,
    demonstrate_br_nonuniqueness,
    shoot_min_time,
    shoot_min_time_so3,
)
from srdist.so3_distance import distance_so3
from srdist.su2_distance import distance_su2

# Coarse grid keeping the unit tests quick; the acceptance suite runs the
# full 256 x 256 x 512 configuration.
SMALL = GridSpec(n_phi=64, n_beta=64, beta_max=8.0, n_t=128)

TWO_PI = 2.0 * math.pi


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert (g.n_phi, g.n_beta, g.n_t) == (256, 256, 512)
        assert g.beta_max == 8.0

    def test_rejects_too_coarse(self):
        with pytest.raises(ValueError):
            GridSpec(n_phi=32)
        with pytest.raises(ValueError):
            GridSpec(beta_max=1.0)

    def test_positional_and_keyword_forms(self):
        assert GridSpec(64, 64, 8.0, 64, refine_steps=1).refine_steps == 1
        assert GridSpec(n_phi=128, n_beta=128, beta_max=8.0, n_t=256).n_t == 256

    @pytest.mark.parametrize("beta_max", [math.nan, math.inf])
    def test_rejects_non_finite_beta_max(self, beta_max):
        with pytest.raises(ValueError):
            GridSpec(beta_max=beta_max)

    @pytest.mark.parametrize(
        "field", [{"n_t": 100.5}, {"n_beta": 128.0}, {"n_phi": 64.0}, {"refine_steps": 2.0}]
    )
    def test_rejects_non_integer_sizes(self, field):
        with pytest.raises(TypeError):
            GridSpec(**field)

    def test_accepts_numpy_integers(self):
        g = GridSpec(n_phi=np.int64(64), n_beta=np.int32(64), n_t=np.int64(128), refine_steps=np.int64(5))
        assert g.n_t == 128


def _bits(seeds):
    return [tuple(map(float.hex, p)) for p in seeds]


def _full_scan_seeds(target, betas, n_t):
    """Seeds and per-row deviations of the scan over every row, unpruned."""
    dev, t_best, phis = scan_su2(target, betas, n_t)
    idx = np.flatnonzero(dev <= _threshold(float(dev.min())))
    if len(idx) > _CANDIDATE_CAP:
        idx = idx[np.argsort(dev[idx], kind="stable")[:_CANDIDATE_CAP]]
    return list(zip(phis[idx].tolist(), betas[idx].tolist(), t_best[idx].tolist())), dev


class TestPrunedScanIsExact:
    # `_seeds` scans only the rows whose bound admits them; each call the
    # oracle makes (with its own beta window, per lift) must return the
    # seeds of the full scan bit for bit, and the bound must hold on every
    # row.  The spy then hands back no seeds, so the shot skips refinement
    # and raises.
    @pytest.fixture(autouse=True)
    def checked(self, monkeypatch):
        self.calls = 0

        def spy(target, betas, n_t):
            full, dev = _full_scan_seeds(target, betas, n_t)
            assert _bits(_seeds(target, betas, n_t)) == _bits(full)
            assert np.all(row_bounds(target, betas) <= dev)
            self.calls += 1
            return []

        monkeypatch.setattr(oracle, "_seeds", spy)

    @staticmethod
    def _shoot(shoot, g, grid):
        with pytest.raises(ShootNoMatchError):
            shoot(g, grid)

    @pytest.mark.parametrize("grid", [GridSpec(), SMALL], ids=["default", "small"])
    def test_haar_su2(self, grid):
        rng = np.random.default_rng(71)
        for _ in range(20):
            self._shoot(shoot_min_time, random_su2(rng), grid)
        assert self.calls == 20

    def test_haar_rotations_and_half_turns_both_lifts(self):
        grid = GridSpec(n_phi=128, n_beta=128, beta_max=8.0, n_t=256)
        rng = np.random.default_rng(72)
        for _ in range(20):
            self._shoot(shoot_min_time_so3, klein_omega(random_su2(rng)), grid)
        for _ in range(10):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            self._shoot(shoot_min_time_so3, SO3Element(2.0 * np.outer(n, n) - np.eye(3)), grid)
        assert self.calls == 60

    def test_special_targets(self):
        targets = [
            SU2Element(math.cos(2.0), math.sin(2.0), 0.0, 0.0),  # B = 0
            SU2Element(0.0, 0.0, math.cos(1.0), math.sin(1.0)),  # A = 0
        ]
        targets += [
            geodesic_point(GeodesicParams(phi0, beta), d)
            for d in (1e-2, 1e-3)
            for phi0, beta in [(0.3, 0.0), (1.0, 2.0), (4.0, -5.0), (2.0, 20.0)]
        ]
        targets += [
            geodesic_point(GeodesicParams(1.0, beta), t)
            for beta, t in [(20.0, 0.25), (30.0, 0.1), (100.0, 0.05)]
        ]
        for g in targets:
            for grid in (GridSpec(), SMALL):
                self._shoot(shoot_min_time, g, grid)
        assert self.calls == 2 * len(targets)


def test_pruning_skips_most_rows(monkeypatch):
    # |B| >= 0.5 caps the rows that can come near the target at |beta| of
    # about 2, far inside the default window of 8.
    rng = np.random.default_rng(73)
    g = random_su2(rng)
    while math.hypot(g.b_re, g.b_im) < 0.5:
        g = random_su2(rng)
    rows = []
    real = _kernels.scan_su2

    def counting(target, betas, n_t):
        rows.append(len(betas))
        return real(target, betas, n_t)

    monkeypatch.setattr(_kernels, "scan_su2", counting)
    res = shoot_min_time(g)
    assert abs(res.t_min - distance_su2(g).t) <= 1e-12
    assert sum(rows) < GridSpec().n_beta // 2


def test_nothing_to_refine_is_typed(monkeypatch):
    monkeypatch.setattr(oracle, "_seeds", lambda target, betas, n_t: [])
    with pytest.raises(ShootNoMatchError):
        shoot_min_time(SU2Element(0.6, 0.0, 0.8, 0.0), SMALL)


def test_so3_jacobian_matches_central_differences():
    rng = np.random.default_rng(55)
    h = 1e-6
    worst = 0.0

    def entries(x):
        return np.array(klein_entries(*endpoint_coords(*x)))

    for _ in range(300):
        x = np.array([rng.uniform(0, TWO_PI), rng.uniform(-100, 100), 0.0])
        x[2] = rng.uniform(0, cut_time_bound(x[1]))
        for i, col in enumerate(_jacobian_so3(*x)):
            step = np.zeros(3)
            step[i] = h
            fd = (entries(x + step) - entries(x - step)) / (2 * h)
            worst = max(worst, np.max(np.abs(fd - col)))
    assert worst < 1e-7


class TestShootSU2:
    def test_random_targets_match_distance(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            g = random_su2(rng)
            res = shoot_min_time(g, SMALL)
            assert abs(res.t_min - distance_su2(g).t) < TIME_TOL

    def test_minimizers_reproduce_target(self):
        rng = np.random.default_rng(52)
        g = random_su2(rng)
        res = shoot_min_time(g, SMALL)
        assert res.minimizers
        for phi0, beta, t in res.minimizers:
            end = geodesic_point(GeodesicParams(phi0 % TWO_PI, beta), t)
            dev = max(
                abs(end.a_re - g.a_re),
                abs(end.a_im - g.a_im),
                abs(end.b_re - g.b_re),
                abs(end.b_im - g.b_im),
            )
            assert dev <= REFINED_TOL
            assert t <= res.t_min + TIME_TOL
        assert res.t_min == res.minimizers[0][2]

    def test_a_zero_target(self):
        res = shoot_min_time(SU2Element(0.0, 0.0, 1.0, 0.0), SMALL)
        assert res.t_min == pytest.approx(math.pi, abs=TIME_TOL)
        phi0, beta, t = res.minimizers[0]
        assert abs(beta) < 1e-3
        assert phi0 % TWO_PI == pytest.approx(0.0, abs=1e-3)

    def test_known_short_arc(self):
        res = shoot_min_time(SU2Element(0.6, 0.0, 0.8, 0.0), SMALL)
        assert res.t_min == pytest.approx(2 * math.asin(0.8), abs=TIME_TOL)


class TestHighMomentumTargets:
    # Endpoints of steep geodesics: scan cells within MATCH_TOL of these
    # arrive earlier than any refined minimizer, so t_min must be taken
    # over the refined minimizers.  The steep valley in (beta, t) needs
    # the Gauss-Newton steps of the refinement; it converges from the
    # coarse grid's cells as well.
    @pytest.mark.parametrize("beta, t", [(20.0, 0.25), (30.0, 0.1)])
    def test_t_min_is_first_minimizer(self, beta, t):
        g = geodesic_point(GeodesicParams(1.0, beta), t)
        res = shoot_min_time(g)
        assert res.t_min == res.minimizers[0][2]
        assert abs(res.t_min - distance_su2(g).t) <= 1e-12

    @pytest.mark.parametrize("beta, t", [(20.0, 0.25), (30.0, 0.1), (100.0, 0.05)])
    def test_small_grid(self, beta, t):
        g = geodesic_point(GeodesicParams(1.0, beta), t)
        res = shoot_min_time(g, SMALL)
        assert abs(res.t_min - distance_su2(g).t) <= 1e-12


class TestNearIdentity:
    # Within 1e-2 of the identity the first grid cells overshoot the
    # target; the oracle must hit it or raise, never return a wrong time.
    @pytest.mark.parametrize("d", [1e-2, 1e-3])
    @pytest.mark.parametrize("phi0, beta", [(0.3, 0.0), (1.0, 2.0), (4.0, -5.0), (2.0, 20.0)])
    def test_hit_or_typed_error(self, phi0, beta, d):
        g = geodesic_point(GeodesicParams(phi0, beta), d)
        try:
            res = shoot_min_time(g, SMALL)
        except ShootNoMatchError:
            return
        assert abs(res.t_min - distance_su2(g).t) <= 1e-12


class TestShootSO3:
    def test_random_rotation(self):
        rng = np.random.default_rng(53)
        c = klein_omega(random_su2(rng))
        res = shoot_min_time_so3(c, SMALL)
        assert abs(res.t_min - distance_so3(c).t) < TIME_TOL

    def test_haar_rotations_reach_nearer_lift(self):
        # Each lift is seeded from its own scan rows: a grid that passes
        # closer to the far lift must not hide the near lift's rows.
        rng = np.random.default_rng(53)
        for _ in range(50):
            c = klein_omega(random_su2(rng))
            res = shoot_min_time_so3(c, SMALL)
            assert abs(res.t_min - distance_so3(c).t) <= 1e-12

    def test_sym_target_has_two_minimizers(self):
        # a half turn about a generic axis is reached by two geodesics
        rng = np.random.default_rng(54)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        c = SO3Element(2.0 * np.outer(n, n) - np.eye(3))
        assert classify_cut_locus_so3(c).tag is CutTag.SYM
        res = shoot_min_time_so3(c, SMALL)
        assert abs(res.t_min - distance_so3(c).t) < TIME_TOL
        assert len(res.minimizers) >= 2


class TestAxis1Targets:
    # B = 0: the endpoint does not depend on phi0, so every phi0 is
    # minimizing and the oracle lists representatives only.
    PSI = 2.0

    def test_su2(self):
        g = SU2Element(math.cos(self.PSI), math.sin(self.PSI), 0.0, 0.0)
        res = shoot_min_time(g, SMALL)
        assert abs(res.t_min - distance_su2(g).t) < TIME_TOL
        assert res.minimizers
        for phi0, beta, t in res.minimizers:
            end = geodesic_point(GeodesicParams(phi0, beta), t)
            assert max(
                abs(end.a_re - g.a_re),
                abs(end.a_im - g.a_im),
                abs(end.b_re - g.b_re),
                abs(end.b_im - g.b_im),
            ) <= REFINED_TOL

    def test_so3(self):
        c = klein_omega(SU2Element(math.cos(self.PSI), math.sin(self.PSI), 0.0, 0.0))
        assert classify_cut_locus_so3(c).tag is CutTag.LOC
        res = shoot_min_time_so3(c, SMALL)
        assert abs(res.t_min - distance_so3(c).t) < TIME_TOL
        assert res.minimizers
        for phi0, beta, t in res.minimizers:
            end = geodesic_point_so3(GeodesicParams(phi0, beta), t)
            assert np.max(np.abs(end.m - c.m)) <= REFINED_TOL


class TestFlawedSystem:
    def test_counterexample_two_roots(self):
        rep = demonstrate_br_nonuniqueness(0.6)
        assert rep.t_small == pytest.approx(2 * math.asin(0.8), abs=1e-12)
        assert rep.t_large == pytest.approx(TWO_PI - 2 * math.asin(0.8), abs=1e-12)
        for r in rep.residuals_small + rep.residuals_large:
            assert abs(r) < 1e-10
        assert rep.true_distance == pytest.approx(rep.t_small, abs=1e-12)

    def test_intermediate_time_fails_system(self):
        # t = 1.0 lies between the two roots and does not solve the system
        r1, r2 = br_system_residual(1.0, 0.0, 0.6, 0.0)
        assert max(abs(r1), abs(r2)) > 0.1

    def test_residual_zero_at_roots(self):
        for abs_a in (0.3, 0.6, 0.9):
            t1 = 2 * math.asin(math.sqrt(1 - abs_a * abs_a))
            for t in (t1, TWO_PI - t1):
                r1, r2 = br_system_residual(t, 0.0, abs_a, 0.0)
                assert max(abs(r1), abs(r2)) < 1e-12

    def test_rejects_bad_abs_a(self):
        with pytest.raises(ValueError):
            demonstrate_br_nonuniqueness(1.0)

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from srdist import _kernels, oracle
from srdist.algebra import SO3Element, SU2Element, klein_omega, random_su2
from srdist.cutlocus import CutTag, classify_cut_locus_so3
from srdist.flawed_system import br_system_residual, demonstrate_br_nonuniqueness
from srdist.geodesics import (
    GeodesicParams,
    cut_time_bound,
    geodesic_point,
    geodesic_point_so3,
)
from srdist.oracle import (
    GridSpec,
    REFINED_TOL,
    TIME_TOL,
    ShootNoMatchError,
    _refine,
    _seeds,
    shoot_min_time,
    shoot_min_time_so3,
)
from srdist.so3_distance import distance_so3
from srdist.su2_distance import distance_su2

# Coarse grid keeping the unit tests quick; the acceptance suite runs the
# full 256 x 256 x 512 configuration.
SMALL = GridSpec(n_phi=64, n_beta=64, beta_max=8.0, n_t=128)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


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


def _imported_modules(path):
    """Absolute names of the modules a file of the package imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1
            base = ".".join(filter(None, ["srdist" if node.level else None, node.module]))
            for alias in node.names:
                # `from . import x` names the submodule x when there is one,
                # and otherwise takes x from the package root.
                submodule = base == "srdist" and (path.parent / f"{alias.name}.py").exists()
                yield f"{base}.{alias.name}" if submodule else base


@pytest.mark.parametrize("name", ["oracle.py", "_kernels.py"])
def test_oracle_imports_no_distance_code(name):
    # The oracle checks the case analysis, so it must not run any of it:
    # not the distance modules, and not the package root, which imports them.
    path = Path(oracle.__file__).parent / name
    fenced = {"srdist", "srdist.su2_distance", "srdist.so3_distance"}
    assert not fenced & set(_imported_modules(path))


def test_nothing_to_refine_is_typed(monkeypatch):
    monkeypatch.setattr(oracle, "_seeds", lambda target, betas: [])
    with pytest.raises(ShootNoMatchError):
        shoot_min_time(SU2Element(0.6, 0.0, 0.8, 0.0), SMALL)


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


def _at_cut_fraction(beta, f):
    """(beta, t) at the share f of beta's cut-time bound, with a readable id."""
    return pytest.param(beta, f * cut_time_bound(beta), id=f"{beta}-{f}cut")


class TestHighMomentumTargets:
    # Endpoints of steep geodesics: scan cells that pass the candidate
    # threshold arrive earlier than any refined minimizer, so t_min must
    # be taken over the refined minimizers.  The steep valley in (beta, t)
    # needs the Gauss-Newton steps of the refinement; it converges from
    # the coarse grid's cells as well.  On the last three targets a
    # candidate that stops short of the target within 1e-6 arrives up to
    # 6e-4 early.
    @pytest.mark.parametrize(
        "beta, t",
        [
            (20.0, 0.25),
            (30.0, 0.1),
            _at_cut_fraction(-168.0, 0.40),
            _at_cut_fraction(-294.0, 0.57),
            _at_cut_fraction(-283.0, 0.27),
        ],
    )
    def test_t_min_is_first_minimizer(self, beta, t):
        g = geodesic_point(GeodesicParams(1.0, beta), t)
        res = shoot_min_time(g)
        assert res.t_min == res.minimizers[0][2]
        assert abs(res.t_min - distance_su2(g).t) <= 1e-12

    # Refinements cut off after 60 steps while still creeping along the
    # valley arrived 4.8e-12 to 9.4e-11 early on these targets.
    @pytest.mark.parametrize(
        "phi0, beta, t",
        [
            (5.30646635951618, -134.0, 0.028258137803553678),
            (0.07062245953845339, -130.0, 0.028382092463668098),
            (5.310217244588261, -81.0, 0.015589397006036053),
            (6.072651710875419, 94.0, 0.04195946198225957),
        ],
    )
    def test_refined_to_convergence(self, phi0, beta, t):
        g = geodesic_point(GeodesicParams(phi0, beta), t)
        assert abs(shoot_min_time(g).t_min - distance_su2(g).t) <= 1e-12

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

    # A candidate that stalls within 1e-10 of these targets arrives up to
    # 2.7e-9 early.
    @pytest.mark.parametrize(
        "phi0, beta, d", [(6.0, 27.0, 0.0068), (1.1, -30.0, 0.007), (3.0, 15.0, 0.0012)]
    )
    def test_no_early_stalled_candidate(self, phi0, beta, d):
        g = geodesic_point(GeodesicParams(phi0, beta), d)
        assert abs(shoot_min_time(g, SMALL).t_min - distance_su2(g).t) <= 1e-12

    # Refinements cut off after 60 steps arrived 1.0e-11 to 1.5e-11 early
    # on these targets at the default grid.
    @pytest.mark.parametrize(
        "phi0, beta, d",
        [
            (0.27794863375359086, 29.455770804368697, 0.0034359994231134665),
            (5.744605465532368, 29.223682278597842, 0.003570881262507604),
            (0.5528994959544642, -23.880283252201554, 0.003561068327773028),
        ],
    )
    def test_refined_to_convergence(self, phi0, beta, d):
        g = geodesic_point(GeodesicParams(phi0, beta), d)
        assert abs(shoot_min_time(g).t_min - distance_su2(g).t) <= 1e-12

    def test_seed_under_refined_tol_still_refined(self):
        # The B-matched seed on the default grid's row nearest beta starts
        # below REFINED_TOL with t off by 3.9e-13.  Near the identity the
        # Schur complement in beta is about 1e-8 of the damping, so a
        # damped step cannot move it; the Gauss-Newton step can.
        beta, d = -3.9325966852772183, 0.0005276544964793624
        g = geodesic_point(GeodesicParams(2.465198959605808, beta), d)
        target = (g.a_re, g.a_im, g.b_re, g.b_im)
        betas = oracle._betas(GridSpec())
        row = betas[np.argmin(np.abs(betas - beta)), None]
        dev, t, phi0 = _kernels.scan_su2(target, row)
        b = int(np.argmin(dev[:, 0]))
        assert 1e-14 < dev[b, 0] <= REFINED_TOL
        res = _refine(target, phi0[b, 0], row[0], t[b, 0], GridSpec().refine_steps)
        assert res[3] <= 4.0 * EPS
        assert abs(res[2] - d) <= 1e-14


# Fixed targets for the work guard, default_rng(81): 10 Haar, 10 steep
# (|beta| in 6..316, t up to 0.95 of the cut time) and 10 near the
# identity (|beta| < 30, t in 1e-3..1e-2).
def _work_targets():
    rng = np.random.default_rng(81)
    haar = [random_su2(rng) for _ in range(10)]
    steep = []
    for _ in range(10):
        beta = rng.choice([-1.0, 1.0]) * rng.uniform(6.0, 316.0)
        p = GeodesicParams(rng.uniform(0.0, TWO_PI), beta)
        steep.append(geodesic_point(p, rng.uniform(0.05, 0.95) * cut_time_bound(beta)))
    near = [
        geodesic_point(
            GeodesicParams(rng.uniform(0.0, TWO_PI), rng.uniform(-30.0, 30.0)),
            10.0 ** rng.uniform(-3.0, -2.0),
        )
        for _ in range(10)
    ]
    return {"haar": haar, "steep": steep, "near_identity": near}


# (seeds, endpoint_jacobian calls) per set of ten shots at the default
# grid: measured (11, 39), (28, 857) and (30, 861), bounded 25 % above.
# Counts repeat exactly, unlike timings.  Before the scan was solved for
# t from |B| and refinement stopped on stalls, the sets took (10, 69),
# (259, 24008) and (228, 8061).
WORK_BOUNDS = {"haar": (14, 49), "steep": (35, 1071), "near_identity": (38, 1076)}


def test_work_per_shot_is_bounded(monkeypatch):
    counts = {"seeds": 0, "jacobians": 0}
    seeds, jacobian = oracle._seeds, oracle.endpoint_jacobian

    def counted_seeds(*args):
        out = seeds(*args)
        counts["seeds"] += len(out)
        return out

    def counted_jacobian(*args):
        counts["jacobians"] += 1
        return jacobian(*args)

    monkeypatch.setattr(oracle, "_seeds", counted_seeds)
    monkeypatch.setattr(oracle, "endpoint_jacobian", counted_jacobian)
    for name, targets in _work_targets().items():
        counts.update(seeds=0, jacobians=0)
        for g in targets:
            shoot_min_time(g)
        max_seeds, max_jacobians = WORK_BOUNDS[name]
        assert counts["seeds"] <= max_seeds, name
        assert counts["jacobians"] <= max_jacobians, name


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

    def test_target_off_so3_by_rounding(self):
        # Entries off SO(3) by 1e-10 pass SO3Element's check; the oracle
        # matches the exact rotation of the target's lift, which moves the
        # distance by about as much.
        rng = np.random.default_rng(56)
        for _ in range(5):
            c = SO3Element(klein_omega(random_su2(rng)).m + 1e-10 * rng.standard_normal((3, 3)))
            assert abs(shoot_min_time_so3(c, SMALL).t_min - distance_so3(c).t) <= 1e-8

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

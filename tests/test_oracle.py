import math

import numpy as np
import pytest

from srdist.algebra import SO3Element, SU2Element, klein_omega, random_su2
from srdist.cutlocus import CutTag, classify_cut_locus_so3
from srdist.geodesics import GeodesicParams, geodesic_point, geodesic_point_so3
from srdist.oracle import (
    GridSpec,
    REFINED_TOL,
    TIME_TOL,
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
    # Endpoints of steep geodesics: candidates within MATCH_TOL of these
    # arrive earlier than any refined minimizer, so t_min must be taken
    # over the refined minimizers.  Default grid: coarser ones refine to
    # no candidate within REFINED_TOL here.
    @pytest.mark.parametrize("beta, t", [(20.0, 0.25), (30.0, 0.1)])
    def test_t_min_is_first_minimizer(self, beta, t):
        g = geodesic_point(GeodesicParams(1.0, beta), t)
        res = shoot_min_time(g)
        assert res.t_min == res.minimizers[0][2]
        assert abs(res.t_min - distance_su2(g).t) <= TIME_TOL


class TestShootSO3:
    def test_random_rotation(self):
        rng = np.random.default_rng(53)
        c = klein_omega(random_su2(rng))
        res = shoot_min_time_so3(c, SMALL)
        assert abs(res.t_min - distance_so3(c).t) < TIME_TOL

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

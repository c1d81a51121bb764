import math

import numpy as np
import pytest

from srdist.algebra import SU2Element, random_su2
from srdist import su2_distance
from srdist.flawed_system import br_system_residual, demonstrate_br_nonuniqueness
from srdist.geodesics import GeodesicParams, geodesic_point
from srdist.su2_distance import (
    DistanceCase,
    DomainError,
    arc_equation,
    arg_long,
    arg_short,
    beta_domain_max,
    distance_su2,
    distance_su2_pair,
    solve_monotone,
    time_long,
    time_short,
)
from srdist.verify import _pair


class TestBranchFunctions:
    def test_time_short_endpoints(self):
        assert time_short(0.0, 0.6) == pytest.approx(2 * math.asin(0.8), abs=1e-12)
        bmax = beta_domain_max(0.6)
        assert bmax == pytest.approx(0.75)
        for b in (bmax, -bmax):
            assert time_short(b, 0.6) == pytest.approx(math.pi * 0.8, abs=1e-12)

    def test_time_short_interior_and_even(self):
        lo = 2 * math.asin(0.8)
        hi = math.pi * 0.8
        v = time_short(0.5, 0.6)
        assert lo < v < hi
        assert v == time_short(-0.5, 0.6)

    def test_time_long_endpoints(self):
        assert time_long(0.0, 0.6) == pytest.approx(
            2 * (math.pi - math.asin(0.8)), abs=1e-12
        )
        assert time_long(0.75, 0.6) == pytest.approx(math.pi * 0.8, abs=1e-12)
        assert time_long(-0.75, 0.6) == pytest.approx(math.pi * 0.8, abs=1e-12)

    def test_arg_short_values(self):
        assert arg_short(0.0, 0.6) == 0.0
        assert arg_short(0.75, 0.6) == pytest.approx(0.2 * math.pi, abs=1e-12)
        assert arg_short(-0.3, 0.6) == pytest.approx(-arg_short(0.3, 0.6), abs=1e-14)

    def test_arg_long_values(self):
        assert arg_long(0.0, 0.6) == 0.0
        assert arg_long(0.75, 0.6) == pytest.approx(0.8 * math.pi, abs=1e-12)

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            time_short(0.8, 0.6)
        with pytest.raises(DomainError):
            arg_long(-0.76, 0.6)

    @pytest.mark.parametrize("fn", [time_short, time_long, arg_short, arg_long])
    @pytest.mark.parametrize("beta", [math.nan, -math.nan], ids=["nan", "-nan"])
    def test_nan_beta_rejected(self, fn, beta):
        # Not clamped to -b*: a NaN beta is outside the domain.
        with pytest.raises(DomainError, match=r"^\|beta\| = nan exceeds domain endpoint "):
            fn(beta, 0.6)

    @pytest.mark.parametrize(
        "abs_a", [10.0 ** -k for k in range(1, 13)] + [1.0 - 10.0 ** -k for k in range(1, 13)],
        ids=[f"abs_a_1e-{k}" for k in range(1, 13)] + [f"one_minus_abs_a_1e-{k}" for k in range(1, 13)],
    )
    def test_beta_forms_accept_the_case_analysis_beta(self, abs_a):
        # theta within relative 1e-9 of the branch-3 boundary: the beta
        # distance_su2 returns is in its own branch's beta-form domain.  b*
        # read off |A| alone is off by a relative eps/(1 - |A|^2) as
        # |A| -> 1, where 1e-12 absolute alone refused hundreds of them.
        forms = {DistanceCase.SHORT: (arg_short, time_short), DistanceCase.BOUNDARY: (arg_short, time_short),
                 DistanceCase.LONG: (arg_long, time_long)}
        rng = np.random.default_rng(5)
        edge = math.pi * (1.0 - abs_a) / 2.0
        for _ in range(500):
            theta = rng.choice((-1.0, 1.0)) * edge * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0))
            g = _pair(abs_a, math.sqrt(1.0 - abs_a * abs_a), theta, rng.uniform(-math.pi, math.pi))
            res = distance_su2(g)
            for form in forms[res.case]:
                assert math.isfinite(form(res.beta, math.hypot(g.a_re, g.a_im)))

    @pytest.mark.parametrize("abs_a", [0.0, 1.0])
    def test_beta_domain_max_rejects_the_ends(self, abs_a):
        with pytest.raises(DomainError, match=r"abs_a must lie in \(0, 1\)"):
            beta_domain_max(abs_a)


class TestSolveMonotone:
    # |A| = 0.6: k = 0.8, b* = 0.75, beta = b* sin(x); the short-arc G
    # rises from 0 to the boundary 0.2*pi, the long-arc G falls to it from pi.
    short = staticmethod(arc_equation(0.6, 0.8, long=False))
    long = staticmethod(arc_equation(0.6, 0.8, long=True))
    SHORT_ENDS = (0.0, 0.2 * math.pi)
    LONG_ENDS = (math.pi, 0.2 * math.pi)

    def test_zero_target(self):
        # Phase 0: theta = 0 on the short arc, |theta| = pi on the long one.
        for f, target, ends in ((self.short, 0.0, self.SHORT_ENDS), (self.long, math.pi, self.LONG_ENDS)):
            beta, _ = solve_monotone(f, target, ends, 0.7)
            assert abs(beta) < 1e-12

    def test_endpoint_target(self):
        beta, t = solve_monotone(self.short, 0.2 * math.pi, self.SHORT_ENDS, 0.7)
        assert beta == pytest.approx(0.75, abs=1e-9)
        assert t == pytest.approx(0.8 * math.pi, abs=1e-12)

    def test_residual(self):
        beta, _ = solve_monotone(self.short, 0.3, self.SHORT_ENDS, 0.7)
        assert abs(arg_short(beta, 0.6) - 0.3) < 1e-12
        beta, _ = solve_monotone(self.long, 2.0, self.LONG_ENDS, 0.7)
        assert abs(arg_long(beta, 0.6) - (math.pi - 2.0)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            solve_monotone(self.short, 1.0, self.SHORT_ENDS, 0.7)
        with pytest.raises(DomainError):
            solve_monotone(self.long, 0.5, self.LONG_ENDS, 0.7)

    def test_nan_target_rejected(self):
        # Rising (short-arc) and falling (long-arc) ends alike.
        for f, ends in ((self.short, self.SHORT_ENDS), (self.long, self.LONG_ENDS)):
            with pytest.raises(DomainError, match=r"^target nan outside monotone range "):
                solve_monotone(f, math.nan, ends, 0.7)

    @pytest.mark.parametrize("start, clamped", [
        (-1.0, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (2.0, math.pi / 2), (math.inf, math.pi / 2),
    ])
    def test_start_outside_is_clamped(self, start, clamped):
        for f, target, ends in ((self.short, 0.3, self.SHORT_ENDS), (self.long, 2.0, self.LONG_ENDS)):
            got = solve_monotone(f, target, ends, start)
            want = solve_monotone(f, target, ends, clamped)
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_psi_form_matches_beta_form(self):
        # Away from the endpoints, where the beta form loses digits to
        # its asin near 1.  x = |psi|, and beta = b* sin(psi) takes psi's
        # sign: arg_short(beta) = sign*G_short, arg_long(beta) = sign*(pi - G_long).
        psis = np.linspace(-1.4, 1.4, 29)
        for abs_a in (0.05, 0.3, 0.6, 0.9, 0.99):
            k = math.sqrt((1.0 - abs_a) * (1.0 + abs_a))
            bmax = beta_domain_max(abs_a)
            boundary = math.pi * (1.0 - abs_a) / 2.0
            for long, arg, time, ends in (
                (False, arg_short, time_short, (0.0, boundary)),
                (True, arg_long, time_long, (math.pi, boundary)),
            ):
                f = arc_equation(abs_a, k, long)
                for psi in psis:
                    beta = bmax * math.sin(psi)
                    x, sign = abs(psi), math.copysign(1.0, psi)
                    value, slope, _, (got_beta, t) = f(x)
                    phase = sign * (math.pi - value if long else value)
                    assert phase == pytest.approx(arg(beta, abs_a), abs=1e-12)
                    assert got_beta == pytest.approx(abs(beta), rel=1e-12, abs=1e-15)
                    assert t == pytest.approx(time(beta, abs_a), abs=1e-12)
                    h = 1e-6
                    diff = (f(x + h)[0] - f(x - h)[0]) / (2.0 * h)
                    assert slope == pytest.approx(diff, rel=1e-6)
                    got_beta, t = solve_monotone(f, value, ends, 0.7)
                    assert got_beta == pytest.approx(abs(beta), rel=1e-9, abs=1e-12)
                    assert t == pytest.approx(time(beta, abs_a), abs=1e-12)

    def test_evaluation_count(self, monkeypatch):
        # Mean per Haar draws, per edge band |A| = 1e-k, 1 - |A| = 1e-k and
        # per band just off the branch-3 boundary on each of those |A|
        # (about 4.1 on Haar draws, at most 3 off the boundary); 55 is the
        # count of the bisection this solve replaced.
        counts = []

        def counting(f, *args):
            n = 0

            def g(x):
                nonlocal n
                n += 1
                return f(x)

            result = solve_monotone(g, *args)
            counts.append(n)
            return result

        monkeypatch.setattr(su2_distance, "solve_monotone", counting)
        rng = np.random.default_rng(27)
        for _ in range(2000):
            distance_su2(random_su2(rng))
        means = [np.mean(counts)]
        worst = max(counts)
        for k in range(2, 12):
            for abs_a in (10.0**-k, 1.0 - 10.0**-k):
                abs_b = math.sqrt(1.0 - abs_a * abs_a)
                counts.clear()
                for theta, phase in rng.uniform(-math.pi, math.pi, (100, 2)):
                    distance_su2(_pair(abs_a, abs_b, theta, phase))
                means.append(np.mean(counts))
                worst = max(worst, max(counts))
                counts.clear()
                boundary = math.pi * (1.0 - abs_a) / 2.0
                for _ in range(100):
                    off = rng.choice([-1.0, 1.0]) * rng.uniform(1e-12, 1e-6)
                    theta = rng.choice([-1.0, 1.0]) * boundary * (1.0 + off)
                    distance_su2(_pair(abs_a, abs_b, theta, rng.uniform(-math.pi, math.pi)))
                means.append(np.mean(counts))
                worst = max(worst, max(counts))
        assert max(means) <= 5
        assert worst <= 55


class TestDistance:
    def test_identity(self):
        res = distance_su2(SU2Element.identity())
        assert res.t == 0.0

    def test_a_zero(self):
        for phase in (0.0, 1.0, 2.5):
            g = SU2Element(0.0, 0.0, math.cos(phase), math.sin(phase))
            res = distance_su2(g)
            assert res.t == pytest.approx(math.pi, abs=1e-15)
            assert res.case is DistanceCase.A_ZERO
            assert res.beta == 0.0
            assert res.phi0 == pytest.approx(phase % math.tau, abs=1e-12)

    def test_abs_a_one(self):
        res = distance_su2(SU2Element(0.0, 1.0, 0.0, 0.0))
        assert res.t == pytest.approx(math.pi * math.sqrt(3.0), abs=1e-12)
        assert res.case is DistanceCase.ABS_A_ONE
        assert res.beta == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert res.phi0 is None
        res = distance_su2(SU2Element(-1.0, 0.0, 0.0, 0.0))
        assert res.t == pytest.approx(math.tau, abs=1e-12)
        assert res.beta == 0.0
        assert distance_su2(SU2Element.identity()).beta is None

    @pytest.mark.parametrize("theta", [0.3, -0.3, 1.0, -1.0, 2.5, -2.5, math.pi])
    def test_abs_a_one_beta_reaches_target(self, theta):
        # phi0 is free on B = 0, and beta (theta's sign) is unique: at
        # theta = 1, -beta misses the target by 1.68.
        g = SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0)
        res = distance_su2(g)
        assert res.case is DistanceCase.ABS_A_ONE and res.phi0 is None
        for phi0 in (0.0, 1.0, 2.5, 4.0, 6.0):
            end = geodesic_point(GeodesicParams(phi0, res.beta), res.t)
            assert max(
                abs(end.a_re - g.a_re),
                abs(end.a_im - g.a_im),
                abs(end.b_re - g.b_re),
                abs(end.b_im - g.b_im),
            ) <= 1e-12

    def test_short_arc_real_a(self):
        for phase in (0.0, 0.8, 2.0):
            res = distance_su2(_pair(0.6, 0.8, 0.0, phase))
            assert res.t == pytest.approx(2 * math.asin(0.8), abs=1e-12)
            assert res.case is DistanceCase.SHORT
            assert res.beta == pytest.approx(0.0, abs=1e-12)

    def test_long_arc_negative_real_a(self):
        res = distance_su2(SU2Element(-0.6, 0.0, 0.8, 0.0))
        assert res.t == pytest.approx(2 * (math.pi - math.asin(0.8)), abs=1e-12)
        assert res.case is DistanceCase.LONG
        assert res.beta == pytest.approx(0.0, abs=1e-12)

    def test_boundary_case(self):
        # On both sides of the boundary beta = +-b* takes theta's sign, and
        # the geodesic it names reaches the target.
        abs_a = 0.5
        for sign in (1.0, -1.0):
            g = _pair(abs_a, math.sqrt(0.75), sign * math.pi * (1 - abs_a) / 2, 0.7)
            res = distance_su2(g)
            assert res.t == pytest.approx(math.pi * math.sqrt(0.75), abs=1e-12)
            assert res.case is DistanceCase.BOUNDARY
            assert res.beta == sign * beta_domain_max(abs_a)
            end = geodesic_point(GeodesicParams(res.phi0, res.beta), res.t)
            assert max(
                abs(end.a_re - g.a_re),
                abs(end.a_im - g.a_im),
                abs(end.b_re - g.b_re),
                abs(end.b_im - g.b_im),
            ) <= 1e-12

    def test_depends_only_on_a(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            abs_a = rng.uniform(0.05, 0.95)
            theta = rng.uniform(-math.pi, math.pi)
            abs_b = math.sqrt(1.0 - abs_a * abs_a)
            t_vals = [distance_su2(_pair(abs_a, abs_b, theta, ph)).t for ph in rng.uniform(0, math.tau, 4)]
            assert max(t_vals) - min(t_vals) < 1e-12

    def test_case_system_residuals(self):
        # The phase residuals are criterion 6's, at 1e-10; t is held tighter here.
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            g = random_su2(rng)
            res = distance_su2(g)
            if res.case not in (DistanceCase.SHORT, DistanceCase.LONG):
                continue
            checked += 1
            time = time_short if res.case is DistanceCase.SHORT else time_long
            assert res.t == pytest.approx(time(res.beta, math.hypot(g.a_re, g.a_im)), abs=1e-12)

    def test_geodesic_parameters_reproduce_target(self):
        from srdist.geodesics import GeodesicParams, geodesic_point

        rng = np.random.default_rng(24)
        for _ in range(100):
            g = random_su2(rng)
            res = distance_su2(g)
            if res.beta is None or res.phi0 is None:
                continue
            end = geodesic_point(GeodesicParams(res.phi0, res.beta), res.t)
            for got, want in [
                (end.a_re, g.a_re),
                (end.a_im, g.a_im),
                (end.b_re, g.b_re),
                (end.b_im, g.b_im),
            ]:
                assert got == pytest.approx(want, abs=1e-8)

    def test_tiny_b_routes_on_exact_zeros(self):
        # Only B = 0 (or subnormal |B|) takes the |A| = 1 formula.  At
        # |B| = 1e-200, where |A| rounds to 1 and |B|^2 underflows, theta = 0
        # is a short arc of length 2|B|, not the boundary pi|B| nor 0.
        res = distance_su2(SU2Element(1.0, 0.0, 1e-200, 0.0))
        assert res.case is DistanceCase.SHORT
        assert res.t == 2e-200 and res.beta == 0.0
        for abs_b in (1e-309, 1e-320, 5e-324):
            for theta in (0.0, 0.3, -2.0):
                res = distance_su2(SU2Element(math.cos(theta), math.sin(theta), abs_b, 0.0))
                assert res.case is DistanceCase.ABS_A_ONE
                closed = 2.0 * math.sqrt(abs(theta) * (math.tau - abs(theta)))
                assert abs(res.t - closed) <= 1e-15

    def test_boundary_where_abs_a_rounds_to_one(self):
        # |B| = 1e-10: |A| is 1.0 in floats, so beta = +-|A|/|B|, not b*.
        abs_b = 1e-10
        theta = math.pi * abs_b * abs_b / 4.0
        for sign in (1.0, -1.0):
            res = distance_su2(SU2Element(math.cos(theta), sign * math.sin(theta), abs_b, 0.0))
            assert res.case is DistanceCase.BOUNDARY
            assert res.t == math.pi * abs_b
            assert res.beta == sign / abs_b

    def test_boundary_continuity(self):
        abs_a = 0.5
        theta_b = math.pi * (1 - abs_a) / 2
        t_boundary = math.pi * math.sqrt(1 - abs_a * abs_a)
        for eps in (1e-8, -1e-8):
            res = distance_su2(_pair(abs_a, math.sqrt(1 - abs_a * abs_a), theta_b + eps, 0.0))
            assert res.t == pytest.approx(t_boundary, abs=1e-6)

    def test_pair_distance(self):
        rng = np.random.default_rng(26)
        g = random_su2(rng)
        h = random_su2(rng)
        assert distance_su2_pair(g, g) == 0.0
        assert distance_su2_pair(SU2Element.identity(), h) == distance_su2(h).t


class TestFlawedSystem:
    def test_counterexample_two_roots(self):
        rep = demonstrate_br_nonuniqueness(0.6)
        assert rep.t_small == pytest.approx(2 * math.asin(0.8), abs=1e-12)
        assert rep.t_large == pytest.approx(math.tau - 2 * math.asin(0.8), abs=1e-12)

    def test_intermediate_time_fails_system(self):
        # t = 1.0 lies between the two roots and does not solve the system
        r1, r2 = br_system_residual(1.0, 0.0, 0.6, 0.0)
        assert max(abs(r1), abs(r2)) > 0.1

    def test_residual_zero_at_roots(self):
        for abs_a in (0.3, 0.6, 0.9):
            t1 = 2 * math.asin(math.sqrt(1 - abs_a * abs_a))
            for t in (t1, math.tau - t1):
                r1, r2 = br_system_residual(t, 0.0, abs_a, 0.0)
                assert max(abs(r1), abs(r2)) < 1e-12

    def test_rejects_bad_abs_a(self):
        with pytest.raises(ValueError):
            demonstrate_br_nonuniqueness(1.0)

    @pytest.mark.parametrize("u", [
        6381956970095103 * 2.0 ** 797, math.nextafter(math.pi / 2, 0.0), math.pi / 2, math.nextafter(math.pi / 2, 2.0),
    ], ids=["least-cos", "below-half-pi", "half-pi", "above-half-pi"])
    @pytest.mark.parametrize("beta", [0.0, 1e-3, -3.0])
    def test_residuals_finite_at_the_least_cosine(self, u, beta):
        # No double has |cos| below 4.69e-19, reached at the first u (the
        # worst case of argument reduction), so the tan in the first
        # equation never meets its pole.
        s = math.sqrt(1.0 + beta * beta)
        t = 2.0 * u / s
        assert t * s / 2.0 == u
        assert abs(math.cos(u)) >= 4.68e-19
        assert all(map(math.isfinite, br_system_residual(t, beta, 0.6, 0.0)))

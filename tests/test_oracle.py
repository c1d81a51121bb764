import ast
import math
from pathlib import Path

import numpy as np
import pytest

from srdist import oracle
from srdist.algebra import SO3Element, SU2Element, klein_omega, lift_so3, random_so3, random_su2
from srdist.cutlocus import MEMBERSHIP_TOL, CutTag, classify_cut_locus_so3
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
    ShootNoMatchError,
    shoot_min_time,
    shoot_min_time_so3,
)
from srdist.so3_distance import distance_so3
from srdist.su2_distance import distance_su2

# A grid is accepted and unread: the scan samples fixed points of the loop.
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


def test_oracle_imports_no_distance_code():
    # The oracle checks the case analysis, so it must not run any of it:
    # not the distance modules, and not the package root, which imports them.
    # Nor numpy: on 17 samples a numpy call costs more than its arithmetic.
    path = Path(oracle.__file__)
    fenced = {"srdist", "srdist.su2_distance", "srdist.so3_distance", "numpy"}
    assert not fenced & set(_imported_modules(path))


def test_nothing_to_refine_is_typed(monkeypatch):
    monkeypatch.setattr(oracle, "_brackets", lambda psi, thetas: [])
    with pytest.raises(ShootNoMatchError):
        shoot_min_time(SU2Element(0.6, 0.0, 0.8, 0.0))


def test_fixed_samples_are_built_once_and_read_only(monkeypatch):
    # The loop's tau' samples are a tuple built at import; every shot
    # reads it, whatever grid it is passed.  B = 0 shots scan nothing:
    # their roots are in closed form.
    scans = []
    scan = oracle.scan_su2

    def spy(a, b):
        scans.append((a, b))
        return scan(a, b)

    monkeypatch.setattr(oracle, "scan_su2", spy)
    rng = np.random.default_rng(57)
    for g in (random_su2(rng), random_su2(rng)):
        shoot_min_time(g, SMALL)
        shoot_min_time(g)
    assert len(scans) == 4
    assert type(oracle._TAU) is tuple
    with pytest.raises(TypeError):
        oracle._TAU[0] = 0.0
    for g in (SU2Element(0.6, 0.8, 0.0, 0.0), SU2Element(0.8, -0.6, 0.0, 0.0)):
        shoot_min_time(g, SMALL)
        shoot_min_time(g)
        shoot_min_time_so3(klein_omega(g))
    assert len(scans) == 4


class TestShootSU2:
    def test_random_targets_match_distance(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            g = random_su2(rng)
            res = shoot_min_time(g)
            assert abs(res.t_min - distance_su2(g).t) <= 1e-12

    def test_minimizers_reproduce_target(self):
        rng = np.random.default_rng(52)
        g = random_su2(rng)
        res = shoot_min_time(g)
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
            assert t <= res.t_min + REFINED_TOL
        assert res.t_min == res.minimizers[0][2]

    def test_a_zero_target(self):
        res = shoot_min_time(SU2Element(0.0, 0.0, 1.0, 0.0))
        assert abs(res.t_min - math.pi) <= 1e-12
        phi0, beta, t = res.minimizers[0]
        assert abs(beta) < 1e-3
        assert phi0 % TWO_PI == pytest.approx(0.0, abs=1e-3)

    def test_known_short_arc(self):
        res = shoot_min_time(SU2Element(0.6, 0.0, 0.8, 0.0))
        assert abs(res.t_min - 2 * math.asin(0.8)) <= 1e-12


def _at_cut_fraction(beta, f):
    """(beta, t) at the share f of beta's cut-time bound, with a readable id."""
    return pytest.param(beta, f * cut_time_bound(beta), id=f"{beta}-{f}cut")


class TestHighMomentumTargets:
    # Endpoints of steep geodesics.  On the last three targets a point
    # that stops short of the target within 1e-6 arrives up to 6e-4
    # early, so t_min must be taken over the roots that pass the
    # endpoint gate.
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

    # A solve cut off before convergence arrived 4.8e-12 to 9.4e-11 early
    # on these targets.
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
            res = shoot_min_time(g)
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
        assert abs(shoot_min_time(g).t_min - distance_su2(g).t) <= 1e-12

    # A solve cut off before convergence arrived 1.0e-11 to 1.5e-11 early
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

    def test_start_under_refined_tol_still_solved(self):
        # The default grid's row nearest beta reaches this target within
        # REFINED_TOL at a t off by 3.9e-13: passing the gate alone does
        # not pin t to 1e-14, so the solve must run to the rounding floor.
        beta, d = -3.9325966852772183, 0.0005276544964793624
        g = geodesic_point(GeodesicParams(2.465198959605808, beta), d)
        res = shoot_min_time(g)
        assert abs(res.t_min - d) <= 1e-14


# Fixed targets for the work guard, default_rng(81): 10 Haar, 10 steep
# (|beta| in 6..316, t up to 0.95 of the cut time), 10 near the identity
# (|beta| < 30, t in 1e-3..1e-2) and 10 rotations about axis 1 (B = 0,
# |arg A| = 10^U(-5, 0.49)).
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
    axis1 = []
    for _ in range(10):
        theta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 0.49)
        axis1.append(SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0))
    return {"haar": haar, "steep": steep, "near_identity": near, "axis1": axis1}


# (brackets solved, phase evaluations) per set of ten shots: bounded
# 25 % above (10, 38), (10, 46) and (10, 36), measured with grid rows; the
# fixed samples' wider brackets measure (10, 44), (10, 50) and (10, 45).
# Axis-1 shots (B = 0) solve nothing: each lift's root is in closed form
# (`_cut_root`).  A phase evaluation is one `_loop_phase` call, F and its
# slope at one trial point; the endpoint is evaluated once per root, for
# its gate and point: once per solved bracket, and once per lift on
# B = 0.  Counts repeat exactly, unlike timings.
WORK_BOUNDS = {"haar": (12, 47), "steep": (12, 57), "near_identity": (12, 45), "axis1": (0, 0)}


def test_work_per_shot_is_bounded(monkeypatch):
    counts = {"brackets": 0, "phases": 0, "cut_roots": 0, "endpoints": 0}

    def counted(name, key):
        original = getattr(oracle, name)

        def spy(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(oracle, name, spy)

    counted("_solve", "brackets")
    counted("_loop_phase", "phases")
    counted("_cut_root", "cut_roots")
    counted("endpoint_coords", "endpoints")
    for name, targets in _work_targets().items():
        counts.update(brackets=0, phases=0, cut_roots=0, endpoints=0)
        for g in targets:
            shoot_min_time(g)
        max_brackets, max_phases = WORK_BOUNDS[name]
        assert counts["brackets"] <= max_brackets, name
        assert counts["phases"] <= max_phases, name
        assert counts["cut_roots"] == (len(targets) if name == "axis1" else 0), name
        assert counts["endpoints"] == counts["brackets"] + counts["cut_roots"], name


def test_brackets_hold_python_numbers():
    # A numpy integer or float in the scan or a bracket would turn every
    # phase of its solve into numpy-scalar arithmetic, several times slower.
    rng = np.random.default_rng(82)
    steep = geodesic_point(GeodesicParams(1.0, 30.0), 0.1)
    for g in [random_su2(rng), *lift_so3(random_so3(rng))[:1], steep]:
        lifts = [(g.a_re, g.a_im), (-g.a_re, -g.a_im)]
        a, b = math.hypot(g.a_re, g.a_im), math.hypot(g.b_re, g.b_im)
        psi = oracle.scan_su2(a, b)
        assert all(type(v) is float for v in (*oracle._TAU, *psi[0], *psi[1]))
        brackets = list(oracle._brackets(psi, [math.atan2(im, re) for re, im in lifts]))
        assert {lift for lift, *_ in brackets} == {0, 1}
        for lift, row, n, bracket in brackets:
            assert type(lift) is int and type(row) is int and type(n) is int
            assert all(type(v) is float for v in bracket)
    # A B = 0 target reaches no bracket pass: each lift's root is closed-form.
    g = SU2Element(0.6, 0.8, 0.0, 0.0)
    for re, im in [(g.a_re, g.a_im), (-g.a_re, -g.a_im)]:
        assert all(type(v) is float for v in oracle._cut_root(math.atan2(im, re)))


@pytest.mark.parametrize("abs_b", [1e-310, 5e-324])
def test_subnormal_b_shoots_on_the_cut_row(abs_b):
    # b* = |A|/|B| overflows at subnormal |B|; the shot treats B as 0, and
    # the 4-D gate, which sees the target's own B, keeps the root.
    g = SU2Element(0.6, 0.8, abs_b, 0.0)
    assert abs(shoot_min_time(g).t_min - distance_su2(g).t) <= 1e-12


def _steep_endpoints(n):
    """n endpoints of steep geodesics, default_rng(81): |beta| = 10^U(0.8, 3.2), late in the loop."""
    rng = np.random.default_rng(81)
    out = []
    for _ in range(n):
        beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.8, 3.2)
        p = GeodesicParams(rng.uniform(0.0, TWO_PI), beta)
        out.append(geodesic_point(p, rng.uniform(0.5, 0.97) * cut_time_bound(beta)))
    return out


def _unit_pair(rng, abs_a, abs_b):
    alpha, gamma = rng.uniform(-math.pi, math.pi, 2)
    return SU2Element(abs_a * math.cos(alpha), abs_a * math.sin(alpha), abs_b * math.cos(gamma), abs_b * math.sin(gamma))


def _uniqueness_targets(kind):
    """200 SU(2) targets off B = 0 of one kind, default_rng(98)."""
    rng = np.random.default_rng(98)
    if kind == "haar":
        return [random_su2(rng) for _ in range(200)]
    if kind == "steep":
        return _steep_endpoints(200)
    if kind == "near_identity":
        # t = 10^U(-8, -2): psi is about beta*t^3/24 there, far below the
        # rounding of the two terms of tau' - (beta/s)*u.
        return [
            geodesic_point(GeodesicParams(rng.uniform(0.0, TWO_PI), rng.uniform(-50.0, 50.0)), 10.0 ** rng.uniform(-8.0, -2.0))
            for _ in range(200)
        ]
    ds = [10.0**-k for k in range(1, 13) for _ in range(16)]
    if kind == "abs_a":
        return [_unit_pair(rng, d, math.sqrt((1.0 - d) * (1.0 + d))) for d in ds]
    return [_unit_pair(rng, 1.0 - d, math.sqrt(d * (2.0 - d))) for d in ds]


@pytest.mark.parametrize("kind", ["haar", "steep", "near_identity", "abs_a", "one_minus_abs_a"])
def test_each_lift_off_b_zero_crosses_one_level(kind):
    # The SU(2) cut locus is B = 0 (the paper's uniqueness theorem): psi
    # rises strictly along the loop and gains 2*pi, so each lift g and -g
    # crosses exactly one level arg(A) + 2*pi*n, and lists one minimizer.
    # The oracle does not assume this; it solves every bracket it finds.
    for g in _uniqueness_targets(kind):
        for h in (g, g.negate()):
            psi = oracle.scan_su2(math.hypot(h.a_re, h.a_im), math.hypot(h.b_re, h.b_im))
            assert len(list(oracle._brackets(psi, [math.atan2(h.a_im, h.a_re)]))) == 1, h
            assert len(shoot_min_time(h).minimizers) == 1, h


class TestOneRootPerMinimizer:
    def test_haar_targets_list_one_minimizer(self):
        rng = np.random.default_rng(58)
        for _ in range(50):
            res = shoot_min_time(random_su2(rng))
            assert len(res.minimizers) == 1
            assert res.t_min == res.minimizers[0][2]

    def test_haar_rotations_list_one_minimizer(self):
        # Off the cut locus one geodesic is minimizing; a time window of
        # 2e-2 listed the other lift's root too on 3 of these.
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = random_so3(rng)
            res = shoot_min_time_so3(c)
            assert len(res.minimizers) == 1
            assert abs(res.t_min - distance_so3(c).t) <= 1e-12

    def test_steep_t_min_repeats(self):
        # One root per minimizer, so t_min no longer depends on which
        # duplicates of it were solved.
        for g in _work_targets()["steep"]:
            first, second = shoot_min_time(g), shoot_min_time(g)
            assert len(first.minimizers) == 1
            assert first.t_min.hex() == second.t_min.hex()


def _half_turn(rng):
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    return SO3Element(2.0 * np.outer(n, n) - np.eye(3))


class TestShootSO3:
    def test_random_rotation(self):
        rng = np.random.default_rng(53)
        c = klein_omega(random_su2(rng))
        res = shoot_min_time_so3(c)
        assert abs(res.t_min - distance_so3(c).t) <= 1e-12

    def test_haar_rotations_reach_nearer_lift(self):
        # Each lift's roots are bracketed in the one scan: a grid that
        # passes closer to the far lift must not hide the near lift's roots.
        rng = np.random.default_rng(53)
        for _ in range(50):
            c = klein_omega(random_su2(rng))
            res = shoot_min_time_so3(c)
            assert abs(res.t_min - distance_so3(c).t) <= 1e-12

    def test_target_off_so3_by_rounding(self):
        # Entries off SO(3) by 1e-10 pass SO3Element's check; the oracle
        # matches the exact rotation of the target's lift, which moves the
        # distance by about as much.
        rng = np.random.default_rng(56)
        for _ in range(5):
            c = SO3Element(klein_omega(random_su2(rng)).m + 1e-10 * rng.standard_normal((3, 3)))
            assert abs(shoot_min_time_so3(c).t_min - distance_so3(c).t) <= 1e-8

    def test_sym_target_has_two_minimizers(self):
        # a half turn about a generic axis is reached by two geodesics
        c = _half_turn(np.random.default_rng(54))
        assert classify_cut_locus_so3(c).tag is CutTag.SYM
        res = shoot_min_time_so3(c)
        assert abs(res.t_min - distance_so3(c).t) <= 1e-12
        assert len(res.minimizers) == 2


class TestSO3LiftsInOnePass:
    # An SO(3) shot scans both lifts g and -g in one pass: they share |B|,
    # so only the target's A and phi0 differ between their rows.
    GRID = GridSpec(n_phi=128, n_beta=128, beta_max=8.0, n_t=256)

    @staticmethod
    def _targets():
        rng = np.random.default_rng(105)
        return [klein_omega(random_su2(rng)) for _ in range(30)] + [_half_turn(rng) for _ in range(10)]

    def test_each_shot_scans_once(self, monkeypatch):
        calls = []
        scan = oracle.scan_su2

        def spy(a, b):
            calls.append((a, b))
            return scan(a, b)

        monkeypatch.setattr(oracle, "scan_su2", spy)
        rng = np.random.default_rng(106)
        g = random_su2(rng)
        shoot_min_time(g)
        assert calls == [(math.hypot(g.a_re, g.a_im), math.hypot(g.b_re, g.b_im))]
        c = klein_omega(random_su2(rng))
        shoot_min_time_so3(c)
        g = lift_so3(c)[0]
        assert calls[1:] == [(math.hypot(g.a_re, g.a_im), math.hypot(g.b_re, g.b_im))]

    def test_equals_the_better_lift(self):
        # Each lift's brackets and roots are those of a shot at that lift
        # alone, so t_min is the lesser lift time to the bit, and the
        # minimizers are the lifts' within t_min + REFINED_TOL.
        for c in self._targets():
            res = shoot_min_time_so3(c, self.GRID)
            shots = []
            for g in lift_so3(c):
                try:
                    shots.append(shoot_min_time(g, self.GRID))
                except ShootNoMatchError:
                    pass
            t_min = min(r.t_min for r in shots)
            assert res.t_min.hex() == t_min.hex()
            expected = [m for r in shots for m in r.minimizers if m[2] <= t_min + REFINED_TOL]
            assert sorted(res.minimizers) == sorted(expected)

    def test_shared_rows_are_the_standalone_rows(self):
        # The SO(3) shot reads -g's phases from g's scan: the scan depends
        # on |A| and |B| only, so it is a scan of -g alone, to the bit
        # (float.hex tells signed zeros apart).
        for c in self._targets():
            scans = [oracle.scan_su2(math.hypot(h.a_re, h.a_im), math.hypot(h.b_re, h.b_im))
                     for h in lift_so3(c)]
            bits = [[p.hex() for row in scan for p in row] for scan in scans]
            assert len(bits[0]) == 2 * (oracle.LOOP_FLOOR + 1)
            assert bits[0] == bits[1]


class TestDegenerateLoops:
    # Loops that shrink to a point (A = 0), lie at the cut time (B = 0)
    # or are short (b* below 0.1).
    @pytest.mark.parametrize("phase", [0.0, 1.0, -2.5])
    def test_a_zero(self, phase):
        g = SU2Element(0.0, 0.0, math.cos(phase), math.sin(phase))
        assert abs(shoot_min_time(g).t_min - distance_su2(g).t) <= 1e-12
        c = klein_omega(g)
        res = shoot_min_time_so3(c)
        assert abs(res.t_min - distance_so3(c).t) <= 1e-12
        assert len(res.minimizers) == 2

    def test_loc(self):
        for psi in np.linspace(-3.0, 3.0, 12):  # 0, the identity, left out
            g = SU2Element(math.cos(psi), math.sin(psi), 0.0, 0.0)
            assert abs(shoot_min_time(g).t_min - distance_su2(g).t) <= 1e-12
            c = klein_omega(g)
            assert abs(shoot_min_time_so3(c).t_min - distance_so3(c).t) <= 1e-12

    def test_identity_has_no_root(self):
        # Only t = 0 reaches the identity; -1, the SO(3) identity's other
        # lift, is reached at the cut time 2*pi but is not the least time.
        with pytest.raises(ShootNoMatchError):
            shoot_min_time(SU2Element(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ShootNoMatchError):
            shoot_min_time_so3(SO3Element(np.eye(3)))

    def test_near_sym(self):
        # Rotations whose lift has Re A = 1e-3, next to the half turns.
        rng = np.random.default_rng(59)
        for _ in range(10):
            v = rng.standard_normal(3)
            v *= math.sqrt(1.0 - 1e-6) / np.linalg.norm(v)
            c = klein_omega(SU2Element(1e-3, *v))
            assert abs(shoot_min_time_so3(c).t_min - distance_so3(c).t) <= 1e-12

    PROBE = GridSpec(64, 64, 8.0, 64, refine_steps=1)  # perfbench's probe grid

    @pytest.mark.parametrize("grid", [SMALL, PROBE], ids=["small", "probe"])
    def test_short_loop_half_turn(self, grid):
        # Half turn #4 of default_rng(104): a = 0.0756 and b* = 0.0758,
        # once below the spacing of every grid's rows near beta = 0; the
        # loop's fixed samples bracket its roots at any b*.
        rng = np.random.default_rng(104)
        for _ in range(5):
            c = _half_turn(rng)
        res = shoot_min_time_so3(c, grid)
        assert abs(res.t_min - distance_so3(c).t) <= 1e-12
        assert len(res.minimizers) == 2


# theta = arg(A) of B = 0 targets, down to where the least time is 1.6e-8.
AXIS1_THETAS = [sign * 10.0**-k for k in range(17) for sign in (1.0, -1.0)]


class TestAxis1Targets:
    # B = 0: the endpoint does not depend on phi0, so every phi0 is
    # minimizing and the oracle lists one representative.  Small |theta|
    # puts the root at |beta| of about sqrt(pi/(2|theta|)), far beyond any
    # row of a finite grid: an axis-1 rotation by 2e-6 once came out 2*pi.
    @pytest.mark.parametrize("theta", AXIS1_THETAS, ids=[f"{t:g}" for t in AXIS1_THETAS])
    def test_su2(self, theta):
        g = SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0)
        res = shoot_min_time(g)
        d = distance_su2(g).t
        assert abs(res.t_min - d) <= 1e-13 * d
        assert len(res.minimizers) == 1
        for phi0, beta, t in res.minimizers:
            end = geodesic_point(GeodesicParams(phi0, beta), t)
            assert max(
                abs(end.a_re - g.a_re),
                abs(end.a_im - g.a_im),
                abs(end.b_re - g.b_re),
                abs(end.b_im - g.b_im),
            ) <= REFINED_TOL

    @pytest.mark.parametrize("theta", AXIS1_THETAS, ids=[f"{t:g}" for t in AXIS1_THETAS])
    def test_so3(self, theta):
        c = klein_omega(SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0))
        # Within MEMBERSHIP_TOL of the identity the tag is NotCut.
        assert classify_cut_locus_so3(c).tag is (CutTag.LOC if abs(theta) > MEMBERSHIP_TOL else CutTag.NOT_CUT)
        res = shoot_min_time_so3(c)
        d = distance_so3(c).t
        assert abs(res.t_min - d) <= 1e-13 * d
        assert len(res.minimizers) == 1
        for phi0, beta, t in res.minimizers:
            end = geodesic_point_so3(GeodesicParams(phi0, beta), t)
            assert np.max(np.abs(np.subtract(end.m, c.m))) <= REFINED_TOL

    @pytest.mark.parametrize("theta", [1e-30, -1e-30, 1e-40])
    def test_least_time_within_the_gate_of_zero_raises(self, theta):
        # The least time, sqrt(8*pi*|theta|) = 5e-15 at 1e-30, is within
        # REFINED_TOL of the identity's t = 0, which the 4-D gate cannot
        # tell apart.
        g = SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0)
        with pytest.raises(ShootNoMatchError):
            shoot_min_time(g)
        with pytest.raises(ShootNoMatchError):
            shoot_min_time_so3(klein_omega(g))


# The cut row sampled by brute force: |beta| at 4,097 points evenly spaced
# in atan|beta|, from 0 to tan(pi/2), a finite 1.6e16, and
# psi = pi*(1 - |beta|/s) = pi/(s*(s + |beta|)) on beta = +|beta|.
_CUT_X = [math.tan(0.5 * math.pi * k / 4096) for k in range(4097)]
_CUT_PSI = [math.pi / (s * (s + x)) for x in _CUT_X for s in [math.sqrt(1.0 + x * x)]]
CUT_THETAS = [sign * x for x in [10.0**-k for k in range(13)] + [3.0] for sign in (1.0, -1.0)]


@pytest.mark.parametrize("theta", CUT_THETAS, ids=[f"{t:g}" for t in CUT_THETAS])
def test_each_lift_on_b_zero_crosses_one_level(theta):
    # On B = 0 (Loc) a minimizer arrives only at its cut time u = pi, where
    # A = -exp(-i*pi*beta/s): psi = +-pi/(s*(s + |beta|)) on beta = +-|beta|.
    # Sampled on both signs, the levels arg(A) + 2*pi*n of each lift, on
    # SU(2) and on both SO(3) lifts, are crossed exactly once, between
    # samples that hold `_cut_root`'s beta.  The oracle's scan does not
    # sample this row; this keeps a sampled check of B = 0 uniqueness.
    g = SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0)
    for h in (g, *lift_so3(klein_omega(g))):
        arg = math.atan2(h.a_im, h.a_re)
        crossings = []
        for sign in (1.0, -1.0):
            for n in (-1, 0, 1):
                f = [sign * p - arg - TWO_PI * n for p in _CUT_PSI]
                crossings += [(sign, _CUT_X[j], _CUT_X[j + 1]) for j in range(4096) if (f[j] > 0.0) != (f[j + 1] > 0.0)]
        assert len(crossings) == 1, (arg, crossings)
        (sign, lo, hi), (beta, _) = crossings[0], oracle._cut_root(arg)
        assert math.copysign(1.0, beta) == sign and lo <= abs(beta) <= hi, (arg, beta, lo, hi)


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

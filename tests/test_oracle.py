import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from srdist import BACKEND, oracle
from srdist.algebra import SO3Element, SU2Element, klein_omega, lift_so3, random_so3, random_su2
from srdist.cutlocus import MEMBERSHIP_TOL, CutTag, classify_cut_locus_so3
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
    ShootNoMatchError,
    scan_su2,
    shoot_min_time,
    shoot_min_time_so3,
)
from srdist.so3_distance import distance_so3
from srdist.su2_distance import distance_su2
from srdist.verify import _TINY_B_EXPONENTS, _crossing_count, _half_turn, _pair, _tiny_b_pairs

EPS = np.finfo(float).eps


class TestGridSpec:
    def test_positional_and_keyword_forms(self):
        # The three grids perfbench passes, by position: a shot reads none
        # of them, so each gives the shot without a grid, to the bit.
        rng = np.random.default_rng(57)
        g = random_su2(rng)
        c = random_so3(rng)
        grids = [GridSpec(), GridSpec(n_phi=128, n_beta=128, beta_max=8.0, n_t=256),
                 GridSpec(64, 64, 8.0, 64, refine_steps=1)]
        for shoot, target in ((shoot_min_time, g), (shoot_min_time_so3, c)):
            bare = shoot(target)
            for grid in grids:
                res = shoot(target, grid)
                assert res.t_min.hex() == bare.t_min.hex()
                assert [[v.hex() for v in p] for p in res.minimizers] == [[v.hex() for v in p] for p in bare.minimizers]


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


def test_solve_stops_on_a_bracket_it_cannot_split(monkeypatch):
    # F jumps from -1 to 1 at tau' = 0.1 with no root: |F| never falls, each
    # Newton step leaves the bracket, and the splits close in on 0.1 until
    # the bracket's ends are adjacent floats, well before _MAX_STEPS.
    trials = []

    def jump(a, b, branch, theta, n, x):
        trials.append(x)
        return (-1.0 if x < 0.1 else 1.0), 1.0, (x, x)

    monkeypatch.setattr(oracle, "_loop_phase", jump)
    oracle._solve(0.6, 0.8, 0, 0.0, 0, (0.0, math.pi / 16, -1.0, 1.0))
    assert len(trials) < oracle._MAX_STEPS
    lo, hi = sorted(trials[-2:])
    assert lo < 0.1 <= hi == math.nextafter(lo, 1.0)


def test_fixed_samples_are_built_once_and_read_only(monkeypatch):
    # The loop's tau' samples are a tuple built at import; every shot
    # reads it.  B = 0 shots scan nothing: their roots are in closed form.
    scans = []
    scan = oracle.scan_su2

    def spy(a, b):
        scans.append((a, b))
        return scan(a, b)

    monkeypatch.setattr(oracle, "scan_su2", spy)
    rng = np.random.default_rng(57)
    for g in (random_su2(rng), random_su2(rng)):
        shoot_min_time(g)
    assert len(scans) == 2
    assert type(oracle._TAU) is tuple
    with pytest.raises(TypeError):
        oracle._TAU[0] = 0.0
    for g in (SU2Element(0.6, 0.8, 0.0, 0.0), SU2Element(0.8, -0.6, 0.0, 0.0)):
        shoot_min_time(g)
        shoot_min_time_so3(klein_omega(g))
    assert len(scans) == 2


# The scan (`scan_su2`) and the closed-form cut root (`_cut_root`), checked
# against the endpoint formula point by point.
PHIS = np.linspace(0.0, math.tau, 48, endpoint=False)


def _vec(g):
    return np.array([g.a_re, g.a_im, g.b_re, g.b_im])


def _max_dev(end, target):
    return float(np.max(np.abs(np.asarray(end) - target)))


def _phi_gap(a, b):
    d = (a - b) % math.tau
    return min(d, math.tau - d)


def _loop_point(target, branch, tau):
    """(phi0, beta, t) of the loop point tau' on one half of the target's loop."""
    a, b = _ab(target)
    sign = 1.0 - 2.0 * branch
    beta = sign * a / b * math.sin(tau)
    s = math.sqrt(1.0 + beta * beta)
    t = 2.0 * math.atan2(b * s, sign * a * math.cos(tau)) / s
    return math.atan2(target[3], target[2]) - beta * t / 2.0, beta, t


def _ab(target):
    """(|A|, |B|) of a target, the scan's only inputs."""
    return math.hypot(target[0], target[1]), math.hypot(target[2], target[3])


def _targets(rng, n):
    """Haar, steep and near-identity SU(2) targets, n of each, as (Re A, Im A, Re B, Im B)."""
    out = [_vec(random_su2(rng)) for _ in range(n)]
    for _ in range(n):
        beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.78, 2.5)
        t = rng.uniform(0.05, 0.95) * cut_time_bound(beta)
        out.append(_vec(geodesic_point(GeodesicParams(rng.uniform(0.0, math.tau), beta), t)))
    out += [_vec(g) for g in _near_identity(rng, n)]
    return out


def test_backend_name_reported():
    assert BACKEND == "python"


def test_python_scan_matches_direct_evaluation():
    # At each loop point the endpoint formula's A is a*exp(i*psi): its
    # modulus is the target's and its phase is the scan's psi mod 2*pi,
    # and the point reaches the target's B.
    rng = np.random.default_rng(61)
    for _ in range(4):
        target = _vec(random_su2(rng))
        a = _ab(target)[0]
        tau, psi = oracle._TAU, scan_su2(*_ab(target))
        assert len(psi) == 2 and len(tau) == oracle.LOOP_FLOOR + 1
        assert all(len(row) == len(tau) for row in psi)
        assert np.all(np.diff(tau) > 0.0)
        assert tau[0] == -math.pi / 2 and tau[-1] == math.pi / 2
        for b in range(2):
            for j, x in enumerate(tau):
                phi0, beta, t = _loop_point(target, b, x)
                # Branch 0 stops at u = pi/2, branch 1 starts there.
                cut = cut_time_bound(beta)
                assert (t <= cut / 2.0 + 1e-15) if b == 0 else (cut / 2.0 - 1e-15 <= t <= cut)
                end = endpoint_coords(phi0, beta, t)
                assert _max_dev(end[2:], target[2:]) <= 1e-15
                assert abs(math.hypot(end[0], end[1]) - a) <= 1e-15
                assert _phi_gap(math.atan2(end[1], end[0]), psi[b][j]) <= 1e-12


def test_scan_within_sqrt2_of_phi0_grid_scan():
    # At a loop point's (beta, t) the endpoint's A does not depend on
    # phi0, and phase alignment minimizes |B - B_target|; a max-norm
    # deviation is at least |z|/sqrt(2) of any complex difference z, so
    # solving phi0 in closed form loses at most a factor sqrt(2) against
    # a phi0 grid.  The scan's deviation is read from A = a*exp(i*psi).
    rng = np.random.default_rng(64)
    for _ in range(3):
        target = _vec(random_su2(rng))
        a = _ab(target)[0]
        tau, psi = oracle._TAU, scan_su2(*_ab(target))
        for (b, j), p in np.ndenumerate(psi):
            dev = max(abs(a * math.cos(p) - target[0]), abs(a * math.sin(p) - target[1]))
            _, beta, t = _loop_point(target, b, tau[j])
            grid = min(_max_dev(endpoint_coords(phi, beta, t), target) for phi in PHIS)
            assert dev <= math.sqrt(2.0) * grid + 1e-12


def test_scan_matches_b_target(monkeypatch):
    # Every loop point lands on B_target up to the rounding of t and of
    # the phases (each below 2*pi, so at most a few ulps of 2*pi, 8.9e-16
    # each), and every bracket the oracle solves starts from two
    # neighbouring loop points of the scan.
    rng = np.random.default_rng(62)
    brackets, solve = [], oracle._solve

    def spy(a, b, branch, theta, n, bracket):
        brackets.append(bracket[:2])
        return solve(a, b, branch, theta, n, bracket)

    monkeypatch.setattr(oracle, "_solve", spy)
    for target in _targets(rng, 20):
        b_abs, theta = math.hypot(target[2], target[3]), math.atan2(target[3], target[2])
        tau = oracle._TAU
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


def test_every_sample_matches_its_endpoint():
    # On loops through geodesics of momentum beta, at t up to the cut
    # time, each sample's a*exp(i*psi) matches A of its own endpoint at
    # the rounding floor, 2e-15: psi is written without cancellation, and
    # the loop takes cos(u) = a*cos(tau), so no asin amplifies the
    # rounding near u = pi/2.
    rng = np.random.default_rng(63)
    for beta in (-300.0, -20.0, -2.0, -0.1, 0.0, 0.5, 6.0, 80.0):
        cut = cut_time_bound(beta)
        for k in range(1, 65, 3):
            target = np.array(endpoint_coords(rng.uniform(0.0, math.tau), beta, k / 64.0 * cut))
            a = _ab(target)[0]
            tau, psi = oracle._TAU, scan_su2(*_ab(target))
            for (b, j), p in np.ndenumerate(psi):
                end = endpoint_coords(*_loop_point(target, b, tau[j]))
                assert abs(a * np.exp(1j * p) - complex(end[0], end[1])) <= 2e-15, (beta, k, b, j)


def test_special_targets():
    # B = 0: a minimizer reaches B = 0 only at its cut time u = pi, where
    # A = -exp(-i*pi*beta/s) for every phi0, and the oracle inverts that
    # phase in closed form.  Each theta in [-pi, pi] has one root, at the
    # cut time, with the sign of theta; |beta| falls strictly as |theta|
    # grows, to 0 at the half turn about axis 1 (t = 2*pi), and the
    # identity (theta = 0) gives t = 0 with beta taken as 0.  The root's
    # endpoint is exp(i*theta) at the rounding floor.  A = 0: the loop
    # shrinks to one point, and every sample has A = 0.
    assert oracle._cut_root(0.0) == (0.0, 0.0)
    abs_thetas = sorted([10.0**-k for k in range(1, 17)] + [k * math.pi / 64.0 for k in range(1, 65)])
    for sign in (1.0, -1.0):
        previous = math.inf
        for theta in (sign * x for x in abs_thetas):
            beta, t = oracle._cut_root(theta)
            assert type(beta) is float and type(t) is float
            assert math.copysign(1.0, beta) == sign and abs(beta) < previous, theta
            previous = abs(beta)
            s = math.hypot(1.0, beta)
            assert abs(t - cut_time_bound(beta)) <= 4.0 * EPS * t, theta
            assert abs(-np.exp(-1j * math.pi * beta / s) - np.exp(1j * theta)) <= 1e-15, theta
            end = endpoint_coords(0.0, beta, t)
            assert _max_dev(end, (math.cos(theta), math.sin(theta), 0.0, 0.0)) <= 2e-15, theta
        assert beta == 0.0 and abs(t - math.tau) <= 4.0 * EPS * math.tau
    target = (0.0, 0.0, math.cos(1.0), math.sin(1.0))
    tau, psi = oracle._TAU, scan_su2(0.0, 1.0)
    assert len(tau) == oracle.LOOP_FLOOR + 1
    for b in range(2):
        for x in tau:
            end = endpoint_coords(*_loop_point(target, b, x))
            assert math.hypot(end[0], end[1]) <= 1e-16


def test_scan_phase_is_the_solve_phase():
    # The scan and the 1-D solve (`oracle._loop_phase`) write psi in the
    # same cancellation-free form, once each: at every sample they agree
    # within the solve's own rounding floor at level 0, 8 eps, so the two
    # copies cannot drift apart.
    rng = np.random.default_rng(65)
    targets = _targets(rng, 20)
    for d in (1e-1, 1e-6, 1e-12):
        targets += [(d, 0.0, math.sqrt((1.0 - d) * (1.0 + d)), 0.0), (1.0 - d, 0.0, math.sqrt(d * (2.0 - d)), 0.0)]
    targets.append((0.0, 0.0, 1.0, 0.0))
    for target in targets:
        a, b = _ab(target)
        tau, psi = oracle._TAU, scan_su2(a, b)
        for branch, row in enumerate(psi):
            for x, p in zip(tau, row):
                f, _, _ = oracle._loop_phase(a, b, branch, 0.0, 0, x)
                assert abs(p - f) <= 8.0 * EPS, (target, branch, x)


def _scan_per_sample(a, b):
    """The rows of `scan_su2` written per sample, sigma and the 2*pi shift taken from each tau'."""
    row0, row1 = [], []
    for x in oracle._TAU:
        c, abs_sin = (0.0 if abs(x) == 0.5 * math.pi else math.cos(x)), abs(math.sin(x))
        sigma, shift = math.copysign(1.0, x), (math.tau if x >= 0.0 else 0.0)
        abs_beta = a / b * abs_sin
        s = math.hypot(1.0, abs_beta)
        s_plus = s + abs_beta
        w = s * s_plus
        u = math.atan2(b * s, a * c)
        d = math.atan2(b * c / s_plus, a * c * c + b * s * abs_sin)
        row0.append(sigma * (u / w - d))
        row1.append(sigma * ((u - math.pi) / w - d) + shift)
    return row0, row1


def test_scan_rows_mirror_to_the_bit():
    # u, s, w and d depend on |tau'| alone, so psi(-tau') = -psi(tau') on
    # branch 0 and 2*pi - psi(tau') on branch 1.  The samples are mirrored
    # to the bit with tau' = 0 as +0.0 (sigma = +1), the scan evaluates
    # each |tau'| once and writes both slots, and its rows are the
    # per-sample formula's to the bit.
    tau, last, mid = oracle._TAU, oracle.LOOP_FLOOR, oracle.LOOP_FLOOR // 2
    assert tau[mid].hex() == (0.0).hex()
    assert all(tau[last - j].hex() == (-tau[j]).hex() for j in range(mid))
    rng = np.random.default_rng(66)
    for target in _targets(rng, 20) + [(0.0, 0.0, math.cos(1.0), math.sin(1.0))]:
        row0, row1 = scan_su2(*_ab(target))
        assert [[v.hex() for v in row] for row in (row0, row1)] == [
            [v.hex() for v in row] for row in _scan_per_sample(*_ab(target))
        ], target
        for j in range(mid + 1, last + 1):
            assert row0[last - j].hex() == (-row0[j]).hex(), (target, j)
            assert row1[j].hex() == (-row1[last - j] + math.tau).hex(), (target, j)


def test_least_time_is_the_solve_time():
    # The least-time bound of a bracket is `_loop_phase`'s t at the end it
    # picks, to the bit: the end nearer tau' = 0 on branch 0, farther on 1.
    rng = np.random.default_rng(67)
    tau = oracle._TAU
    for target in _targets(rng, 20):
        a, b = _ab(target)
        for branch in (0, 1):
            for lo, hi in zip(tau, tau[1:]):
                x = (max if branch else min)((lo, hi), key=abs)
                t = oracle._loop_phase(a, b, branch, 0.0, 0, x)[2][1]
                assert oracle._least_time(a, b, branch, (lo, hi, 0.0, 0.0)).hex() == t.hex(), (target, branch, x)


class TestShootSU2:
    def test_minimizers_reproduce_target(self):
        rng = np.random.default_rng(52)
        g = random_su2(rng)
        res = shoot_min_time(g)
        assert res.minimizers
        for phi0, beta, t in res.minimizers:
            end = geodesic_point(GeodesicParams(phi0 % math.tau, beta), t)
            assert _max_dev(_vec(end), _vec(g)) <= REFINED_TOL
            assert t <= res.t_min + REFINED_TOL
        assert res.t_min == res.minimizers[0][2]

    def test_a_zero_target(self):
        res = shoot_min_time(SU2Element(0.0, 0.0, 1.0, 0.0))
        assert abs(res.t_min - math.pi) <= 1e-12
        phi0, beta, t = res.minimizers[0]
        assert abs(beta) < 1e-3
        assert phi0 % math.tau == pytest.approx(0.0, abs=1e-3)

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
            (100.0, 0.05),
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


class TestNearIdentity:
    # Within 1e-2 of the identity the oracle must hit the target or raise,
    # never return a wrong time.
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
    # on these targets.
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
        # A point within REFINED_TOL of this target can lie at a t off by
        # 3.9e-13: passing the gate alone does not pin t to 1e-14, so the
        # solve must run to the rounding floor.
        beta, d = -3.9325966852772183, 0.0005276544964793624
        g = geodesic_point(GeodesicParams(2.465198959605808, beta), d)
        res = shoot_min_time(g)
        assert abs(res.t_min - d) <= 1e-14


def _near_identity(rng, n):
    """n endpoints near the identity: |beta| < 30, t = 10^U(-3, -2)."""
    return [
        geodesic_point(
            GeodesicParams(rng.uniform(0.0, math.tau), rng.uniform(-30.0, 30.0)),
            10.0 ** rng.uniform(-3.0, -2.0),
        )
        for _ in range(n)
    ]


# Fixed targets for the work guard, default_rng(81): 10 Haar, 10 steep
# (|beta| in 6..316, t up to 0.95 of the cut time), 10 near the identity
# (|beta| < 30, t in 1e-3..1e-2), 10 rotations about axis 1 (B = 0,
# |arg A| = 10^U(-5, 0.49)) as SU(2) targets, and 10 Haar rotations.
def _work_targets():
    rng = np.random.default_rng(81)
    haar = [random_su2(rng) for _ in range(10)]
    steep = []
    for _ in range(10):
        beta = rng.choice([-1.0, 1.0]) * rng.uniform(6.0, 316.0)
        p = GeodesicParams(rng.uniform(0.0, math.tau), beta)
        steep.append(geodesic_point(p, rng.uniform(0.05, 0.95) * cut_time_bound(beta)))
    near = _near_identity(rng, 10)
    axis1 = []
    for _ in range(10):
        theta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 0.49)
        axis1.append(SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0))
    so3 = [random_so3(rng) for _ in range(10)]
    tiny_b = [_tiny_b_pairs(k)[i % 4] for i, k in enumerate(_TINY_B_EXPONENTS) if 10.0 ** -k >= sys.float_info.min]
    return {"haar": haar, "steep": steep, "near_identity": near, "axis1": axis1, "so3": so3, "tiny_b": tiny_b}


# (brackets solved, phase evaluations) per set of ten shots: the Haar,
# steep and near-identity sets measure (10, 44), (10, 50) and (10, 45).
# Axis-1 shots (B = 0) solve nothing: each lift's root is in closed form
# (`_cut_root`).  A phase evaluation is one `_loop_phase` call, F and its
# slope at one trial point; the endpoint is evaluated once per root, for
# its gate and point: once per solved bracket, and once per lift on
# B = 0.  An SO(3) shot solves its brackets in the order of their
# least-time bound and stops once no bracket can reach the best exact root:
# the ten rotations measure (10, 45), where solving both lifts' brackets
# took 20 solves; the bound is t in closed form, not a phase evaluation.
# The nine shots at |B| = 1e-36 ... 1e-307 (`_tiny_b_pairs`) measure
# (9, 221): each root lies far below the samples in tau' (plain halving
# took up to 1,004 phases per shot).  Counts repeat exactly, unlike timings.
WORK_BOUNDS = {"haar": (12, 47), "steep": (12, 57), "near_identity": (12, 45), "axis1": (0, 0), "so3": (12, 50),
               "tiny_b": (10, 240)}


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
        shoot = shoot_min_time_so3 if name == "so3" else shoot_min_time
        for g in targets:
            shoot(g)
        max_brackets, max_phases = WORK_BOUNDS[name]
        assert counts["brackets"] <= max_brackets, name
        assert counts["phases"] <= max_phases, name
        assert counts["cut_roots"] == (len(targets) if name == "axis1" else 0), name
        assert counts["endpoints"] == counts["brackets"] + counts["cut_roots"], name


def _every_bracket_solved(c):
    """(t_min, minimizers) of an SO(3) shot that solves and gates every bracket of both lifts."""
    targets = [(g.a_re, g.a_im, g.b_re, g.b_im) for g in lift_so3(c)]
    thetas = [math.atan2(q[1], q[0]) for q in targets]
    a, b = math.hypot(*targets[0][:2]), math.hypot(*targets[0][2:])
    roots = [oracle._hit(targets[lift], *oracle._solve(a, b, row, thetas[lift], n, bracket))
             for lift, row, n, bracket in oracle._brackets(oracle.scan_su2(a, b), thetas)]
    exact = sorted(((phi0 % math.tau, beta, t) for (phi0, beta, t), dev in roots if dev <= REFINED_TOL),
                   key=lambda p: (p[2], p[0], p[1]))
    t_min = exact[0][2]
    return t_min, [p for p in exact if p[2] <= t_min + REFINED_TOL]


def test_pruned_so3_shots_equal_every_bracket_solved():
    # An SO(3) shot drops the brackets whose least-time bound exceeds the
    # best exact root by 2*REFINED_TOL.  Near half turns the two lifts'
    # times differ by about 4|Re A|, so at |Re A| up to 3e-13 both lifts
    # are minimizers and neither may be dropped; at 1e-12 and 1e-9 the far
    # lift's bound lies just past the window, or far past it.  At |A| up to
    # 1e-15 the loop shrinks towards the one point t = pi: every bound is
    # within rounding of both lifts' roots, so only the margin keeps both.
    rng = np.random.default_rng(83)
    rotations = [random_so3(rng) for _ in range(100)]
    for re_a in (0.0, 1e-13, 3e-13, 1e-12, 1e-9):
        for _ in range(10):
            v = rng.standard_normal(3)
            v *= math.sqrt((1.0 - re_a) * (1.0 + re_a)) / np.linalg.norm(v)
            rotations.append(klein_omega(SU2Element(re_a, *v.tolist())))
    for abs_a in (0.0, 1e-16, 1e-15):
        for _ in range(10):
            rotations.append(klein_omega(_pair(abs_a, 1.0, *rng.uniform(-math.pi, math.pi, 2))))
    for c in rotations:
        res = shoot_min_time_so3(c)
        t_min, minimizers = _every_bracket_solved(c)
        assert res.t_min.hex() == t_min.hex()
        assert [[v.hex() for v in p] for p in res.minimizers] == [[v.hex() for v in p] for p in minimizers]


def test_only_roots_on_the_target_drop_brackets(monkeypatch):
    # A bracket is dropped only against a root that passes the gate.  With
    # the nearer lift's roots marked as misses the shot is the farther
    # lift's alone; with every root a miss every bracket is solved, and the
    # error names the least deviation over all of them.
    hit = oracle._hit
    misses = []

    def spy(target, beta, t):
        point, dev = hit(target, beta, t)
        return point, (1.0 + t if target in misses else dev)

    monkeypatch.setattr(oracle, "_hit", spy)
    rng = np.random.default_rng(84)
    for c in [random_so3(rng) for _ in range(20)]:
        near, far = sorted(lift_so3(c), key=lambda g: shoot_min_time(g).t_min)
        misses[:] = [(near.a_re, near.a_im, near.b_re, near.b_im)]
        res, alone = shoot_min_time_so3(c), shoot_min_time(far)
        assert res.t_min.hex() == alone.t_min.hex() and res.minimizers == alone.minimizers
        misses.append((far.a_re, far.a_im, far.b_re, far.b_im))
        a, b = math.hypot(near.a_re, near.a_im), math.hypot(near.b_re, near.b_im)
        thetas = [math.atan2(g.a_im, g.a_re) for g in lift_so3(c)]
        least = min(1.0 + oracle._solve(a, b, row, thetas[lift], n, bracket)[1]
                    for lift, row, n, bracket in oracle._brackets(oracle.scan_su2(a, b), thetas))
        with pytest.raises(ShootNoMatchError, match=re.escape(f"best deviation {least:.3e}")):
            shoot_min_time_so3(c)


@pytest.mark.parametrize("kind", ["haar", "steep", "near_identity"])
def test_least_time_bounds_every_root(kind):
    # t rises with |tau'| on branch 0 and falls on branch 1, so one end of
    # a bracket bounds the t of the root solved in it; both lifts' levels
    # give each target brackets on both branches.
    for g in _uniqueness_targets(kind):
        thetas = [math.atan2(g.a_im, g.a_re), math.atan2(-g.a_im, -g.a_re)]
        a, b = math.hypot(g.a_re, g.a_im), math.hypot(g.b_re, g.b_im)
        for lift, row, n, bracket in oracle._brackets(oracle.scan_su2(a, b), thetas):
            _, t = oracle._solve(a, b, row, thetas[lift], n, bracket)
            assert oracle._least_time(a, b, row, bracket) <= t, (g, row)


def test_brackets_find_every_crossing():
    # Every change of level < psi between neighbouring samples is a
    # bracket, on rows that need not rise: random rows, rows that touch a
    # level at their min, and the scans of Haar targets.
    rng = np.random.default_rng(85)
    cases = []
    for _ in range(200):
        thetas = rng.uniform(-math.pi, math.pi, 2).tolist()
        cases.append(([rng.uniform(-math.pi, 2.5 * math.pi, 17).tolist() for _ in range(2)], thetas))
    cases.append(([[0.0] * 17, [0.0, 1.0] * 8 + [0.0]], [0.0, math.pi]))  # a level at a row's min
    for g in (random_su2(rng) for _ in range(50)):
        psi = oracle.scan_su2(math.hypot(g.a_re, g.a_im), math.hypot(g.b_re, g.b_im))
        cases.append((psi, [math.atan2(g.a_im, g.a_re), math.atan2(-g.a_im, -g.a_re)]))
    for psi, thetas in cases:
        expected = []
        for row, phases in enumerate(psi):
            for lift, theta in enumerate(thetas):
                for n in (-1, 0, 1):
                    level = theta + math.tau * n
                    for j in range(16):
                        if (level < phases[j]) != (level < phases[j + 1]):
                            bracket = (oracle._TAU[j], oracle._TAU[j + 1], phases[j] - level, phases[j + 1] - level)
                            expected.append((lift, row, n, bracket))
        assert sorted(oracle._brackets(psi, thetas)) == sorted(expected)


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


@pytest.mark.parametrize("k", _TINY_B_EXPONENTS)
def test_tiny_b_shoots_on_both_groups(k):
    # |B| = 10^-k: b* = |A|/|B| puts the root near |tau'| = |beta|*10^-k,
    # about 3.3*k halvings below the samples, and past |B| ~ 1e-103 the
    # slope's s^3 overflows to a zero slope.  Each target and its rotation
    # must still reach the case analysis, with one minimizer.
    for g in _tiny_b_pairs(k):
        for shoot, distance, target in ((shoot_min_time, distance_su2, g),
                                         (shoot_min_time_so3, distance_so3, klein_omega(g))):
            res, t = shoot(target), distance(target).t
            assert abs(res.t_min - t) <= 1e-12 * t, (k, g)
            assert len(res.minimizers) == 1, (k, g)


def _steep_endpoints(n):
    """n endpoints of steep geodesics, default_rng(81): |beta| = 10^U(0.8, 3.2), late in the loop."""
    rng = np.random.default_rng(81)
    out = []
    for _ in range(n):
        beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.8, 3.2)
        p = GeodesicParams(rng.uniform(0.0, math.tau), beta)
        out.append(geodesic_point(p, rng.uniform(0.5, 0.97) * cut_time_bound(beta)))
    return out


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
            geodesic_point(GeodesicParams(rng.uniform(0.0, math.tau), rng.uniform(-50.0, 50.0)), 10.0 ** rng.uniform(-8.0, -2.0))
            for _ in range(200)
        ]
    ds = [10.0**-k for k in range(1, 13) for _ in range(16)]
    if kind == "abs_a":
        return [_pair(d, math.sqrt((1.0 - d) * (1.0 + d)), *rng.uniform(-math.pi, math.pi, 2)) for d in ds]
    return [_pair(1.0 - d, math.sqrt(d * (2.0 - d)), *rng.uniform(-math.pi, math.pi, 2)) for d in ds]


@pytest.mark.parametrize("kind", ["haar", "steep", "near_identity", "abs_a", "one_minus_abs_a"])
def test_each_lift_off_b_zero_crosses_one_level(kind):
    # The SU(2) cut locus is B = 0 (the paper's uniqueness theorem): psi
    # rises strictly along the loop and gains 2*pi, so each lift g and -g
    # crosses exactly one level arg(A) + 2*pi*n, and lists one minimizer.
    # The oracle does not assume this; it solves every bracket it finds.
    for g in _uniqueness_targets(kind):
        for h in (g, g.negate()):
            assert _crossing_count(h) == 1, h
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
        # 2e-2 listed the other lift's root too on 3 of these.  Each lift's
        # roots are bracketed in the one scan: the far lift's crossings
        # must not hide the near lift's roots.
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


class TestShootSO3:
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
            res = shoot_min_time_so3(c)
            shots = []
            for g in lift_so3(c):
                try:
                    shots.append(shoot_min_time(g))
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

    def test_short_loop_half_turn(self):
        # Half turn #4 of default_rng(104): a = 0.0756 and b* = 0.0758, a
        # short loop; its fixed samples bracket its roots at any b*.
        rng = np.random.default_rng(104)
        for _ in range(5):
            c = _half_turn(rng)
        res = shoot_min_time_so3(c)
        assert abs(res.t_min - distance_so3(c).t) <= 1e-12
        assert len(res.minimizers) == 2


# theta = arg(A) of B = 0 targets, down to where the least time is 1.6e-8.
AXIS1_THETAS = [sign * 10.0**-k for k in range(17) for sign in (1.0, -1.0)]


class TestAxis1Targets:
    # B = 0: the endpoint does not depend on phi0, so every phi0 is
    # minimizing and the oracle lists one representative.  Small |theta|
    # puts the root at |beta| of about sqrt(pi/(2|theta|)), unbounded as
    # theta -> 0: an axis-1 rotation by 2e-6 once came out 2*pi.
    @pytest.mark.parametrize("theta", AXIS1_THETAS, ids=[f"{t:g}" for t in AXIS1_THETAS])
    def test_su2(self, theta):
        g = SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0)
        res = shoot_min_time(g)
        d = distance_su2(g).t
        assert abs(res.t_min - d) <= 1e-13 * d
        assert len(res.minimizers) == 1
        for phi0, beta, t in res.minimizers:
            end = geodesic_point(GeodesicParams(phi0, beta), t)
            assert _max_dev(_vec(end), _vec(g)) <= REFINED_TOL

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
                f = [sign * p - arg - math.tau * n for p in _CUT_PSI]
                crossings += [(sign, _CUT_X[j], _CUT_X[j + 1]) for j in range(4096) if (f[j] > 0.0) != (f[j + 1] > 0.0)]
        assert len(crossings) == 1, (arg, crossings)
        (sign, lo, hi), (beta, _) = crossings[0], oracle._cut_root(arg)
        assert math.copysign(1.0, beta) == sign and lo <= abs(beta) <= hi, (arg, beta, lo, hi)


import math

import numpy as np

from srdist import BACKEND, oracle
from srdist.algebra import SU2Element, random_su2
from srdist.geodesics import (
    GeodesicParams,
    cut_time_bound,
    endpoint_coords,
    geodesic_point,
)
from srdist.oracle import scan_su2

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

PHIS = np.linspace(0.0, TWO_PI, 48, endpoint=False)


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


def _ab(target):
    """(|A|, |B|) of a target, the scan's only inputs."""
    return math.hypot(target[0], target[1]), math.hypot(target[2], target[3])


def _phase_gap(psi, target):
    """|psi - arg(A_target)| modulo 2*pi."""
    return _phi_gap(psi, math.atan2(target[1], target[0]))


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
            target = np.array(endpoint_coords(rng.uniform(0.0, TWO_PI), beta, k / 64.0 * cut))
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
        assert beta == 0.0 and abs(t - TWO_PI) <= 4.0 * EPS * TWO_PI
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

"""Brute-force geodesic-shooting oracle.

The geodesics from the identity that match the target's B before the
cut time u = pi form one closed loop, on which A_end = |A|*exp(i*psi):
only the loop phase psi is left to match (see `_kernels`).  One scan
of psi at 2 x 17 fixed points of the loop, which reads |A| and |B|
only, serves both lifts g and -g of an SO(3) target
(`algebra.lift_so3`).  Each crossing of a lift's level arg(A) + 2*pi*n
between neighbouring samples brackets a root, solved in one dimension
on F = psi - level, written without cancellation, from a secant start
by Newton steps kept inside the bracket, else bisection.  The scan, the
bracket pass and the solves run in plain Python floats, which at this
size cost less than numpy calls.  On B = 0 (the Loc stratum) a
minimizer reaches the target only at its cut time, where the phase has
an elementary inverse: each lift has one root in closed form
(`_cut_root`), and nothing is scanned.  The endpoint (`geodesics.endpoint_coords`) is
evaluated once per root: the root counts only if it is within
REFINED_TOL of the target in all four coordinates.  The oracle shares
only the geodesic formulas with the case analysis, and assumes no
monotonicity of psi: it solves every bracket.
"""
from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

from . import _kernels
from .algebra import SO3Element, SU2Element, lift_so3
from .geodesics import endpoint_coords

TWO_PI = 2.0 * math.pi

# Endpoint deviation (max-norm) a root must reach to count as hitting the
# target, and the arrival-time tie within which such roots are all
# minimizers.  A root solved to convergence lands at the rounding floor,
# well below this bound.
REFINED_TOL = 1e-12

# Safety net on the evaluations per bracket; bisection alone needs about 55
# steps in tau'.
_MAX_STEPS = 120
_EIGHT_EPS = 8.0 * math.ulp(1.0)  # a phase's rounding floor per unit size of F's terms


class ShootNoMatchError(RuntimeError):
    """No root reached the target, or the target is within REFINED_TOL of the identity (t = 0)."""


@dataclass(frozen=True)
class GridSpec:
    """Former scan-grid sizes, validated and unread: kept for callers that pass grids (perfbench)."""

    n_phi: int = 256
    n_beta: int = 256
    beta_max: float = 8.0
    n_t: int = 512
    refine_steps: int = 200

    def __post_init__(self):
        # operator.index raises TypeError on a non-integer (numpy ints pass)
        sizes = [operator.index(n) for n in (self.n_phi, self.n_beta, self.n_t)]
        if min(sizes) < 64:
            raise ValueError("grid sizes must be at least 64 in each dimension")
        if not (math.isfinite(self.beta_max) and self.beta_max >= 8.0):
            raise ValueError("beta_max must be finite and at least 8")
        if operator.index(self.refine_steps) < 1:
            raise ValueError("refine_steps must be positive")


@dataclass(frozen=True)
class ShootResult:
    """Least arrival time and every geodesic that reaches the target then.

    The minimizers are the roots whose endpoint is within REFINED_TOL of
    the target and whose t is within REFINED_TOL of t_min, as
    (phi0 mod 2*pi, beta, t) sorted by t, phi0, beta; t_min is the first
    one's t.  Each root is one geodesic, so a half turn lists two and an
    SO(3) target off the cut locus one.  When B = 0 (Loc) every phi0
    reaches the target and one representative per root is listed.
    """

    t_min: float
    minimizers: list[tuple[float, float, float]]  # (phi0, beta, t)


def _hit(target: tuple, beta: float, t: float) -> tuple[tuple, float]:
    """((phi0, beta, t), max-norm deviation) with phi0 putting B on the target's phase."""
    a_re, a_im, b_re, b_im = target
    phi0 = math.atan2(b_im, b_re) - 0.5 * beta * t
    e0, e1, e2, e3 = endpoint_coords(phi0, beta, t)
    return (phi0, beta, t), max(abs(e0 - a_re), abs(e1 - a_im), abs(e2 - b_re), abs(e3 - b_im))


def _loop_phase(a: float, b: float, branch: int, theta: float, n: int, tau: float) -> tuple:
    """(F, dF/dtau', (beta, t)) for F = psi - theta - 2*pi*n at tau' on one half of the loop.

    With sigma = sign(beta), w = s*(s + |beta|) = 1/(1 - |beta|/s) and
    d = u - |tau'| as one atan2, psi = sigma*(u/w - d) on branch 0: no two
    terms of size u cancel (see `_kernels` for the loop).  Branch 1 is
    sigma*((u - pi)/w - d) + pi*(1 + sigma) in branch 0's beta and u; its
    2*pi goes into n, so a small level is not rounded at ulp(2*pi).
    dpsi/dtau = (s - u*b* cos(tau))/s^3 only proposes steps.
    """
    st, ct = math.sin(tau), math.cos(tau)
    beta = a / b * st
    s = math.hypot(1.0, beta)
    s_plus = s + abs(beta)
    u = math.atan2(b * s, a * ct)
    d = math.atan2(b * ct / s_plus, a * ct * ct + b * s * abs(st))
    w, sigma, s3 = s * s_plus, math.copysign(1.0, beta), s * s * s
    if branch:
        f = sigma * ((u - math.pi) / w - d) - theta - TWO_PI * (n - (sigma > 0.0))
        return f, (s + (math.pi - u) * a / b * ct) / s3, (-beta, 2.0 * (math.pi - u) / s)
    return sigma * (u / w - d) - theta - TWO_PI * n, (s - u * a / b * ct) / s3, (beta, 2.0 * u / s)


def _cut_root(theta: float) -> tuple[float, float]:
    """(beta, t) of the geodesics that reach A = exp(i*theta), B = 0, for theta in [-pi, pi].

    A minimizer reaches B = 0 only at t = 0 or its cut time u = pi, t = 2*pi/s,
    where A = -exp(-i*pi*beta/s) for every phi0 (see `_kernels`).  Its
    phase sign(beta)*pi*(1 - |beta|/s) takes each value in (-pi, pi]
    once, so |beta|/s = 1 - |theta|/pi and 1/s^2 = |theta|*(2*pi - |theta|)/pi^2:
    t = 2*sqrt(|theta|*(2*pi - |theta|)) and beta = sign(theta)*(pi - |theta|)/(t/2),
    with no cancellation beyond the rounding of theta and pi.  theta = 0
    is the identity, which only t = 0 reaches; beta is 0 there.
    """
    x = abs(theta)
    t = 2.0 * math.sqrt(x * (TWO_PI - x))
    return (math.copysign(math.pi - x, theta) / (0.5 * t) if t else 0.0), t


def _brackets(x: tuple, psi: tuple, thetas: list[float]):
    """(lift, row, n, bracket) for each crossing of a level between samples j and j + 1 of a row.

    bracket is (x_j, x_j+1, F_j, F_j+1), the bracket of a `_solve`.  A
    lift's levels are theta + 2*pi*n, theta = arg(A) of the lift, and
    F = psi - level.  psi lies in (-pi, 5*pi/2), so n = -1, 0, 1 hold
    every crossing.  The levels of both lifts below each sample are
    counted by bisection, and a crossing is a change of that count.  The
    items hold Python ints and floats, so the solves run in plain float
    arithmetic.
    """
    levels = sorted((theta + TWO_PI * n, lift, n) for lift, theta in enumerate(thetas) for n in (-1, 0, 1))
    values = [level for level, _, _ in levels]
    for row, phases in enumerate(psi):
        below = list(map(bisect_left, repeat(values), phases))
        for j, (k_lo, k_hi) in enumerate(zip(below, below[1:])):
            if k_lo != k_hi:
                for level, lift, n in levels[min(k_lo, k_hi) : max(k_lo, k_hi)]:
                    yield lift, row, n, (x[j], x[j + 1], phases[j] - level, phases[j + 1] - level)


def _solve(a: float, b: float, branch: int, theta: float, n: int, bracket: tuple) -> tuple:
    """The point (beta, t) of the least |F| found in a bracket of `_loop_phase`'s F on one half of the loop.

    bracket is (lo, hi, F(lo), F(hi)) in tau', the ends on opposite sides
    of 0 (`_brackets`).  The first trial is the secant start, each later
    one a Newton step from the best point so far, or the midpoint when
    that step leaves the bracket or the last trial did not lower |F|.  The
    solve stops on a Newton step within the rounding of tau', when |F|
    stops falling at its rounding floor, or when the bracket cannot be
    split further.  u/w and d in F are up to pi/2, so that floor is
    absolute, 8 eps per unit of 1 + |level|.
    """
    lo, hi, f_lo, f_hi = bracket
    floor = _EIGHT_EPS * (1.0 + abs(theta + TWO_PI * n))
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    f_best = math.inf
    for _ in range(_MAX_STEPS):
        f, df, point = _loop_phase(a, b, branch, theta, n, x)
        lo, hi = (x, hi) if (f > 0.0) == (f_lo > 0.0) else (lo, x)
        if abs(f) < f_best:
            f_best, best = abs(f), point
            step = x - f / df if df else x
            if abs(step - x) <= math.ulp(x):
                break
            x = step if lo < step < hi else 0.5 * (lo + hi)
        elif f_best <= floor:
            break
        else:
            x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
    return best


def _shoot(lifts: list[SU2Element]) -> ShootResult:
    # An SO(3) target is reached through either of its two lifts.
    targets = [(g.a_re, g.a_im, g.b_re, g.b_im) for g in lifts]
    thetas = [math.atan2(a_im, a_re) for a_re, a_im, _, _ in targets]
    a, b = math.hypot(*targets[0][:2]), math.hypot(*targets[0][2:])
    if b < sys.float_info.min:
        # B = 0, or a subnormal |B| whose b* = a/b would overflow: one root
        # per lift at the cut time; the 4-D gate sees the target's own B.
        roots = [_hit(target, *_cut_root(theta)) for target, theta in zip(targets, thetas)]
    else:
        x, psi = _kernels.scan_su2(a, b)
        roots = [_hit(targets[lift], *_solve(a, b, row, thetas[lift], n, bracket))
                 for lift, row, n, bracket in _brackets(x, psi, thetas)]

    exact = sorted(
        ((phi0 % TWO_PI, beta, t) for (phi0, beta, t), dev in roots if dev <= REFINED_TOL),
        key=lambda p: (p[2], p[0], p[1]),
    )
    if not exact:
        best = f"best deviation {min(dev for _, dev in roots):.3e}" if roots else "no roots"
        raise ShootNoMatchError(f"no root within {REFINED_TOL} of the target ({best})")
    t_min = exact[0][2]
    if t_min <= REFINED_TOL:
        # The identity's own root is the cut root of theta = 0, at t = 0.
        raise ShootNoMatchError(f"t_min = {t_min:.3e} is within {REFINED_TOL} of t = 0: the gate "
                                "cannot tell the target from the identity")
    return ShootResult(t_min, [p for p in exact if p[2] <= t_min + REFINED_TOL])


def shoot_min_time(target: SU2Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal arrival time at an SU(2) target, by a scan of its loop and 1-D solves; `grid` is unread."""
    return _shoot([target])


def shoot_min_time_so3(target: SO3Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal arrival time at an SO(3) target, the least over its two SU(2) lifts.

    A geodesic's endpoint covers the target exactly when it equals one of
    the target's lifts g and -g.  One scan covers both lifts, and each
    lift's roots are solved in SU(2) coordinates, as in `shoot_min_time`,
    so t_min is the lesser of the two lifts' shots, to the bit.
    `lift_so3` returns exact unit pairs, so a target whose entries are off
    SO(3) by rounding is matched as its nearby exact rotation.
    """
    return _shoot(list(lift_so3(target)))

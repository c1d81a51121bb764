"""Brute-force geodesic-shooting oracle.

The geodesics from the identity that match the target's B before the
cut time u = pi form one closed loop, on which only the phase F of
A_end * conj(A_target) is left to match (see `_kernels`).  One numpy
scan samples F along the loop; each sign change between neighbouring
samples brackets a root, solved in one dimension by Newton steps kept
inside the bracket, else bisection, every evaluation going through
`geodesics.endpoint_coords`.  A root counts only if its endpoint is
within REFINED_TOL of the target in all four coordinates.  An SO(3)
target is shot as its lifts g and -g (`algebra.lift_so3`), which share
the loop: F crossing 0 is a root for g, and crossing pi one for -g.
The oracle shares only the geodesic formulas with the case analysis,
and assumes no monotonicity: it solves every bracket on the whole loop.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _kernels
from .algebra import SO3Element, SU2Element, lift_so3
from .geodesics import endpoint_coords

TWO_PI = 2.0 * math.pi

# Endpoint deviation (max-norm) a root must reach to count as hitting the
# target, and the arrival-time tie within which such roots are all
# minimizers.  A root solved to convergence lands at the rounding floor,
# well below this bound.
REFINED_TOL = 1e-12

# Safety net on the evaluations per bracket; bisection alone needs about 55.
_MAX_STEPS = 120


class ShootNoMatchError(RuntimeError):
    """No root reached the target: the grid is too coarse for it, or it is the identity (t = 0)."""


@dataclass(frozen=True)
class GridSpec:
    """Scan grid of n_beta rows of momentum beta.

    The beta rows are beta_j = c*tan(chi_j) at the midpoints
    chi_j = -pi/2 + (j + 1/2)*pi/n_beta of n_beta equal steps over
    (-pi/2, pi/2), with c = 2*beta_max/pi: near beta = 0 they are
    2*beta_max/n_beta apart, as on a linear grid over [-beta_max,
    beta_max], and the outer rows reach |beta| of about
    4*beta_max*n_beta/pi**2 (830 at the defaults).  The rows inside the
    target's loop are among the scan's sample points.  n_phi, n_t and
    refine_steps are validated but no longer read: callers, the benchmark
    among them, pass them.
    """

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


@lru_cache(maxsize=16)
def _betas(grid: GridSpec) -> np.ndarray:
    """The grid's rows beta = c*tan(chi) at the chi midpoints (see GridSpec), read-only.

    Every shot on one grid shares the array.
    """
    chi = (np.arange(grid.n_beta) + 0.5) * (math.pi / grid.n_beta) - 0.5 * math.pi
    betas = (2.0 * grid.beta_max / math.pi) * np.tan(chi)
    betas.flags.writeable = False
    return betas


def _hit(target: tuple, beta: float, t: float) -> tuple[float, tuple, float]:
    """(F, (phi0, beta, t), max-norm deviation) with phi0 putting B on the target's phase."""
    a_re, a_im, b_re, b_im = target
    phi0 = math.atan2(b_im, b_re) - 0.5 * beta * t
    e0, e1, e2, e3 = endpoint_coords(phi0, beta, t)
    f = math.atan2(e1 * a_re - e0 * a_im, e0 * a_re + e1 * a_im)
    dev = max(abs(e0 - a_re), abs(e1 - a_im), abs(e2 - b_re), abs(e3 - b_im))
    return f, (phi0, beta, t), dev


def _on_loop(target: tuple, a: float, b: float, branch: int, tau: float) -> tuple:
    """(F, dF/dtau, point, deviation) at tau' = tau on one half of the loop (see `_kernels`).

    dF/dtau = 1 - dh/dtau, from A = a*exp(i*(tau - h)), only proposes
    steps: the solve keeps every step inside its bracket.
    """
    st, ct = math.sin(tau), math.cos(tau)
    if branch:
        st, ct = -st, -ct
    b_star = a / b
    beta = b_star * st
    s = math.sqrt(1.0 + beta * beta)
    su = b * s
    u = math.atan2(su, a * ct)
    f, point, dev = _hit(target, beta, 2.0 * u / s)
    return f, 1.0 - (u * b_star * ct / (s * s * s) + beta / s * a * st / su), point, dev


def _at_cut(target: tuple, beta: float) -> tuple:
    """(F, dF/dbeta, point, deviation) at the cut time u = pi, where B = 0 for any phi0."""
    s = math.sqrt(1.0 + beta * beta)
    f, point, dev = _hit(target, beta, TWO_PI / s)
    return f, -math.pi / (s * s * s), point, dev


def _brackets(re: np.ndarray, im: np.ndarray) -> list[tuple]:
    """(lift, row, j, F_j, F_j+1) for each sign change of F between samples j and j + 1.

    F = arg(re + i*im) changes sign where im does, through 0 (a root for
    lift 0, g) or through pi (one for lift 1, -g, whose F is that of
    -(re + i*im)): the one at which the chord between the two samples
    meets the real axis.
    """
    out = []
    for row, j in zip(*np.nonzero(np.diff(im > 0.0, axis=1))):
        (x0, x1), (y0, y1) = re[row, j : j + 2].tolist(), im[row, j : j + 2].tolist()
        side = (x0 * y1 - x1 * y0) * (y1 - y0)
        if side:
            s = math.copysign(1.0, side)
            f0, f1 = math.atan2(s * y0, s * x0), math.atan2(s * y1, s * x1)
            out.append((int(side < 0.0), row, j, f0, f1))
    return out


def _solve(evaluate, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple:
    """(point, deviation) of the best evaluation of F in the bracket [lo, hi].

    f_lo and f_hi, F at the ends, lie on opposite sides of 0.  The first
    trial is the secant through the ends, each later one a Newton step
    from the best point so far, or the midpoint when that step leaves the
    bracket or the last trial did not lower |F|.  The solve stops when |F|
    stops falling at a point within REFINED_TOL of the target, or when the
    bracket cannot be split further.
    """
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    best = (math.inf, None, math.inf)
    for _ in range(_MAX_STEPS):
        f, df, point, dev = evaluate(x)
        if (f > 0.0) == (f_lo > 0.0):
            lo = x
        else:
            hi = x
        if abs(f) < abs(best[0]):
            best, step = (f, point, dev), x - f / df if df else x
        elif best[2] <= REFINED_TOL:
            break
        else:
            step = x
        x = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < x < hi:
            break
    return best[1:]


def _shoot(lifts: list[SU2Element], grid: GridSpec) -> ShootResult:
    # An SO(3) target is reached through either of its two lifts.
    targets = [(g.a_re, g.a_im, g.b_re, g.b_im) for g in lifts]
    if (1.0, 0.0, 0.0, 0.0) in targets:
        raise ShootNoMatchError("the identity is reached at t = 0, which no root gives")
    a, b = math.hypot(*targets[0][:2]), math.hypot(*targets[0][2:])
    if a == 0.0:
        # The loop shrinks to one point: beta = 0 at u = pi/2.
        roots = [_hit(target, 0.0, math.pi)[1:] for target in targets]
    else:
        x, re, im = _kernels.scan_su2(targets[0], _betas(grid))
        roots = []
        for lift, row, j, f_lo, f_hi in _brackets(re, im):
            if lift < len(targets):
                target = targets[lift]
                evaluate = (partial(_at_cut, target) if b == 0.0
                            else partial(_on_loop, target, a, b, row))
                roots.append(_solve(evaluate, *x[j : j + 2].tolist(), f_lo, f_hi))

    exact = sorted(
        ((phi0 % TWO_PI, beta, t) for (phi0, beta, t), dev in roots if dev <= REFINED_TOL),
        key=lambda p: (p[2], p[0], p[1]),
    )
    if not exact:
        best = f"best deviation {min(dev for _, dev in roots):.3e}" if roots else "no roots"
        raise ShootNoMatchError(f"no root within {REFINED_TOL} of the target ({best})")
    t_min = exact[0][2]
    return ShootResult(t_min, [p for p in exact if p[2] <= t_min + REFINED_TOL])


def shoot_min_time(target: SU2Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal geodesic arrival time at an SU(2) target, by a scan of its loop and 1-D solves."""
    return _shoot([target], grid)


def shoot_min_time_so3(target: SO3Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal arrival time at an SO(3) target, the least over its two SU(2) lifts.

    A geodesic's endpoint covers the target exactly when it equals one of
    the target's lifts g and -g.  One scan covers both lifts, and each
    lift's roots are solved in SU(2) coordinates, as in `shoot_min_time`,
    so t_min is the lesser of the two lifts' shots, to the bit.
    `lift_so3` returns exact unit pairs, so a target whose entries are off
    SO(3) by rounding is matched as its nearby exact rotation.
    """
    return _shoot(list(lift_so3(target)), grid)

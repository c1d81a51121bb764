"""Brute-force geodesic-shooting oracle.

`shoot_min_time` scans the geodesics from the identity over a grid of
momenta beta alone: on each row the target's B fixes phi0 and leaves
two arrival times, one per branch (see `_kernels.scan_su2`).  It seeds
the rows whose deviation from the target is under a threshold and a
local minimum along beta on their branch, refines each seed in
(phi0, beta, t) to convergence by Gauss-Newton steps, damped in the
Levenberg-Marquardt way when a full step fails, and reports the least
arrival time together with all parameter-distinct minimizers.  Each
refinement step evaluates `geodesics.endpoint_jacobian` once, at the
trial point, which gives the residual and, if the step is taken, the
Jacobian of the next step.  An SO(3) target is shot as its two SU(2)
lifts g and -g (`algebra.lift_so3`): one scan covers both, each lift
gets its own seeds and threshold, and every seed is refined in SU(2)
coordinates toward its lift.  The beta rows are evenly spaced in
chi = atan(beta/c) over the whole open interval (-pi/2, pi/2), so one
grid reaches every momentum and no target needs its own window.  The
oracle shares only the geodesic formulas with the production distance
code, never its case analysis, so it serves as an independent check.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .algebra import SO3Element, SU2Element, lift_so3
from .geodesics import endpoint_jacobian

TWO_PI = 2.0 * math.pi

# Floor of the scan-deviation threshold that selects grid cells for
# refinement; the threshold adapts to the best cell because the raw grid
# resolution cannot reach REFINED_TOL directly.
MATCH_TOL = 1e-3
# Endpoint deviation (max-norm) a refined candidate must reach to count
# as hitting the target; t_min and the minimizers are taken over these.
# A candidate refined to convergence at a minimizer lands at the rounding
# floor, well below this bound; one converging elsewhere stays far above.
REFINED_TOL = 1e-12
# Arrival-time tolerance: minimizers within t_min + TIME_TOL are listed.
TIME_TOL = 2e-2
# Parameter-space radius for deduplicating minimizers.
DEDUP_RADIUS = 0.1

# Levenberg-Marquardt damping: start, and factors after a taken and a
# rejected step.
_MU_START = 1e-3
_MU_DOWN = 1.0 / 3.0
_MU_UP = 8.0
# Damping at which a step is negligible against any x: give up.
_MU_MAX = 1e30
# Squared residual at the rounding floor of the endpoint: done.
_F_DONE = (2.0 * sys.float_info.epsilon) ** 2
# Iterations over which the squared residual must at least halve, or the
# refinement has stalled.
_STALL_STEPS = 20


class ShootNoMatchError(RuntimeError):
    """No grid candidate reached the target: the grid is too coarse for it."""


@dataclass(frozen=True)
class GridSpec:
    """Scan grid of n_beta rows of momentum beta.

    The beta rows are beta_j = c*tan(chi_j) at the midpoints
    chi_j = -pi/2 + (j + 1/2)*pi/n_beta of n_beta equal steps over
    (-pi/2, pi/2), with c = 2*beta_max/pi: near beta = 0 they are
    2*beta_max/n_beta apart, as on a linear grid over [-beta_max,
    beta_max], and the outer rows reach |beta| of about
    4*beta_max*n_beta/pi**2 (830 at the defaults).  refine_steps bounds the
    refinement's iterations per candidate, as a safety net only.  The
    scan solves phi0 and t from the target's B on each row, so it has
    neither a phi0 nor a t axis: n_phi and n_t are validated but no
    longer read.  They keep their places because callers, the benchmark
    among them, pass the four sizes positionally.
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
    t_min: float
    minimizers: list[tuple[float, float, float]]  # (phi0, beta, t)
    grid_spec: GridSpec


def _damped_step(
    a: tuple, g: tuple, damp: tuple
) -> Optional[tuple[float, float, float]]:
    """Solve (A + diag(damp)) s = -g by Cramer's rule; None unless positive definite.

    A is symmetric, given as its upper triangle (a00, a01, a02, a11, a12, a22).
    """
    a00, a01, a02, a11, a12, a22 = a
    m00, m11, m22 = a00 + damp[0], a11 + damp[1], a22 + damp[2]
    k00 = m11 * m22 - a12 * a12
    k01 = a02 * a12 - a01 * m22
    k02 = a01 * a12 - a02 * m11
    det = m00 * k00 + a01 * k01 + a02 * k02
    if not det > 0.0:
        return None
    k11 = m00 * m22 - a02 * a02
    k12 = a01 * a02 - m00 * a12
    k22 = m00 * m11 - a01 * a01
    g0, g1, g2 = g
    return (
        -(k00 * g0 + k01 * g1 + k02 * g2) / det,
        -(k01 * g0 + k11 * g1 + k12 * g2) / det,
        -(k02 * g0 + k12 * g1 + k22 * g2) / det,
    )


def _evaluate(
    target: tuple[float, float, float, float], x: tuple[float, float, float]
) -> tuple[tuple, float, tuple]:
    """(residual, squared residual, Jacobian columns) at x, from one endpoint evaluation."""
    end, columns = endpoint_jacobian(*x)
    r0, r1, r2, r3 = end[0] - target[0], end[1] - target[1], end[2] - target[2], end[3] - target[3]
    return (r0, r1, r2, r3), r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3, columns


def _refine(
    target: tuple[float, float, float, float],
    phi0: float,
    beta: float,
    t: float,
    iterations: int,
) -> tuple[float, float, float, float]:
    """Gauss-Newton on the squared endpoint residual, damped when a full step fails.

    The residual r is the endpoint minus the target's (Re A, Im A, Re B,
    Im B), and J is its Jacobian; both come from one
    `endpoint_jacobian` call per trial point, and a taken trial's J
    serves the next iteration.  Each iteration first tries the
    Gauss-Newton step J^T J s = -J^T r; if that step is singular or
    rejected, it solves the Levenberg-Marquardt normal equations
    (J^T J + mu*D) s = -J^T r (Moré 1978) in plain floats, D being the
    running maximum of diag(J^T J), which makes the damping scale-free
    across the three very differently scaled parameters.  J^T J and J^T r
    are written out, the phi0 column of J being (0, 0, -Im B, Re B).  A
    step is taken only if it lowers the squared error f and keeps t > 0;
    otherwise mu grows and the step is solved again.  The full step
    matters near the identity, where the Schur complement in beta is
    about 1e-8 of mu*D: no damped step moves a seed that starts close.
    The loop ends when f reaches the rounding floor _F_DONE, when a step
    no longer moves x, when mu passes _MU_MAX, or when f has not halved
    over the last _STALL_STEPS iterations, which is a refinement creeping
    along a curved valley; `iterations` is only a safety net.  Returns
    (phi0, beta, t, max-norm deviation).
    """
    x = (phi0, beta, t)
    r, f, columns = _evaluate(target, x)
    mu = _MU_START
    d0 = d1 = d2 = 0.0
    history = []
    for k in range(iterations):
        if f <= _F_DONE or (k >= _STALL_STEPS and f > 0.5 * history[k - _STALL_STEPS]):
            break
        history.append(f)
        (_, _, p2, p3), (b0, b1, b2, b3), (t0, t1, t2, t3) = columns
        r0, r1, r2, r3 = r
        a = (
            p2 * p2 + p3 * p3,
            p2 * b2 + p3 * b3,
            p2 * t2 + p3 * t3,
            b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3,
            b0 * t0 + b1 * t1 + b2 * t2 + b3 * t3,
            t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3,
        )
        g = (
            p2 * r2 + p3 * r3,
            b0 * r0 + b1 * r1 + b2 * r2 + b3 * r3,
            t0 * r0 + t1 * r1 + t2 * r2 + t3 * r3,
        )
        d0, d1, d2 = max(d0, a[0]), max(d1, a[3]), max(d2, a[5])
        # The Gauss-Newton step first, then damped ones until one is taken.
        damp = 0.0
        while True:
            s = _damped_step(a, g, (damp * d0, damp * d1, damp * d2))
            if s is not None:
                trial = (x[0] + s[0], x[1] + s[1], x[2] + s[2])
                if trial == x:
                    return (*x, max(map(abs, r)))
                if trial[2] > 0.0:
                    r_new, f_new, columns_new = _evaluate(target, trial)
                    if f_new < f:
                        break
            if damp:
                if mu > _MU_MAX:
                    return (*x, max(map(abs, r)))
                mu *= _MU_UP
            damp = mu
        x, r, f, columns = trial, r_new, f_new, columns_new
        mu *= _MU_DOWN
    return (*x, max(map(abs, r)))


def _dedup(
    points: list[tuple[float, float, float]]
) -> list[tuple[float, float, float]]:
    """Greedy dedup at DEDUP_RADIUS in (phi0, beta), phi0 taken mod 2*pi."""
    kept: list[tuple[float, float, float]] = []
    for p in points:
        phi = p[0] % TWO_PI
        dup = False
        for q in kept:
            dphi = abs(phi - q[0])
            dphi = min(dphi, TWO_PI - dphi)
            if math.hypot(dphi, p[1] - q[1]) <= DEDUP_RADIUS:
                dup = True
                break
        if not dup:
            kept.append((phi, p[1], p[2]))
    return kept


def _threshold(min_dev: float) -> float:
    """Scan deviation at or below which a row is refined, given the best row's.

    It adapts to the best row because the raw grid resolution cannot
    reach REFINED_TOL directly.  It grows with min_dev, so no threshold
    is below _threshold(0).
    """
    return max(MATCH_TOL, 4.0 * min_dev, min_dev + 2e-3)


def _seeds(
    targets: list[tuple[float, float, float, float]], betas: np.ndarray
) -> list[tuple[tuple, float, float, float]]:
    """(target, phi0, beta, t) of the scan rows to refine, over the lifts of one target.

    One scan covers every lift.  A row seeds toward a lift on a branch
    when its dev there is at most the threshold of that lift's least dev
    and at most both chi-neighbours' on that branch (+inf past the ends),
    so each valley of a branch seeds once.  Each lift gets its own
    threshold, so a grid passing closer to one lift does not hide the
    other's rows.
    """
    dev, t, phis = _kernels.scan_su2(targets, betas)
    pick = dev <= np.array([_threshold(m) for m in dev.min(axis=(1, 2)).tolist()])[:, None, None]
    pick[..., 1:] &= dev[..., 1:] <= dev[..., :-1]
    pick[..., :-1] &= dev[..., :-1] <= dev[..., 1:]
    return [
        (targets[k], float(phis[k, b, j]), float(betas[j]), float(t[b, j]))
        for k, b, j in zip(*np.nonzero(pick))
    ]


def _betas(grid: GridSpec) -> np.ndarray:
    """The grid's rows beta = c*tan(chi) at the chi midpoints (see GridSpec)."""
    chi = (np.arange(grid.n_beta) + 0.5) * (math.pi / grid.n_beta) - 0.5 * math.pi
    return (2.0 * grid.beta_max / math.pi) * np.tan(chi)


def _shoot(lifts: list[SU2Element], grid: GridSpec) -> ShootResult:
    # An SO(3) target is reached through either of its two lifts.
    targets = [(g.a_re, g.a_im, g.b_re, g.b_im) for g in lifts]
    refined = [_refine(*seed, grid.refine_steps) for seed in _seeds(targets, _betas(grid))]

    exact = sorted(
        (r for r in refined if r[3] <= REFINED_TOL),
        key=lambda r: (r[2], r[0] % TWO_PI, r[1]),
    )
    if not exact:
        best = f"best deviation {min(r[3] for r in refined):.3e}" if refined else "no candidates"
        raise ShootNoMatchError(
            f"no refined candidate within {REFINED_TOL} of the target ({best})"
        )
    # The first minimizer's time, so t_min never undercuts the minimizers.
    t_min = exact[0][2]
    minimizers = _dedup([(r[0], r[1], r[2]) for r in exact if r[2] <= t_min + TIME_TOL])
    return ShootResult(t_min=t_min, minimizers=minimizers, grid_spec=grid)


def shoot_min_time(target: SU2Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal geodesic arrival time at an SU(2) target, by grid scan and refinement.

    When B = 0 (A on the unit circle, the Loc stratum) the endpoint does
    not depend on phi0, so every phi0 is minimizing; only the
    representatives the scan seeds are listed, not the whole circle.
    """
    return _shoot([target], grid)


def shoot_min_time_so3(target: SO3Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal arrival time at an SO(3) target, the least over its two SU(2) lifts.

    A geodesic's endpoint covers the target exactly when it equals one of
    the target's lifts g and -g.  One scan covers both lifts, and each
    lift's seeds are refined in SU(2) coordinates, as in `shoot_min_time`,
    so t_min is the lesser of the two lifts' shots, to the bit.
    `lift_so3` returns exact unit pairs, so a target whose entries are off
    SO(3) by rounding is matched as its nearby exact rotation.
    As in `shoot_min_time`, phi0 is free when the lifts have B = 0 (axis-1
    rotations) and only representatives are listed.
    """
    return _shoot(list(lift_so3(target)), grid)

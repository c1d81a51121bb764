"""Brute-force geodesic-shooting oracle.

`shoot_min_time` scans a (beta, t) grid of geodesics from the identity,
with phi0 at each cell set in closed form to match the phase of the
target's B (see `_kernels.scan_su2`), seeds the beta rows whose deviation
from the target is under a threshold and a local minimum along beta,
refines each seed in (phi0, beta, t) to convergence by Levenberg-Marquardt
on the endpoint residual with the closed-form Jacobian
`geodesics.endpoint_jacobian`, and reports the least arrival time
together with all parameter-distinct minimizers.  An SO(3) target
is shot as its two SU(2) lifts (`algebra.lift_so3`), each scanned and
refined in SU(2) coordinates.
The beta rows are evenly spaced in chi = atan(beta/c) over the whole
open interval (-pi/2, pi/2), so one grid reaches every momentum and no
target needs its own window.  Rows whose lower bound |B_target| - 1/s
on the deviation (`_kernels.row_bounds`) already exceeds the candidate
threshold are not scanned; the seeds, and so the result, equal those of
the full scan.  The target-free part of each row, the endpoint's A and
|B| at every t, is computed once per grid and kept in a `_kernels.RowTable`
(at most 3 * n_beta * n_t * 8 bytes, 3 MiB at the default grid) that
later shots and the second SO(3) lift reuse; the seeds are bit for bit
those of a fresh table.  It shares only the geodesic formulas with the
production distance code, never its case analysis, so it serves as an
independent check.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .algebra import SO3Element, SU2Element, lift_so3
from .geodesics import endpoint_coords, endpoint_jacobian

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


class ShootNoMatchError(RuntimeError):
    """No grid candidate reached the target: the grid is too coarse for it."""


@dataclass(frozen=True)
class GridSpec:
    """Scan grid of n_beta x n_t cells.

    The beta rows are beta_j = c*tan(chi_j) at the midpoints
    chi_j = -pi/2 + (j + 1/2)*pi/n_beta of n_beta equal steps over
    (-pi/2, pi/2), with c = 2*beta_max/pi: near beta = 0 they are
    2*beta_max/n_beta apart, as on a linear grid over [-beta_max,
    beta_max], and the outer rows reach |beta| of about
    4*beta_max*n_beta/pi**2 (830 at the defaults).  refine_steps bounds the
    Levenberg-Marquardt iterations per candidate, as a safety net only.
    The scan has no phi0 axis (phi0 is solved in closed form per cell),
    and refinement needs no phi0 step, so n_phi is validated but no
    longer read.
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


def _dot(u: tuple, v: tuple) -> float:
    return sum(map(operator.mul, u, v))


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


def _refine(
    target: tuple[float, float, float, float],
    phi0: float,
    beta: float,
    t: float,
    iterations: int,
) -> tuple[float, float, float, float]:
    """Levenberg-Marquardt on the squared endpoint residual (Moré 1978).

    The residual is `endpoint_coords` minus the target's (Re A, Im A,
    Re B, Im B), and J is `endpoint_jacobian`.  Each iteration evaluates
    J once and solves the damped normal equations
    (J^T J + mu*D) s = -J^T r in plain floats, D being the running
    maximum of diag(J^T J), which makes the damping scale-free across the
    three very differently scaled parameters.  A step is taken only if it
    lowers the squared error and keeps t > 0; otherwise mu grows and the
    step is solved again.  The loop ends when f = 0, when a rejected step
    no longer moves x or when mu passes _MU_MAX; `iterations` is only a
    safety net.  Returns (phi0, beta, t, max-norm deviation).
    """

    def residual(x: tuple[float, float, float]) -> tuple:
        return tuple(map(operator.sub, endpoint_coords(*x), target))

    x = (phi0, beta, t)
    r = residual(x)
    f = _dot(r, r)
    mu = _MU_START
    d0 = d1 = d2 = 0.0
    for _ in range(iterations):
        if f == 0.0:
            break
        c0, c1, c2 = endpoint_jacobian(*x)
        a = (_dot(c0, c0), _dot(c0, c1), _dot(c0, c2), _dot(c1, c1), _dot(c1, c2), _dot(c2, c2))
        g = (_dot(c0, r), _dot(c1, r), _dot(c2, r))
        d0, d1, d2 = max(d0, a[0]), max(d1, a[3]), max(d2, a[5])
        while True:
            s = _damped_step(a, g, (mu * d0, mu * d1, mu * d2))
            if s is not None:
                trial = (x[0] + s[0], x[1] + s[1], x[2] + s[2])
                if trial == x:
                    return (*x, max(map(abs, r)))
                if trial[2] > 0.0:
                    r_new = residual(trial)
                    f_new = _dot(r_new, r_new)
                    if f_new < f:
                        break
            if mu > _MU_MAX:
                return (*x, max(map(abs, r)))
            mu *= _MU_UP
        x, r, f = trial, r_new, f_new
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
    table: _kernels.RowTable, target: tuple[float, float, float, float]
) -> list[tuple[float, float, float]]:
    """(phi0, beta, t) of the scan rows to refine toward one SU(2) lift.

    A row seeds when its dev is at most the threshold and at most both
    chi-neighbours' (+inf past the ends), so each valley of dev seeds
    once.  Only rows whose `_kernels.row_bounds` is at most the threshold
    are scanned: the others have dev >= bound > threshold >= min_dev, so
    they could neither seed, lower the minimum nor undercut a seed's dev
    (they keep +inf).  The rows under
    _threshold(0) go first (those of least bound if there are none),
    then the rows the threshold of the minimum so far admits, until no
    row is left under it.  Rows scan independently of each other and of
    which rows the table already holds, so the seeds are those of the
    full scan on a fresh table, bit for bit.
    """
    betas = table.betas
    bound = _kernels.row_bounds(target, betas)
    dev = np.full(len(betas), np.inf)
    t_best = np.empty(len(betas))
    phis = np.empty(len(betas))
    scanned = np.zeros(len(betas), dtype=bool)
    threshold = max(_threshold(0.0), float(bound.min()))
    while (todo := (bound <= threshold) & ~scanned).any():
        rows = np.flatnonzero(todo)
        dev[rows], t_best[rows], phis[rows] = _kernels.scan_su2(table, target, rows)
        scanned |= todo
        threshold = _threshold(float(dev.min()))
    padded = np.concatenate(([np.inf], dev, [np.inf]))
    idx = np.flatnonzero((dev <= threshold) & (dev <= padded[:-2]) & (dev <= padded[2:]))
    return list(zip(phis[idx].tolist(), betas[idx].tolist(), t_best[idx].tolist()))


# Row tables of the grids shot last.  A table holds at most
# 3 * n_beta * n_t * 8 bytes (3 MiB at the default grid), and only the
# rows some shot has scanned are resident.
@functools.lru_cache(maxsize=4)
def _table(n_beta: int, beta_max: float, n_t: int) -> _kernels.RowTable:
    # beta = c*tan(chi) at the chi midpoints (see GridSpec).
    chi = (np.arange(n_beta) + 0.5) * (math.pi / n_beta) - 0.5 * math.pi
    return _kernels.RowTable((2.0 * beta_max / math.pi) * np.tan(chi), n_t)


def _shoot(lifts: list[SU2Element], grid: GridSpec) -> ShootResult:
    table = _table(grid.n_beta, grid.beta_max, grid.n_t)
    # An SO(3) target is reached through either of its two lifts.  Each
    # lift gets its own threshold, so a grid passing closer to one lift
    # does not hide the other's rows; the lifts share the table.
    refined = []
    for g in lifts:
        target = (g.a_re, g.a_im, g.b_re, g.b_im)
        refined += [_refine(target, *p, grid.refine_steps) for p in _seeds(table, target)]

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

    The scan skips only beta rows that provably cannot hold a seed (see
    `_seeds`), so its seeds, and the result, equal the full scan's.

    When B = 0 (A on the unit circle, the Loc stratum) the endpoint does
    not depend on phi0, so every phi0 is minimizing; only the
    representatives the scan seeds are listed, not the whole circle.
    """
    return _shoot([target], grid)


def shoot_min_time_so3(target: SO3Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal arrival time at an SO(3) target, the least over its two SU(2) lifts.

    A geodesic's endpoint covers the target exactly when it equals one of
    the target's lifts, so each lift is scanned and its seeds refined in
    SU(2) coordinates, as in `shoot_min_time`.  `lift_so3` returns exact
    unit pairs, so a target whose entries are off SO(3) by rounding is
    matched as its nearby exact rotation.
    As in `shoot_min_time`, phi0 is free when the lifts have B = 0 (axis-1
    rotations) and only representatives are listed.
    """
    return _shoot(list(lift_so3(target)), grid)

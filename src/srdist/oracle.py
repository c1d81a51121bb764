"""Brute-force geodesic-shooting oracle and the flawed-system demonstration.

`shoot_min_time` scans a (beta, t) grid of geodesics from the identity,
with phi0 at each cell set in closed form to match the phase of the
target's B (see `_kernels.scan_su2`), keeps the beta rows whose endpoint
comes closest to the target (per SU(2) lift), polishes each candidate in
(phi0, beta, t) by Levenberg-Marquardt on the endpoint residual with the
closed-form Jacobian `geodesics.endpoint_jacobian`, and reports the
least arrival time together with all parameter-distinct minimizers.
Rows whose lower bound |B_target| - 1/s on the deviation
(`_kernels.row_bounds`) already exceeds the candidate threshold are not
scanned; the seeds, and so the result, equal those of the full scan.  It
shares only the geodesic formulas with the production distance code,
never its case analysis, so it serves as an independent check.

`br_system_residual` / `demonstrate_br_nonuniqueness` evaluate the
distance system published in earlier literature and exhibit two distinct
solutions for the same target, refuting its uniqueness claim.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .algebra import SO3Element, SU2Element, klein_entries, lift_so3
from .geodesics import endpoint_coords, endpoint_jacobian
from .su2_distance import DistanceCase, distance_su2

TWO_PI = 2.0 * math.pi

# Floor of the scan-deviation threshold that selects grid cells for
# refinement; the threshold adapts to the best cell because the raw grid
# resolution cannot reach REFINED_TOL directly.
MATCH_TOL = 1e-3
# Endpoint deviation (max-norm) a refined candidate must reach to count
# as hitting the target; t_min and the minimizers are taken over these.
REFINED_TOL = 1e-6
# Arrival-time tolerance: minimizers within t_min + TIME_TOL are listed.
TIME_TOL = 2e-2
# Parameter-space radius for deduplicating minimizers.
DEDUP_RADIUS = 0.1

# Rows refined per SU(2) lift at most.
_CANDIDATE_CAP = 512
# Levenberg-Marquardt damping: start, and factors after a taken and a
# rejected step.
_MU_START = 1e-3
_MU_DOWN = 1.0 / 3.0
_MU_UP = 8.0
# Damping at which a step is negligible against any x: give up.
_MU_MAX = 1e30

# Functions of (phi0, beta, t): the endpoint residual, and its partials
# in phi0, beta and t as three tuples of the residual's length.
Residual = Callable[[float, float, float], tuple]
Jacobian = Callable[[float, float, float], tuple]


class ShootNoMatchError(RuntimeError):
    """No grid candidate reached the target: the grid is too coarse for it."""


@dataclass(frozen=True)
class GridSpec:
    """Scan grid of n_beta x n_t cells over beta in [-beta_max, beta_max].

    refine_steps caps the Levenberg-Marquardt iterations (Jacobian
    evaluations) per candidate.  The scan has no phi0 axis (phi0 is
    solved in closed form per cell), and refinement needs no phi0 step,
    so n_phi is validated but no longer read.
    """

    n_phi: int = 256
    n_beta: int = 256
    beta_max: float = 8.0
    n_t: int = 512
    refine_steps: int = 60

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


def _target_vector_su2(g: SU2Element) -> np.ndarray:
    return np.array([g.a_re, g.a_im, g.b_re, g.b_im])


def _residual_su2(target: SU2Element) -> Residual:
    """Endpoint minus target, componentwise in (Re A, Im A, Re B, Im B)."""
    t0, t1, t2, t3 = target.a_re, target.a_im, target.b_re, target.b_im

    def residual(phi0: float, beta: float, t: float) -> tuple:
        e0, e1, e2, e3 = endpoint_coords(phi0, beta, t)
        return e0 - t0, e1 - t1, e2 - t2, e3 - t3

    return residual


def _residual_so3(target: SO3Element) -> Residual:
    """Covering image of the endpoint minus the target rotation, row-major."""
    tr = target.m.ravel().tolist()

    def residual(phi0: float, beta: float, t: float) -> tuple:
        return tuple(map(operator.sub, klein_entries(*endpoint_coords(phi0, beta, t)), tr))

    return residual


def _jacobian_so3(phi0: float, beta: float, t: float) -> tuple[tuple, tuple, tuple]:
    """Partials of `klein_entries(*endpoint_coords(...))` in phi0, beta and t.

    Each `klein_entries` entry is a quadratic form in q = (a1, a2, b1, b2),
    so its differential along dq is the polarized form, linear in dq.
    """
    a1, a2, b1, b2 = endpoint_coords(phi0, beta, t)
    return tuple(
        (
            2.0 * (a1 * d1 + a2 * d2 - b1 * e1 - b2 * e2),
            2.0 * (a2 * e1 + d2 * b1 - a1 * e2 - d1 * b2),
            2.0 * (a2 * e2 + d2 * b2 + a1 * e1 + d1 * b1),
            2.0 * (a2 * e1 + d2 * b1 + a1 * e2 + d1 * b2),
            2.0 * (a1 * d1 - a2 * d2 + b1 * e1 - b2 * e2),
            2.0 * (b1 * e2 + e1 * b2 - a1 * d2 - d1 * a2),
            2.0 * (a2 * e2 + d2 * b2 - a1 * e1 - d1 * b1),
            2.0 * (b1 * e2 + e1 * b2 + a1 * d2 + d1 * a2),
            2.0 * (a1 * d1 - a2 * d2 - b1 * e1 + b2 * e2),
        )
        for d1, d2, e1, e2 in endpoint_jacobian(phi0, beta, t)
    )


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
    residual: Residual,
    jacobian: Jacobian,
    phi0: float,
    beta: float,
    t: float,
    iterations: int,
) -> tuple[float, float, float, float]:
    """Levenberg-Marquardt on the squared endpoint residual (Moré 1978).

    Each iteration evaluates the Jacobian J once and solves the damped
    normal equations (J^T J + mu*D) s = -J^T r in plain floats, D being
    the running maximum of diag(J^T J), which makes the damping
    scale-free across the three very differently scaled parameters.  A
    step is taken only if it lowers the squared error and keeps t > 0;
    otherwise mu grows and the step is solved again.  The loop ends
    after `iterations` iterations, or once the residual stops falling:
    a rejected step no longer moves x.  Returns (phi0, beta, t,
    max-norm deviation).
    """
    x = (phi0, beta, t)
    r = residual(*x)
    f = _dot(r, r)
    mu = _MU_START
    d0 = d1 = d2 = 0.0
    for _ in range(iterations):
        if f == 0.0:
            break
        c0, c1, c2 = jacobian(*x)
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
                    r_new = residual(*trial)
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


def _seeds(target: np.ndarray, betas: np.ndarray, n_t: int) -> list[tuple[float, float, float]]:
    """(phi0, beta, t) of the scan rows close enough to one SU(2) lift to refine.

    Only rows whose `_kernels.row_bounds` is at most the threshold are
    scanned: the others have dev >= bound > threshold >= min_dev, so they
    could neither be selected nor lower the minimum.  The rows under
    _threshold(0) go first (those of least bound if there are none),
    then the rows the threshold of the minimum so far admits, until no
    row is left under it.  Rows scan independently of each other, so the
    seeds are those of the full scan, bit for bit.
    """
    bound = _kernels.row_bounds(target, betas)
    dev = np.full(len(betas), np.inf)
    t_best = np.empty(len(betas))
    phis = np.empty(len(betas))
    scanned = np.zeros(len(betas), dtype=bool)
    threshold = max(_threshold(0.0), float(bound.min()))
    while (todo := (bound <= threshold) & ~scanned).any():
        rows = np.flatnonzero(todo)
        dev[rows], t_best[rows], phis[rows] = _kernels.scan_su2(target, betas[rows], n_t)
        scanned |= todo
        threshold = _threshold(float(dev.min()))
    idx = np.flatnonzero(dev <= threshold)
    if len(idx) > _CANDIDATE_CAP:
        order = np.argsort(dev[idx], kind="stable")
        idx = idx[order[:_CANDIDATE_CAP]]
    return list(zip(phis[idx].tolist(), betas[idx].tolist(), t_best[idx].tolist()))


def _shoot(
    lifts: list[np.ndarray],
    residual: Residual,
    jacobian: Jacobian,
    grid: GridSpec,
    beta_hint: Optional[float],
) -> ShootResult:
    beta_max = grid.beta_max
    # Widen the search window when the production solver puts the
    # minimizer's momentum near the window edge (window sizing only; all
    # values are still computed independently).
    if beta_hint is not None and abs(beta_hint) >= 0.9 * beta_max:
        beta_max = 1.25 * abs(beta_hint)

    betas = np.linspace(-beta_max, beta_max, grid.n_beta)
    # An SO(3) target is reached through either of its two lifts; each
    # lift gets its own threshold, so a grid that passes closer to one
    # lift does not hide the other's rows.
    seeds = [p for vec in lifts for p in _seeds(vec, betas, grid.n_t)]
    refined = [_refine(residual, jacobian, *p, grid.refine_steps) for p in seeds]

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
    ref = distance_su2(target)
    return _shoot(
        [_target_vector_su2(target)], _residual_su2(target), endpoint_jacobian, grid, ref.beta
    )


def shoot_min_time_so3(target: SO3Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal arrival time at an SO(3) target, endpoint matched after covering.

    Both SU(2) lifts are scanned; refinement matches the rotation itself.
    As in `shoot_min_time`, phi0 is free when the lifts have B = 0 (axis-1
    rotations) and only representatives are listed.
    """
    from .so3_distance import distance_so3

    ref = distance_so3(target)
    lifts = [_target_vector_su2(g) for g in lift_so3(target)]
    return _shoot(lifts, _residual_so3(target), _jacobian_so3, grid, ref.beta)


def br_system_residual(
    t: float, beta: float, abs_a: float, arg_a: float
) -> tuple[float, float]:
    """Residuals of the previously published two-equation distance system.

    First equation: -beta*t/2 + arctan((beta/s)*tan(t*s/2)) = arg(A),
    with the principal-branch arctan of the published formula; at the tan
    pole t*s/2 = pi/2 the one-sided limit sgn(beta*sin(u))*pi/2 is used.
    Keeping the principal branch is the point: it is what makes the
    system admit two roots for one target (see
    demonstrate_br_nonuniqueness).
    Second equation: sin(t*s/2)/s = sqrt(1 - |A|^2).
    """
    s = math.sqrt(1.0 + beta * beta)
    u = t * s / 2.0
    su, cu = math.sin(u), math.cos(u)
    if abs(cu) < 1e-300:
        branch = math.copysign(math.pi / 2.0, beta * su) if beta != 0.0 else 0.0
    else:
        branch = math.atan(beta * su / (s * cu))
    r1 = -beta * t / 2.0 + branch - arg_a
    r2 = math.sin(u) / s - math.sqrt(max(0.0, 1.0 - abs_a * abs_a))
    return r1, r2


@dataclass(frozen=True)
class NonuniquenessReport:
    """Two distinct solutions of the flawed system for one target."""

    abs_a: float
    t_small: float
    t_large: float
    residuals_small: tuple[float, float]
    residuals_large: tuple[float, float]
    true_distance: float
    true_case: DistanceCase
    notes: str = field(default="", compare=False)


def demonstrate_br_nonuniqueness(abs_a: float) -> NonuniquenessReport:
    """Exhibit two beta = 0, arg(A) = 0 solutions of the flawed system.

    Both t = 2*arcsin(sqrt(1-|A|^2)) and t = 2*pi - 2*arcsin(sqrt(1-|A|^2))
    satisfy the system, while the corrected case analysis returns a single
    value (the smaller one).
    """
    if not 0.0 < abs_a < 1.0:
        raise ValueError("abs_a must lie in (0, 1)")
    half = math.asin(math.sqrt(1.0 - abs_a * abs_a))
    t_small = 2.0 * half
    t_large = TWO_PI - 2.0 * half
    res_small = br_system_residual(t_small, 0.0, abs_a, 0.0)
    res_large = br_system_residual(t_large, 0.0, abs_a, 0.0)
    g = SU2Element(abs_a, 0.0, math.sqrt(1.0 - abs_a * abs_a), 0.0)
    ref = distance_su2(g)
    notes = (
        f"flawed system admits t = {t_small:.9f} and t = {t_large:.9f}; "
        f"case analysis gives the unique t = {ref.t:.9f} ({ref.case.value})"
    )
    return NonuniquenessReport(
        abs_a=abs_a,
        t_small=t_small,
        t_large=t_large,
        residuals_small=res_small,
        residuals_large=res_large,
        true_distance=ref.t,
        true_case=ref.case,
        notes=notes,
    )

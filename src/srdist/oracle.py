"""Brute-force geodesic-shooting oracle and the flawed-system demonstration.

`shoot_min_time` scans a (beta, t) grid of geodesics from the identity,
with phi0 at each cell set in closed form to match the phase of the
target's B (see `_kernels.scan_su2`), keeps the beta rows whose endpoint
comes closest to the target, polishes each candidate in (phi0, beta, t)
by coordinate descent with step halving, and reports the least arrival
time together with all parameter-distinct minimizers.  It shares only
the geodesic formulas with the production distance code, never its case
analysis, so it serves as an independent check.

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
from .geodesics import endpoint_coords
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

_CANDIDATE_CAP = 512

# Functions of (phi0, beta, t).
Residual = Callable[[float, float, float], tuple]
Objective = Callable[[float, float, float], float]


class ShootNoMatchError(RuntimeError):
    """No grid candidate reached the target: the grid is too coarse for it."""


@dataclass(frozen=True)
class GridSpec:
    """Scan grid of n_beta x n_t cells over beta in [-beta_max, beta_max].

    The scan has no phi0 axis (phi0 is solved in closed form per cell);
    n_phi sets the phi0 step 2*pi/n_phi that refinement starts from.
    """

    n_phi: int = 256
    n_beta: int = 256
    beta_max: float = 8.0
    n_t: int = 512
    refine_steps: int = 60

    def __post_init__(self):
        if min(self.n_phi, self.n_beta, self.n_t) < 64:
            raise ValueError("grid sizes must be at least 64 in each dimension")
        if self.beta_max < 8.0:
            raise ValueError("beta_max must be at least 8")
        if self.refine_steps < 1:
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


def _objectives(residual: Residual) -> tuple[Objective, Objective]:
    """(max-norm deviation, squared error) of a residual."""

    def dev(phi0: float, beta: float, t: float) -> float:
        return max(map(abs, residual(phi0, beta, t)))

    def sq(phi0: float, beta: float, t: float) -> float:
        r = residual(phi0, beta, t)
        return sum(map(operator.mul, r, r))

    return dev, sq


def _refine(
    dev: Callable[[float, float, float], float],
    sq: Callable[[float, float, float], float],
    phi0: float,
    beta: float,
    t: float,
    steps: tuple[float, float, float],
    rounds: int,
) -> tuple[float, float, float, float]:
    """Coordinate descent with step halving on the squared endpoint error.

    Sweeps the three coordinates greedily; when a full sweep brings no
    improvement the steps are halved.  `rounds` counts the halvings, so
    the final steps are the grid spacings shrunk by 2^-rounds.  The
    squared error is the descent objective (the max-norm deviation has
    ridges that stall single-coordinate moves); the returned deviation is
    still the max-norm one.
    """
    x = [phi0, beta, t]
    s = list(steps)
    best = sq(*x)
    halvings = 0
    sweeps = 0
    max_sweeps = 20 * rounds
    while halvings < rounds and sweeps < max_sweeps:
        sweeps += 1
        moved = False
        for i in range(3):
            for direction in (1.0, -1.0):
                while True:
                    trial = list(x)
                    trial[i] = x[i] + direction * s[i]
                    if i == 2 and trial[i] <= 0.0:
                        break
                    d = sq(*trial)
                    if d < best:
                        best = d
                        x = trial
                        moved = True
                    else:
                        break
        if not moved:
            s = [v / 2.0 for v in s]
            halvings += 1
    return x[0], x[1], x[2], dev(*x)


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


def _shoot(
    lifts: list[np.ndarray],
    residual: Residual,
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
    # One row per (SU(2) lift, beta); an SO(3) target is reached through
    # either of its two lifts.
    scans = [_kernels.scan_su2(vec, betas, grid.n_t) for vec in lifts]
    dev, t_best, phis = (np.concatenate(col) for col in zip(*scans))
    beta_rows = np.tile(betas, len(lifts))

    min_dev = float(dev.min())
    threshold = max(MATCH_TOL, 4.0 * min_dev, min_dev + 2e-3)
    cand_idx = np.flatnonzero(dev <= threshold)
    if len(cand_idx) > _CANDIDATE_CAP:
        order = np.argsort(dev[cand_idx], kind="stable")
        cand_idx = cand_idx[order[:_CANDIDATE_CAP]]

    steps = (
        TWO_PI / grid.n_phi,
        2.0 * beta_max / (grid.n_beta - 1),
        TWO_PI / grid.n_t,
    )
    dev_fn, sq_fn = _objectives(residual)
    refined: list[tuple[float, float, float, float]] = []
    for i in cand_idx:
        r = _refine(
            dev_fn,
            sq_fn,
            float(phis[i]),
            float(beta_rows[i]),
            float(t_best[i]),
            steps,
            grid.refine_steps,
        )
        refined.append(r)

    exact = sorted(
        (r for r in refined if r[3] <= REFINED_TOL),
        key=lambda r: (r[2], r[0] % TWO_PI, r[1]),
    )
    if not exact:
        raise ShootNoMatchError(
            f"no refined candidate within {REFINED_TOL} of the target "
            f"(best deviation {min(r[3] for r in refined) if refined else min_dev:.3e})"
        )
    # The first minimizer's time, so t_min never undercuts the minimizers.
    t_min = exact[0][2]
    minimizers = _dedup([(r[0], r[1], r[2]) for r in exact if r[2] <= t_min + TIME_TOL])
    return ShootResult(t_min=t_min, minimizers=minimizers, grid_spec=grid)


def shoot_min_time(target: SU2Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal geodesic arrival time at an SU(2) target, by exhaustive scan.

    When B = 0 (A on the unit circle, the Loc stratum) the endpoint does
    not depend on phi0, so every phi0 is minimizing; only the
    representatives the scan seeds are listed, not the whole circle.
    """
    ref = distance_su2(target)
    return _shoot([_target_vector_su2(target)], _residual_su2(target), grid, ref.beta)


def shoot_min_time_so3(target: SO3Element, grid: GridSpec = GridSpec()) -> ShootResult:
    """Minimal arrival time at an SO(3) target, endpoint matched after covering.

    Both SU(2) lifts are scanned; refinement matches the rotation itself.
    As in `shoot_min_time`, phi0 is free when the lifts have B = 0 (axis-1
    rotations) and only representatives are listed.
    """
    from .so3_distance import distance_so3

    ref = distance_so3(target)
    lifts = [_target_vector_su2(g) for g in lift_so3(target)]
    return _shoot(lifts, _residual_so3(target), grid, ref.beta)


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

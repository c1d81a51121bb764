"""Exact sub-Riemannian distance from the identity on SO(3).

The production route is a direct five-branch analysis of the rotation
matrix C; the quantities entering the monotone systems are read off the
matrix entries (abs_a = sqrt((1+c11)/2) and a phase target built from
c22 + c33 and c32 - c23).  An independent route takes the minimum of the
SU(2) distances of the two lifts of C; both routes must agree, which the
test suite checks on random rotations.
"""
from __future__ import annotations

import math
from typing import Optional

from .algebra import SO3Element, SU2Element, identity_residual, lift_so3, sgn, so3_mul
from .su2_distance import (
    EPS_CASE,
    DistanceCase,
    DistanceResult,
    distance_su2,
    solve_arc,
)

TWO_PI = 2.0 * math.pi

# c11 thresholds routing to the degenerate branches.
_C11_EDGE = 1e-12

# Largest distance observed on SO(3): attained at diag(1, -1, -1), the
# half turn about axis 1 (checked by dense scans over (|A|, arg A) of the
# lift-minimum and by random sampling).
SO3_DIAMETER_BOUND = math.pi * math.sqrt(3.0)


def _phi0_from_lift(lift: SU2Element, beta: float, t: float) -> Optional[float]:
    if math.hypot(lift.b_re, lift.b_im) <= 1e-12:
        return None
    return (math.atan2(lift.b_im, lift.b_re) - beta * t / 2.0) % TWO_PI


def distance_so3(c: SO3Element) -> DistanceResult:
    """Distance from the rotation c to the identity by direct case analysis."""
    rows = c.m.tolist()
    (c11, _, _), (_, c22, c23), (_, c32, c33) = rows

    if identity_residual(rows) < _C11_EDGE:
        return DistanceResult(0.0, DistanceCase.ABS_A_ONE, None, None)

    if c11 <= -1.0 + _C11_EDGE:
        # Half turn about an axis orthogonal to axis 1; the lift has A = 0.
        lift, _ = lift_so3(c)
        return DistanceResult(math.pi, DistanceCase.A_ZERO, 0.0, _phi0_from_lift(lift, 0.0, math.pi))

    if c11 >= 1.0 - _C11_EDGE:
        # Rotation about axis 1; solve pi*beta/sqrt(1+beta^2) = target angle.
        cos_rhs = -math.sqrt(max(0.0, 1.0 + c11 + c22 + c33)) / 2.0
        sin_rhs = sgn(c32 - c23) * math.sqrt(max(0.0, 1.0 + c11 - c22 - c33)) / 2.0
        u = math.atan2(sin_rhs, cos_rhs)
        r = u / math.pi  # beta/sqrt(1+beta^2); |r| < 1 for c != identity
        beta = r / math.sqrt(max(1e-300, 1.0 - r * r))
        t = TWO_PI / math.sqrt(1.0 + beta * beta)
        return DistanceResult(t, DistanceCase.ABS_A_ONE, beta, None)

    abs_a = math.sqrt((1.0 + c11) / 2.0)
    k2 = (1.0 - c11) / 2.0  # 1 - |A|^2, without the cancellation near |A| = 1
    disc = math.cos(math.pi * abs_a) + (c22 + c33) / (1.0 + c11)
    # Cosine/sine right-hand sides of the branch-4 system, normalized by 1+c11.
    denom = 2.0 * (1.0 + c11)
    cos_rhs = math.sqrt(max(0.0, (1.0 + c11 + c22 + c33) / denom))
    sin_rhs = sgn(c32 - c23) * math.sqrt(max(0.0, (1.0 + c11 - c22 - c33) / denom))
    theta = math.atan2(sin_rhs, cos_rhs)  # phase of the canonical lift's A

    if abs(disc) <= EPS_CASE:
        # Boundary branch; delegate the beta sign choice to the lift.
        lift, _ = lift_so3(c)
        res = distance_su2(lift)
        t = math.pi * math.sqrt(k2)
        return DistanceResult(t, DistanceCase.BOUNDARY, res.beta, res.phi0)

    if disc > 0.0:
        # Short arc: monotone target is theta itself.
        beta, t = solve_arc(abs_a, k2, theta, long=False)
        case = DistanceCase.SHORT
    else:
        # Long arc: phase target pi - theta (theta >= 0) or -pi - theta.
        target = math.pi - theta if theta >= 0.0 else -math.pi - theta
        beta, t = solve_arc(abs_a, k2, target, long=True)
        case = DistanceCase.LONG

    lift, _ = lift_so3(c)
    return DistanceResult(t, case, beta, _phi0_from_lift(lift, beta, t))


def distance_so3_via_lifts(c: SO3Element) -> float:
    """Independent route: the lesser of the SU(2) distances of the two lifts."""
    lift, neg = lift_so3(c)
    return min(distance_su2(lift).t, distance_su2(neg).t)


def lift_distance_results(c: SO3Element) -> tuple[DistanceResult, DistanceResult]:
    """SU(2) distance results of (canonical lift, negated lift), for cross-checks."""
    lift, neg = lift_so3(c)
    return distance_su2(lift), distance_su2(neg)


def distance_so3_pair(c1: SO3Element, c2: SO3Element) -> float:
    """Distance between two rotations via left-invariance."""
    return distance_so3(so3_mul(c1.transpose(), c2)).t

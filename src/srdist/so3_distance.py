"""Exact sub-Riemannian distance from the identity on SO(3).

The production route reads the covering pair (A, B) of the rotation C,
with Re A >= 0, off three covering identities, each linear in the
matrix entries:

    A^2       = (c22 + c33 + i(c32 - c23))/2
    B^2       = (c22 - c33 + i(c32 + c23))/2
    A conj(B) = (c13 + i c12)/2

When c11 = |A|^2 - |B|^2 >= 0, A is the principal root of A^2 and B
follows from A conj(B); otherwise B is a root of B^2 and A follows.  Each
path divides only by the larger of |A| and |B|, so no digits are lost
near half turns or axis-1 rotations.  With theta = arg A in
[-pi/2, pi/2], the paper's SO(3) theorem routes on the pair: branches 1
and 2 on |A| (the predicate `distance_su2` uses), short, long and
boundary arcs on the sign of cos(pi |A|) + cos(2 theta).  phi0 is read
off the same B.

An independent route takes the minimum of the SU(2) distances of the two
lifts of C (`lift_so3`).  Both routes are within 1e-13 of a 40-digit
reference on the accuracy bands, and the test suite checks that they
agree.
"""
from __future__ import annotations

import cmath
import math

from .algebra import SO3Element, lift_so3, so3_mul
from .su2_distance import (
    ABS_A_EDGE,
    EPS_CASE,
    DistanceCase,
    DistanceResult,
    abs_a_one,
    beta_domain_max,
    distance_su2,
    solve_arc,
)

TWO_PI = 2.0 * math.pi

# Largest distance observed on SO(3): attained at diag(1, -1, -1), the
# half turn about axis 1 (checked by dense scans over (|A|, arg A) of the
# lift-minimum and by random sampling).
SO3_DIAMETER_BOUND = math.pi * math.sqrt(3.0)


def _cover_pair(rows) -> tuple[complex, complex]:
    """Unit covering pair (A, B) with Re A >= 0 of a rotation given as rows."""
    (c11, c12, c13), (_, c22, c23), (_, c32, c33) = rows
    a_conj_b = complex(0.5 * c13, 0.5 * c12)
    # "+ 0.0" turns a signed zero into +0, so that the root of a negative
    # real square is +i|.| whatever the sign of its zero imaginary part.
    if c11 >= 0.0:
        a = cmath.sqrt(complex(0.5 * (c22 + c33), 0.5 * (c32 - c23) + 0.0))
        b = (a_conj_b / a).conjugate()
    else:
        b = cmath.sqrt(complex(0.5 * (c22 - c33), 0.5 * (c32 + c23) + 0.0))
        a = a_conj_b * b / (b.real * b.real + b.imag * b.imag)
        if a.real < 0.0:
            a, b = -a, -b
    # Normalizing keeps the pair on the unit sphere when the entries are
    # noisy, so that |A| and k^2 = |B|^2 come from the same pair.
    norm = math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    return a / norm, b / norm


def distance_so3(c: SO3Element) -> DistanceResult:
    """Distance from the rotation c to the identity by direct case analysis."""
    a, b = _cover_pair(c.m.tolist())
    abs_a = abs(a)
    arg_b = math.atan2(b.imag, b.real)

    if abs_a <= ABS_A_EDGE:
        # Branch 1: half turn about an axis orthogonal to axis 1.
        return DistanceResult(math.pi, DistanceCase.A_ZERO, 0.0, arg_b % TWO_PI)

    theta = math.atan2(a.imag, a.real)

    if abs_a >= 1.0 - ABS_A_EDGE:
        # Branch 2: rotation about axis 1, as in `distance_su2`.
        return abs_a_one(theta)

    k2 = b.real * b.real + b.imag * b.imag
    disc = math.cos(math.pi * abs_a) + math.cos(2.0 * theta)
    if abs(disc) <= EPS_CASE:
        # Branch 3: boundary between the short- and long-arc regimes.
        # beta = +-b*, with theta's sign, as in `distance_su2`.
        t = math.pi * math.sqrt(k2)
        beta = math.copysign(beta_domain_max(abs_a), theta)
        case = DistanceCase.BOUNDARY
    elif disc > 0.0:
        # Branch 4: short arc, monotone target theta.
        beta, t = solve_arc(abs_a, k2, theta, long=False)
        case = DistanceCase.SHORT
    else:
        # Branch 5: long arc, phase target pi - theta (theta >= 0) or -pi - theta.
        target = math.pi - theta if theta >= 0.0 else -math.pi - theta
        beta, t = solve_arc(abs_a, k2, target, long=True)
        case = DistanceCase.LONG

    return DistanceResult(t, case, beta, (arg_b - beta * t / 2.0) % TWO_PI)


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

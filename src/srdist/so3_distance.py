"""Exact sub-Riemannian distance from the identity on SO(3).

The production route reads the covering pair (A, B) of the rotation C,
with Re A >= 0, off three covering identities, each linear in the
matrix entries (`algebra.cover_pair`).

The pair then goes through the SU(2) case analysis,
`su2_distance.distance_from_pair`.  The paper's SO(3) theorem routes
short, long and boundary arcs on the sign of cos(pi |A|) + cos(2 theta),
theta = arg A.  That sum is 2 cos(pi |A|/2 + theta) cos(pi |A|/2 - theta);
for theta in [-pi/2, pi/2], which Re A >= 0 gives, the second factor is
positive, so the sum is positive, zero or negative exactly when
|theta| is below, at or above pi (1 - |A|)/2: the SU(2) test on the
canonical lift.  phi0 is read off the same B.

An independent route takes the minimum of the SU(2) distances of the two
lifts of C (`lift_so3`).  Both routes are within 1e-13 of a 40-digit
reference on the accuracy bands, and the test suite checks that they
agree, also next to the branch-3 boundary as |A| -> 1
(`verify.check_submetry`).
"""
from __future__ import annotations

import math

from .algebra import SO3Element, cover_pair, lift_so3
from .su2_distance import DistanceResult, distance_from_pair, distance_su2

# Largest distance observed on SO(3): attained at diag(1, -1, -1), the
# half turn about axis 1 (checked by dense scans over (|A|, arg A) of the
# lift-minimum and by random sampling).
SO3_DIAMETER_BOUND = math.pi * math.sqrt(3.0)


def distance_so3(c: SO3Element) -> DistanceResult:
    """Distance from the rotation c to the identity: its covering pair through the SU(2) branches."""
    a, b = cover_pair(c)
    return distance_from_pair(a.real, a.imag, b.real, b.imag)


def distance_so3_via_lifts(c: SO3Element) -> float:
    """Independent route: the lesser of the SU(2) distances of the two lifts."""
    return min(r.t for r in lift_distance_results(c))


def lift_distance_results(c: SO3Element) -> tuple[DistanceResult, DistanceResult]:
    """SU(2) distance results of (canonical lift, negated lift), for cross-checks."""
    lift, neg = lift_so3(c)
    return distance_su2(lift), distance_su2(neg)


def distance_so3_pair(c1: SO3Element, c2: SO3Element) -> float:
    """Distance between two rotations via left-invariance: d(c1, c2) = d(e, c1^T c2).

    c1^T c2 is covered by g1^-1 g2 of the covering pairs, exactly the
    identity when c1 = c2, as the rounded matrix product is not.
    """
    a1, b1 = cover_pair(c1)
    a2, b2 = cover_pair(c2)
    a = a1.conjugate() * a2 + b1 * b2.conjugate()
    b = a1.conjugate() * b2 - b1 * a2.conjugate()
    if a.real < 0.0:
        a, b = -a, -b
    return distance_from_pair(a.real, a.imag, b.real, b.imag).t

"""Exact sub-Riemannian distance from the identity on SO(3).

The production route reads the covering pair (A, B) of the rotation C,
with Re A >= 0, as four floats (`algebra.cover_pair`, linear in the
matrix entries) and passes them to the SU(2) case analysis,
`su2_distance.distance_from_pair`.  The paper's SO(3) theorem routes
short, long and boundary arcs on the sign of cos(pi |A|) + cos(2 theta),
theta = arg A.  That sum is 2 cos(pi |A|/2 + theta) cos(pi |A|/2 - theta);
for theta in [-pi/2, pi/2], which Re A >= 0 gives, the second factor is
positive, so the sum is positive, zero or negative exactly when
|theta| is below, at or above pi (1 - |A|)/2: the SU(2) test on the
canonical lift.  phi0 is read off the same B.

A second route takes the minimum of the SU(2) distances of the two
lifts of C (`lift_so3`: the same covering pair, to the bit, and its
negation).  The routes share the inverse of the covering map and differ
in the SO(3) step: the direct route takes the Re A >= 0 lift as the
nearer one, which is the paper's SO(3) theorem, and the second takes
the minimum, so their agreement tests that theorem, also next to the
branch-3 boundary as |A| -> 1 (`verify.check_submetry`).  At Re A = 0
(half turns) both lifts are at the same distance, and `cover_pair`
picks one of them by its stated rule.  Both routes are within 1e-13 of
a 40-digit reference on the accuracy bands.
"""
from __future__ import annotations

import math

from .algebra import SO3Element, _mul, cover_pair, lift_so3
from .su2_distance import DistanceResult, distance_from_pair, distance_su2

# Largest distance on SO(3), attained at diag(1, -1, -1), the half turn
# about axis 1: `verify.check_golden_values` holds that distance equal to
# it to the bit, and `verify.check_metric_axioms` and `verify.check_oracle`
# hold every sampled distance and SO(3) oracle time at or below it.
SO3_DIAMETER_BOUND = math.pi * math.sqrt(3.0)


def distance_so3(c: SO3Element) -> DistanceResult:
    """Distance from the rotation c to the identity: its covering pair through the SU(2) branches."""
    return distance_from_pair(*cover_pair(c))


def distance_so3_via_lifts(c: SO3Element) -> float:
    """Second route: the lesser of the SU(2) distances of the two lifts."""
    return min(r.t for r in lift_distance_results(c))


def lift_distance_results(c: SO3Element) -> tuple[DistanceResult, DistanceResult]:
    """SU(2) distance results of (canonical lift, negated lift), for cross-checks."""
    lift, neg = lift_so3(c)
    return distance_su2(lift), distance_su2(neg)


def distance_so3_pair(c1: SO3Element, c2: SO3Element) -> float:
    """Distance between two rotations via left-invariance: d(c1, c2) = d(e, c1^T c2).

    c1^T c2 is covered by g1^-1 g2 of the covering pairs (`_mul`, g1^-1 =
    (conj(A1), -B1)), exactly the identity when c1 = c2, as the rounded
    matrix product is not.
    """
    p1, q1, r1, s1 = cover_pair(c1)
    a_re, a_im, b_re, b_im = _mul((p1, -q1, -r1, -s1), cover_pair(c2))
    if a_re < 0.0:
        a_re, a_im, b_re, b_im = -a_re, -a_im, -b_re, -b_im
    return distance_from_pair(a_re, a_im, b_re, b_im).t

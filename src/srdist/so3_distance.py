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
near half turns or axis-1 rotations.

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

import cmath
import math

from .algebra import SO3Element, lift_so3
from .su2_distance import DistanceResult, distance_from_pair, distance_su2

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
    """Distance from the rotation c to the identity: its covering pair through the SU(2) branches."""
    a, b = _cover_pair(c.m.tolist())
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
    a1, b1 = _cover_pair(c1.m.tolist())
    a2, b2 = _cover_pair(c2.m.tolist())
    a = a1.conjugate() * a2 + b1 * b2.conjugate()
    b = a1.conjugate() * b2 - b1 * a2.conjugate()
    if a.real < 0.0:
        a, b = -a, -b
    return distance_from_pair(a.real, a.imag, b.real, b.imag).t

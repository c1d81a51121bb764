"""The distance system published in earlier literature, and its two roots.

`br_system_residual` evaluates that two-equation system and
`demonstrate_br_nonuniqueness` exhibits two distinct solutions of it for
one target, refuting its uniqueness claim; the corrected case analysis
(`distance_su2`) returns one value, the smaller root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import SU2Element
from .su2_distance import distance_su2


def br_system_residual(
    t: float, beta: float, abs_a: float, arg_a: float
) -> tuple[float, float]:
    """Residuals of the previously published two-equation distance system.

    First equation: -beta*t/2 + arctan((beta/s)*tan(t*s/2)) = arg(A),
    with the principal-branch arctan of the published formula.  Keeping
    the principal branch is the point: it is what makes the
    system admit two roots for one target (see
    demonstrate_br_nonuniqueness).  The tan pole is never met: no double
    u has |cos u| below 4.69e-19.
    Second equation: sin(t*s/2)/s = sqrt(1 - |A|^2).
    """
    s = math.sqrt(1.0 + beta * beta)
    u = t * s / 2.0
    su = math.sin(u)
    r1 = -beta * t / 2.0 + math.atan(beta * su / (s * math.cos(u))) - arg_a
    r2 = su / s - math.sqrt(max(0.0, 1.0 - abs_a * abs_a))
    return r1, r2


@dataclass(frozen=True)
class NonuniquenessReport:
    """Two distinct solutions of the flawed system for one target."""

    t_small: float
    t_large: float
    residuals_small: tuple[float, float]
    residuals_large: tuple[float, float]
    true_distance: float


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
    t_large = math.tau - 2.0 * half
    res_small = br_system_residual(t_small, 0.0, abs_a, 0.0)
    res_large = br_system_residual(t_large, 0.0, abs_a, 0.0)
    g = SU2Element(abs_a, 0.0, math.sqrt(1.0 - abs_a * abs_a), 0.0)
    return NonuniquenessReport(
        t_small=t_small,
        t_large=t_large,
        residuals_small=res_small,
        residuals_large=res_large,
        true_distance=distance_su2(g).t,
    )

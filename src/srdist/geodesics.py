"""Unit-speed sub-Riemannian geodesics from the identity.

A geodesic is parametrized by a horizontal direction angle phi0 and a
vertical momentum beta; the parameter t is also arclength.  Two
independent evaluation routes are provided: the closed trigonometric
form (production) and the product of two one-parameter subgroups
(cross-check).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    AlgebraVector, InvalidElementError, SO3Element, SU2Element, _real_floats, klein_omega, su2_exp, su2_mul,
)


@dataclass(frozen=True, init=False)
class GeodesicParams:
    """Horizontal direction angle phi0 (normalized to [0, 2*pi)) and beta.

    Both are held to the elements' real-number rule (`algebra._real_floats`)
    and stored as Python floats.
    """

    phi0: float
    beta: float

    def __init__(self, phi0: float, beta: float):
        phi0, beta = _real_floats((phi0, beta), "geodesic parameters")
        d = self.__dict__
        d["phi0"] = phi0 % math.tau
        d["beta"] = beta


def endpoint_coords(phi0: float, beta: float, t: float) -> tuple[float, float, float, float]:
    """(Re A, Im A, Re B, Im B) of the geodesic endpoint at time t.

    With s = sqrt(1 + beta^2), u = t*s/2 and h = beta*t/2:

        Re(A) = (beta/s) sin(u) sin(h) + cos(u) cos(h)
        Im(A) = (beta/s) sin(u) cos(h) - cos(u) sin(h)
        B     = (sin(u)/s) * exp(i*(h + phi0))

    Plain floats, unvalidated, for callers that evaluate it many times.
    """
    s = math.hypot(1.0, beta)
    u = t * s / 2.0
    h = beta * t / 2.0
    su, cu = math.sin(u), math.cos(u)
    sh, ch = math.sin(h), math.cos(h)
    bmag = su / s
    return (
        (beta / s) * su * sh + cu * ch,
        (beta / s) * su * ch - cu * sh,
        bmag * math.cos(h + phi0),
        bmag * math.sin(h + phi0),
    )


def _time(t: float, beta: float) -> float:
    """t >= 0 as a float, t*sqrt(1 + beta^2) finite; `_real_floats` off the float path (numpy slows every formula)."""
    if type(t) is not float or not math.isfinite(t):
        (t,) = _real_floats((t,), "geodesic parameter t")
    if t < 0.0:
        raise InvalidElementError("geodesic parameter t must be nonnegative")
    if t * math.hypot(1.0, beta) == math.inf:
        raise InvalidElementError(f"geodesic parameter t = {t!r} overflows t*sqrt(1 + beta^2), beta = {beta!r}")
    return t


def geodesic_point(p: GeodesicParams, t: float) -> SU2Element:
    """Closed-form geodesic endpoint at time t >= 0 (see `endpoint_coords`)."""
    return SU2Element(*endpoint_coords(p.phi0, p.beta, _time(t, p.beta)))


def geodesic_point_exp(p: GeodesicParams, t: float) -> SU2Element:
    """Same endpoint via exp(t(cos(phi0) p1 + sin(phi0) p2 + beta k)) exp(-t beta k).

    Exists as an independent route; agrees with `geodesic_point` to 1e-10.
    """
    t = _time(t, p.beta)
    first = su2_exp(AlgebraVector(math.cos(p.phi0), math.sin(p.phi0), p.beta), t)
    second = su2_exp(AlgebraVector(0.0, 0.0, p.beta), -t)
    return su2_mul(first, second)


def geodesic_point_so3(p: GeodesicParams, t: float) -> SO3Element:
    """Geodesic endpoint on SO(3), the covering image of the SU(2) endpoint."""
    return klein_omega(geodesic_point(p, t))


def cut_time_bound(beta: float) -> float:
    """SU(2) cut time 2*pi/sqrt(1 + beta^2) of the geodesics with momentum beta.

    It is exact, not just an upper bound: on SU(2) a geodesic minimizes
    up to this time, where it reaches B = 0 at u = t*s/2 = pi, and no
    longer after it (the paper's theorem; `tests/test_geodesics.py` checks
    both sides).  On SO(3) a geodesic can stop minimizing earlier.
    """
    if type(beta) is not float or not math.isfinite(beta):
        (beta,) = _real_floats((beta,), "beta")
    return math.tau / math.hypot(1.0, beta)

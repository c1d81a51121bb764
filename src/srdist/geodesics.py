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

from .algebra import AlgebraVector, SO3Element, SU2Element, klein_omega, su2_exp, su2_mul

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GeodesicParams:
    """Horizontal direction angle phi0 (normalized to [0, 2*pi)) and beta."""

    phi0: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.phi0) and math.isfinite(self.beta)):
            raise ValueError("geodesic parameters must be finite")
        object.__setattr__(self, "phi0", self.phi0 % TWO_PI)


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


def endpoint_jacobian(phi0: float, beta: float, t: float) -> tuple[tuple, tuple[tuple, tuple, tuple]]:
    """The endpoint and its partials in phi0, beta and t.

    Returns (end, (d_phi0, d_beta, d_t)): end is `endpoint_coords`' own
    value, and each partial is a 4-tuple in the same coordinates.  With
    c = beta/s, m = sin(u)/s and the chain factors du/dbeta =
    t*beta/(2s), du/dt = s/2, dh/dbeta = t/2, dh/dt = beta/2,
    dc/dbeta = 1/s^3 and dm/dbeta = cos(u)/s * du/dbeta - m*beta/s^2.
    A does not depend on phi0, so d_phi0 = (0, 0, -Im B, Re B), and
    d(A)/dh = -i*A.
    """
    end = a_re, a_im, b_re, b_im = endpoint_coords(phi0, beta, t)
    s = math.hypot(1.0, beta)
    s2 = s * s
    u = t * s / 2.0
    h = beta * t / 2.0
    su, cu = math.sin(u), math.cos(u)
    sh, ch = math.sin(h), math.cos(h)
    c = beta / s
    # d/du of (Re A, Im A) at fixed c and h
    a_re_u = c * cu * sh - su * ch
    a_im_u = c * cu * ch + su * sh
    u_beta = t * beta / (2.0 * s)
    c_beta = 1.0 / (s * s2)
    m_beta = cu / s * u_beta - su / s * beta / s2
    cp, sp = math.cos(h + phi0), math.sin(h + phi0)
    return end, (
        (0.0, 0.0, -b_im, b_re),
        (
            c_beta * su * sh + a_re_u * u_beta + a_im * t / 2.0,
            c_beta * su * ch + a_im_u * u_beta - a_re * t / 2.0,
            m_beta * cp - b_im * t / 2.0,
            m_beta * sp + b_re * t / 2.0,
        ),
        (
            a_re_u * s / 2.0 + a_im * beta / 2.0,
            a_im_u * s / 2.0 - a_re * beta / 2.0,
            cu / 2.0 * cp - b_im * beta / 2.0,
            cu / 2.0 * sp + b_re * beta / 2.0,
        ),
    )


def geodesic_point(p: GeodesicParams, t: float) -> SU2Element:
    """Closed-form geodesic endpoint at time t >= 0 (see `endpoint_coords`)."""
    if t < 0:
        raise ValueError("geodesic parameter t must be nonnegative")
    # Python floats, the same to the bit: numpy scalars slow every formula downstream.
    return SU2Element(*endpoint_coords(float(p.phi0), float(p.beta), float(t)))


def geodesic_point_exp(p: GeodesicParams, t: float) -> SU2Element:
    """Same endpoint via exp(t(cos(phi0) p1 + sin(phi0) p2 + beta k)) exp(-t beta k).

    Exists as an independent route; agrees with `geodesic_point` to 1e-10.
    """
    if t < 0:
        raise ValueError("geodesic parameter t must be nonnegative")
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
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return TWO_PI / math.hypot(1.0, beta)

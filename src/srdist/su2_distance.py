"""Exact sub-Riemannian distance from the identity on SU(2).

The distance depends only on the A component of the target.  Writing
theta = arg(A), the five branches are:

  1. A = 0                         -> t = pi
  2. |A| = 1                       -> t = 2*sqrt(|theta|*(2*pi - |theta|))
  3. |theta| = pi*(1 - |A|)/2      -> t = pi*sqrt(1 - |A|^2)
  4. |theta| < pi*(1 - |A|)/2      -> short arc: solve arg_short(beta) = theta
  5. |theta| > pi*(1 - |A|)/2      -> long arc: solve arg_long(beta) = +-pi - theta

Branches 4 and 5 reduce to a single monotone transcendental equation in
the vertical momentum beta.  `solve_arc` solves it in psi = asin(beta/b*),
where b* = |A|/sqrt(1 - |A|^2) is the domain endpoint: in psi the phase
is smooth up to the endpoints and has a closed-form slope, so a
safeguarded Newton iteration (`solve_monotone`) converges in a few steps.
beta and the travel time then follow from psi in closed form.  The
beta-form functions `arg_short`, `arg_long`, `time_short` and `time_long`
state the paper's equations; the tests check the psi form against them.

`distance_from_pair` runs the branches on a unit pair (A, B) given as
four floats; `distance_su2` and `so3_distance.distance_so3` both call it.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import SU2Element, su2_inv, su2_mul

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
_EPS = 2.0 * sys.float_info.epsilon

# Half-width of the classification band around the branch-3 boundary,
# applied to theta.  The psi solve is accurate up to the boundary, so the
# band only has to catch inputs that sit on it to within rounding.
EPS_CASE = 1e-15

# |A| closer than this to 0 or 1 is routed to branches 1 / 2.
ABS_A_EDGE = 1e-12


class DomainError(ValueError):
    """Argument outside the beta-domain or target outside a monotone range."""


class DistanceCase(enum.Enum):
    A_ZERO = "Case1_Azero"
    ABS_A_ONE = "Case2_AbsAone"
    BOUNDARY = "Case3_Boundary"
    SHORT = "Case4_Short"
    LONG = "Case5_Long"


@dataclass(frozen=True)
class DistanceResult:
    """Distance t, the branch used, and the recovered geodesic parameters.

    `beta` / `phi0` are None when the minimizer's parameter is not unique:
    B = 0 leaves phi0 free, and the identity (t = 0) leaves beta free.
    """

    t: float
    case: DistanceCase
    beta: Optional[float]
    phi0: Optional[float]


def _clamped_asin(x: float) -> float:
    # Domain endpoints overshoot [-1, 1] by ~1e-16 in float arithmetic.
    return math.asin(min(1.0, max(-1.0, x)))


def beta_domain_max(abs_a: float) -> float:
    """Endpoint b* = |A|/sqrt(1 - |A|^2) of the admissible beta interval."""
    if not 0.0 < abs_a < 1.0:
        raise DomainError("abs_a must lie in (0, 1)")
    return abs_a / math.sqrt(1.0 - abs_a * abs_a)


def phase_end(abs_a: float, long: bool) -> float:
    """End pi*(1 - |A|)/2 (short arc) or pi*(1 + |A|)/2 (long arc) of the phase's range."""
    return math.pi * ((1.0 + abs_a) if long else (1.0 - abs_a)) / 2.0


def _check_beta(beta: float, abs_a: float) -> tuple[float, bool]:
    # beta clamped to [-b*, b*], and whether |beta| >= b*: there the asin
    # argument hits 1, where roundoff in it is amplified by the infinite
    # derivative, so callers substitute the exact limit values instead.
    bmax = beta_domain_max(abs_a)
    if abs(beta) > bmax + 1e-12:
        raise DomainError(f"|beta| = {abs(beta)} exceeds domain endpoint {bmax}")
    return min(bmax, max(-bmax, beta)), abs(beta) >= bmax


def time_short(beta: float, abs_a: float) -> float:
    """Travel time of the short arc (t < pi/sqrt(1+beta^2)); even in beta."""
    beta, at_end = _check_beta(beta, abs_a)
    if at_end:
        return math.pi * math.sqrt(1.0 - abs_a * abs_a)
    s2 = 1.0 + beta * beta
    return 2.0 / math.sqrt(s2) * _clamped_asin(math.sqrt((1.0 - abs_a * abs_a) * s2))


def time_long(beta: float, abs_a: float) -> float:
    """Travel time of the long arc; even in beta, equals 2*pi/sqrt(1+beta^2) - time_short."""
    beta, at_end = _check_beta(beta, abs_a)
    if at_end:
        return math.pi * math.sqrt(1.0 - abs_a * abs_a)
    s2 = 1.0 + beta * beta
    return (
        2.0
        / math.sqrt(s2)
        * (math.pi - _clamped_asin(math.sqrt((1.0 - abs_a * abs_a) * s2)))
    )


def arg_short(beta: float, abs_a: float) -> float:
    """arg(A) reached by the short arc; odd, strictly increasing in beta.

    Range is [-pi*(1-|A|)/2, pi*(1-|A|)/2].
    """
    beta, at_end = _check_beta(beta, abs_a)
    if at_end:
        return math.copysign(phase_end(abs_a, False), beta)
    s = math.sqrt(1.0 + beta * beta)
    one_m = 1.0 - abs_a * abs_a
    return -(beta / s) * _clamped_asin(math.sqrt(one_m * s * s)) + _clamped_asin(
        beta * math.sqrt(one_m) / abs_a
    )


def arg_long(beta: float, abs_a: float) -> float:
    """Phase reached by the long arc: pi*beta/sqrt(1+beta^2) + arg_short(beta).

    Odd, strictly increasing; range [-pi*(1+|A|)/2, pi*(1+|A|)/2].
    """
    beta, at_end = _check_beta(beta, abs_a)
    if at_end:
        return math.copysign(phase_end(abs_a, True), beta)
    s = math.sqrt(1.0 + beta * beta)
    return math.pi * beta / s + arg_short(beta, abs_a)


def solve_monotone(
    f: Callable[[float], tuple[float, float]],
    half_width: float,
    target: float,
    f_end: float,
    start: Optional[float] = None,
) -> float:
    """Solve f(x) = target for an odd, strictly increasing f on [-half_width, half_width].

    f returns (value, slope); the caller states f(half_width) = f_end, so
    f is never evaluated at the ends.  Safeguarded Newton from `start`
    (when inside the range; else from half_width*target/f_end): the Newton
    step is taken when it lands inside the current bracket and is shorter
    than half the step before last; otherwise the bracket is bisected.
    Stops when the step is at the rounding level of x, or the residual at
    that of f, taken as eps*(|x| + |target|): f is meant to be x plus a
    term of comparable size, as the branch phases of `arc_phase` are.
    Returns +-half_width when |target| = f_end; raises DomainError when
    |target| > f_end (signals misclassification upstream).
    """
    if abs(target) > f_end:
        raise DomainError(f"target {target} outside monotone range [{-f_end}, {f_end}]")
    if abs(target) == f_end:
        return math.copysign(half_width, target)
    lo, hi = -half_width, half_width
    x = start if start is not None and lo < start < hi else half_width * target / f_end
    step = prev = hi - lo
    for _ in range(200):
        value, slope = f(x)
        if abs(value - target) <= _EPS * (abs(x) + abs(target)):
            return x
        if value < target:
            lo = x
        else:
            hi = x
        newton = (value - target) / slope if slope > 0.0 else math.inf
        prev, step = step, newton
        if lo < x - newton < hi and abs(newton) < 0.5 * abs(prev):
            x -= newton
        else:
            step = 0.5 * (hi - lo)
            x = lo + step
        if abs(step) <= _EPS * abs(x):
            break
    return x


def _long_arc_start(abs_a: float, k: float, target: float) -> float:
    """Starting psi of the long-arc solve.

    The long-arc phase is pi*sin(chi) plus the short-arc phase, with
    tan(chi) = beta = |A| sin(psi)/k.  As |A| -> 1 it climbs from 0 to
    nearly pi within |psi| ~ k, so the linear start is far off.  Two
    fixed-point steps on the model pi*sin(chi) + (1 - |A|)*psi land within
    a few percent of the root for |A| >= 1/2, closer as |A| -> 1; for
    small |A| it often gives +-pi/2, and the solve starts linearly.
    """
    psi = target / (1.0 + abs_a)
    for _ in range(2):
        r = (target - (1.0 - abs_a) * psi) / math.pi
        root = abs_a * math.sqrt(max(0.0, (1.0 - r) * (1.0 + r)))
        psi = math.asin(k * r / root) if k * abs(r) < root else math.copysign(HALF_PI, r)
    return psi


def arc_phase(abs_a: float, k2: float, long: bool) -> Callable[[float], tuple[float, float]]:
    """(phase, slope) of the short or long arc as a function of psi = asin(beta/b*).

    arg_short(beta) (arg_long for the long arc) is smooth in psi on
    [-pi/2, pi/2] up to the endpoints.  With k^2 = 1 - |A|^2,
    Q = k^2 + |A|^2 sin^2(psi), w = atan2(sqrt(Q), |A| cos(psi)) and
    v = w (short) or w - pi (long):

        phase(psi)  = psi - |A| sin(psi) v/sqrt(Q)
        phase'(psi) = k^2/Q - |A| k^2 cos(psi) v/Q^(3/2)

    k2 is passed in because callers can read it off the input more
    accurately than 1 - |A|^2, as |B|^2 (on SO(3), of the pair read off C).
    """
    shift = math.pi if long else 0.0

    def phase(psi: float) -> tuple[float, float]:
        s, c = math.sin(psi), math.cos(psi)
        q = k2 + abs_a * abs_a * s * s
        rq = math.sqrt(q)
        v = math.atan2(rq, abs_a * c) - shift
        return psi - abs_a * s * v / rq, k2 / q * (1.0 - abs_a * c * v / rq)

    return phase


def solve_arc(abs_a: float, k2: float, target: float, long: bool) -> tuple[float, float]:
    """(beta, t) of the short or long arc whose phase reaches `target`.

    Solves arc_phase(psi) = target, then beta = |A| sin(psi)/k and
    t = 2k |v|/sqrt(Q) (see `arc_phase`).
    """
    k = math.sqrt(k2)
    start = _long_arc_start(abs_a, k, target) if long else None
    psi = solve_monotone(arc_phase(abs_a, k2, long), HALF_PI, target, phase_end(abs_a, long), start)
    s = math.sin(psi)
    rq = math.sqrt(k2 + abs_a * abs_a * s * s)
    v = math.atan2(rq, abs_a * math.cos(psi)) - (math.pi if long else 0.0)
    return abs_a * s / k, 2.0 * k * abs(v) / rq


def distance_from_pair(a_re: float, a_im: float, b_re: float, b_im: float) -> DistanceResult:
    """Case analysis on the unit pair (A, B); `distance_su2` and `distance_so3` both call it.

    On SO(3) the pair is the covering pair with Re A >= 0, so that
    theta = arg(A) lies in [-pi/2, pi/2]; there the SU(2) test
    |theta| < pi*(1 - |A|)/2 is the paper's SO(3) test
    cos(pi |A|) + cos(2 theta) > 0.
    """
    abs_a = math.hypot(a_re, a_im)
    abs_b = math.hypot(b_re, b_im)

    if abs_a <= ABS_A_EDGE:
        # Branch 1: t = pi, beta = 0, phi0 = arg(B).
        phi0 = math.atan2(b_im, b_re) % TWO_PI
        return DistanceResult(math.pi, DistanceCase.A_ZERO, 0.0, phi0)

    theta = math.atan2(a_im, a_re)

    if abs_a >= 1.0 - ABS_A_EDGE:
        # Branch 2 (B = 0): the geodesic reaches B = 0 at u = t*s/2 = pi,
        # where A = -exp(-i*h) with h = beta*t/2.  So pi*beta/s = +-pi - theta,
        # and beta = (pi - |theta|)/(t/2) takes theta's sign; -beta misses
        # the target.  phi0 is free, and at the identity beta is too.
        half_t = math.sqrt(abs(theta) * (TWO_PI - abs(theta)))
        beta = math.copysign(math.pi - abs(theta), theta) / half_t if half_t else None
        return DistanceResult(2.0 * half_t, DistanceCase.ABS_A_ONE, beta, None)

    k2 = abs_b * abs_b
    boundary = phase_end(abs_a, False)
    if abs(abs(theta) - boundary) <= EPS_CASE:
        # Branch 3: boundary between the short- and long-arc regimes.
        # arg_short is odd and increasing and reaches +-pi*(1 - |A|)/2 at
        # beta = +-b*, so beta takes theta's sign.
        t = math.pi * abs_b
        beta = math.copysign(beta_domain_max(abs_a), theta)
        case = DistanceCase.BOUNDARY
    elif abs(theta) < boundary:
        # Branch 4: short arc, monotone target theta.
        beta, t = solve_arc(abs_a, k2, theta, long=False)
        case = DistanceCase.SHORT
    else:
        # Branch 5: long arc; the system's phase target is pi - theta for
        # theta >= 0 and -pi - theta otherwise.
        target = math.pi - theta if theta >= 0.0 else -math.pi - theta
        beta, t = solve_arc(abs_a, k2, target, long=True)
        case = DistanceCase.LONG

    # Past the branch-2 test |B| >= 1.4e-6, so arg(B) is well defined.
    phi0 = (math.atan2(b_im, b_re) - beta * t / 2.0) % TWO_PI
    return DistanceResult(t, case, beta, phi0)


def distance_su2(g: SU2Element) -> DistanceResult:
    """Distance from g to the identity, with branch label and geodesic parameters."""
    return distance_from_pair(g.a_re, g.a_im, g.b_re, g.b_im)


def distance_su2_pair(g: SU2Element, h: SU2Element) -> float:
    """Distance between two elements via left-invariance: d(g, h) = d(e, g^-1 h)."""
    return distance_su2(su2_mul(su2_inv(g), h)).t

"""Exact sub-Riemannian distance from the identity on SU(2).

The distance depends only on the A component of the target.  Writing
theta = arg(A), the five branches are:

  1. A = 0                         -> t = pi
  2. B = 0 (|A| = 1)               -> t = 2*sqrt(|theta|*(2*pi - |theta|))
  3. |theta| = pi*(1 - |A|)/2      -> t = pi*sqrt(1 - |A|^2)
  4. |theta| < pi*(1 - |A|)/2      -> short arc: solve arg_short(beta) = theta
  5. |theta| > pi*(1 - |A|)/2      -> long arc: solve arg_long(beta) = +-pi - theta

Branches 1 and 2 are taken on exact zeros only (B subnormal counts as
zero), so every other pair, however close to |A| = 0 or 1, goes through
an arc.  Branches 4 and 5 reduce to one monotone equation G(x) = |theta|
in x = |asin(beta/b*)| in [0, pi/2], where b* = |A|/|B| is the domain
endpoint; beta takes theta's sign.  `arc_equation` writes G for either
arc as a sum of terms that do not cancel (G is arg_short on the short
arc and pi - arg_long on the long one), smooth up to the endpoints and
with a closed-form slope, so a safeguarded Newton iteration
(`solve_monotone`) converges in a few steps, and beta and the travel time
come out of the same evaluation.  The beta-form functions `arg_short`,
`arg_long`, `time_short` and `time_long` state the paper's equations;
the tests check the x form against them.

`distance_from_pair` runs the branches on a unit pair (A, B) given as
four floats; `distance_su2` and `so3_distance.distance_so3` both call it.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import SU2Element, _mod_tau, su2_inv, su2_mul

_EPS = 2.0 * sys.float_info.epsilon
_FLOAT_MIN = sys.float_info.min
_HALF_PI = math.pi / 2

# Half-width of the classification band around the branch-3 boundary,
# relative to it: |theta| within EPS_CASE*pi*(1 - |A|)/2 of the boundary
# takes its closed form.  The arc solve is accurate up to the boundary,
# so the band only has to catch inputs that sit on it to within rounding.
EPS_CASE = 1e-15


class DomainError(ValueError):
    """Argument outside the beta-domain or target outside a monotone range."""


class DistanceCase(enum.Enum):
    A_ZERO = "Case1_Azero"
    ABS_A_ONE = "Case2_AbsAone"
    BOUNDARY = "Case3_Boundary"
    SHORT = "Case4_Short"
    LONG = "Case5_Long"


# The members as plain module names: a member read through the enum class
# costs about 0.10 us against 0.02 us for a plain class attribute, and
# `distance_from_pair` reads one per call.
_A_ZERO, _ABS_A_ONE, _BOUNDARY = DistanceCase.A_ZERO, DistanceCase.ABS_A_ONE, DistanceCase.BOUNDARY
_SHORT, _LONG = DistanceCase.SHORT, DistanceCase.LONG


@dataclass(frozen=True, init=False)
class DistanceResult:
    """Distance t, the branch used, and the recovered geodesic parameters.

    `beta` / `phi0` are None when the minimizer's parameter is not unique:
    B = 0 leaves phi0 free, and the identity (t = 0) leaves beta free.
    """

    t: float
    case: DistanceCase
    beta: Optional[float]
    phi0: Optional[float]

    def __init__(self, t: float, case: DistanceCase, beta: Optional[float], phi0: Optional[float]):
        d = self.__dict__
        d["t"] = t
        d["case"] = case
        d["beta"] = beta
        d["phi0"] = phi0


def _clamped_asin(x: float) -> float:
    # Domain endpoints overshoot [-1, 1] by ~1e-16 in float arithmetic.
    return math.asin(min(1.0, max(-1.0, x)))


def beta_domain_max(abs_a: float) -> float:
    """Endpoint b* = |A|/sqrt(1 - |A|^2) of the admissible beta interval."""
    if not 0.0 < abs_a < 1.0:
        raise DomainError("abs_a must lie in (0, 1)")
    return abs_a / math.sqrt(1.0 - abs_a * abs_a)


def _check_beta(beta: float, abs_a: float) -> tuple[float, bool]:
    # beta clamped to [-b*, b*], and whether |beta| >= b*: there the asin
    # argument hits 1, where roundoff in it is amplified by the infinite
    # derivative, so callers substitute the exact limit values instead.
    # Written as `not <=` so that a NaN beta raises.  b* is read off |A|
    # alone, and 1 - |A|^2 carries a relative rounding of about
    # eps/(1 - |A|^2) that a beta built from |B| does not share (branch 3's
    # |A|/|B|, or an arc solve's): 4 eps/(1 - |A|^2) of b* is allowed for
    # it, on top of 1e-12.
    bmax = beta_domain_max(abs_a)
    if not abs(beta) <= bmax * (1.0 + 2.0 * _EPS / (1.0 - abs_a * abs_a)) + 1e-12:
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
    return 2.0 / math.sqrt(s2) * (math.pi - _clamped_asin(math.sqrt((1.0 - abs_a * abs_a) * s2)))


def arg_short(beta: float, abs_a: float) -> float:
    """arg(A) reached by the short arc; odd, strictly increasing in beta.

    Range is [-pi*(1-|A|)/2, pi*(1-|A|)/2].
    """
    beta, at_end = _check_beta(beta, abs_a)
    if at_end:
        return math.copysign(math.pi * (1.0 - abs_a) / 2.0, beta)
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
        return math.copysign(math.pi * (1.0 + abs_a) / 2.0, beta)
    s = math.sqrt(1.0 + beta * beta)
    return math.pi * beta / s + arg_short(beta, abs_a)


def solve_monotone(f: Callable[[float], tuple], target: float, f_ends: tuple[float, float],
                   start: float) -> tuple[float, float]:
    """Solve f(x) = target for a strictly monotone f on [0, pi/2]; returns f's point at the root.

    f(x) returns (value, slope, size, point), size being the sum of the
    magnitudes of value's terms (see `arc_equation`), and the caller
    states (f(0), f(pi/2)) = f_ends.  Raises DomainError when the target
    is outside f's range, f_ends read as rising when f(pi/2) > f(0) and
    as falling otherwise (signals misclassification upstream; a NaN
    target raises too).  Safeguarded Newton from `start`, clamped to
    [0, pi/2] when it lies outside (a NaN start to 0): the Newton step
    is taken when it lands inside the current bracket and is shorter
    than half the step before last; otherwise the bracket is bisected.
    Stops when the residual is within the rounding of value's terms,
    eps*(size + |target|), or when the next step is within the rounding
    of x, as a bisection is once the bracket is a few ulps of x wide.
    """
    f_lo, f_hi = f_ends
    if f_hi > f_lo:
        sign = 1.0
        in_range = f_lo <= target <= f_hi
    else:
        sign = -1.0
        in_range = f_hi <= target <= f_lo
    if not in_range:
        raise DomainError(f"target {target} outside monotone range {f_ends}")
    x = start
    if not 0.0 < x < _HALF_PI:
        x = _HALF_PI if x >= _HALF_PI else 0.0
    lo, hi = 0.0, _HALF_PI
    step = prev = _HALF_PI
    abs_target = abs(target)
    for _ in range(200):
        value, slope, size, point = f(x)
        residual = sign * (value - target)
        if abs(residual) <= _EPS * (size + abs_target):
            break
        lo, hi = (x, hi) if residual < 0.0 else (lo, x)
        newton = residual / (sign * slope) if sign * slope > 0.0 else math.inf
        prev, step = step, newton
        if not (lo < x - newton < hi and abs(newton) < 0.5 * abs(prev)):
            step = x - 0.5 * (lo + hi)
        if abs(step) <= _EPS * x:
            break
        x -= step
    return point


def _long_arc_start(abs_a: float, k: float, abs_theta: float) -> float:
    """Starting x of the long-arc solve.

    The long-arc G is about pi/w - (1 - |A|)*x (see `arc_equation`).  As
    |A| -> 1 it falls from pi to near 0 within x ~ k, so the linear start
    is far off.  Two fixed-point steps on that model, with 1 - |A| =
    k^2/(1 + |A|), land within a few percent of the root for |A| >= 1/2,
    closer as |A| -> 1.  For small |A| a step often leaves (0, pi/2), and
    the solve starts linearly.
    """
    x = linear = (math.pi - abs_theta) / (1.0 + abs_a)
    one_m_abs_a = k * k / (1.0 + abs_a)
    for _ in range(2):
        q = (abs_theta + one_m_abs_a * x) / math.pi  # 1/w = 1 - beta/s
        root = abs_a * math.sqrt(q * (2.0 - q))
        if not 0.0 < k * (1.0 - q) < root:
            return linear
        x = math.asin(k * (1.0 - q) / root)
    return x


def arc_equation(abs_a: float, k: float, long: bool) -> Callable[[float], tuple]:
    """The short- or long-arc equation G(x) = |theta| as a function for `solve_monotone`.

    x = |psi| = |asin(beta/b*)| in [0, pi/2], with b* = |A|/k and k = |B|.
    With beta = |A| sin(x)/k, s = hypot(1, beta), w = s*(s + beta) =
    1/(1 - beta/s), u = atan2(k*s, |A| cos x) and, as one atan2,
    d = u - x = atan2(k cos(x)/(s + beta), |A| cos^2(x) + k*s sin(x)):

        short arc: G = u/w - d,         t = 2u/s,        G' = (1 - u |A| cos(x)/(k s))/s^2
        long arc:  G = d + (pi - u)/w,  t = 2(pi - u)/s, G' = -(1 + (pi - u) |A| cos(x)/(k s))/s^2

    G is arg_short(beta) on the short arc, rising from 0 to the boundary
    pi*(1 - |A|)/2, and pi - arg_long(beta) on the long one, falling to it
    from pi; no terms of size pi or u cancel.  Returns (G, G', size,
    (beta, t)), size being the sum of G's terms: u/w + d, or G itself.
    """

    def equation(x: float) -> tuple:
        sx, cx = math.sin(x), math.cos(x)
        ks = math.hypot(k, abs_a * sx)
        s, beta = ks / k, abs_a * sx / k
        w = s * (s + beta)
        u = math.atan2(ks, abs_a * cx)
        d = math.atan2(k * cx / (s + beta), abs_a * cx * cx + ks * sx)
        rate = abs_a * cx / ks  # (dbeta/dx)/s
        if long:
            g = d + (math.pi - u) / w
            return g, -(1.0 + (math.pi - u) * rate) / (s * s), g, (beta, 2.0 * (math.pi - u) / s)
        uw = u / w
        return uw - d, (1.0 - u * rate) / (s * s), uw + d, (beta, 2.0 * u / s)

    return equation


def distance_from_pair(a_re: float, a_im: float, b_re: float, b_im: float) -> DistanceResult:
    """Case analysis on the unit pair (A, B); `distance_su2` and `distance_so3` both call it.

    Branches 1 and 2 run on the exact zeros A = 0 and B = 0, the latter
    widened to subnormal |B|, where b* = |A|/|B| would overflow.  On
    SO(3) the pair is the covering pair with Re A >= 0, so that
    theta = arg(A) lies in [-pi/2, pi/2]; there the SU(2) test
    |theta| < pi*(1 - |A|)/2 is the paper's SO(3) test
    cos(pi |A|) + cos(2 theta) > 0.
    """
    abs_a = math.hypot(a_re, a_im)
    abs_b = math.hypot(b_re, b_im)

    if abs_a == 0.0:
        # Branch 1: t = pi, beta = 0, phi0 = arg(B).
        phi0 = _mod_tau(math.atan2(b_im, b_re))
        return DistanceResult(math.pi, _A_ZERO, 0.0, phi0)

    theta = math.atan2(a_im, a_re)
    abs_theta = abs(theta)

    if abs_b < _FLOAT_MIN:
        # Branch 2 (B = 0): the geodesic reaches B = 0 at u = t*s/2 = pi,
        # where A = -exp(-i*h) with h = beta*t/2.  So pi*beta/s = +-pi - theta,
        # and beta = (pi - |theta|)/(t/2) takes theta's sign; -beta misses
        # the target.  phi0 is free, and at the identity beta is too.
        # A subnormal |B| moves t by less than the rounding of pi.
        half_t = math.sqrt(abs_theta * (math.tau - abs_theta))
        beta = math.copysign(math.pi - abs_theta, theta) / half_t if half_t else None
        return DistanceResult(2.0 * half_t, _ABS_A_ONE, beta, None)

    # |theta| over the boundary pi*|B|^2/(2(1 + |A|)), one factor |B| at
    # a time, so that the ratio cannot underflow as |B|^2 would.
    edge_per_b = math.pi * abs_b / (2.0 * (1.0 + abs_a))
    ratio = abs_theta / abs_b / edge_per_b
    if abs(ratio - 1.0) <= EPS_CASE:
        # Branch 3: boundary between the short- and long-arc regimes.  The odd,
        # increasing arg_short ends there at beta = +-b*: beta takes theta's sign.
        t = math.pi * abs_b
        beta = math.copysign(abs_a / abs_b, theta)
        case = _BOUNDARY
    else:
        # Branch 4 (short arc, ratio < 1) or 5 (long arc); beta takes
        # theta's sign on both.
        long = ratio > 1.0
        ends = (math.pi if long else 0.0, edge_per_b * abs_b)
        start = _long_arc_start(abs_a, abs_b, abs_theta) if long else _HALF_PI * ratio
        abs_beta, t = solve_monotone(arc_equation(abs_a, abs_b, long), abs_theta, ends, start)
        beta = math.copysign(abs_beta, theta)
        case = _LONG if long else _SHORT

    # |B| is a normal float here, so arg(B) is well defined.
    phi0 = _mod_tau(math.atan2(b_im, b_re) - beta * t / 2.0)
    return DistanceResult(t, case, beta, phi0)


def distance_su2(g: SU2Element) -> DistanceResult:
    """Distance from g to the identity, with branch label and geodesic parameters."""
    return distance_from_pair(g.a_re, g.a_im, g.b_re, g.b_im)


def distance_su2_pair(g: SU2Element, h: SU2Element) -> float:
    """Distance between two elements via left-invariance: d(g, h) = d(e, g^-1 h)."""
    return distance_su2(su2_mul(su2_inv(g), h)).t

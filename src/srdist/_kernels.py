"""The shooting oracle's scan of the phase along a target's fibre loop.

On the geodesic of momentum beta, with s = sqrt(1 + beta^2), u = t*s/2
and h = beta*t/2 = (beta/s)*u,

    A = (cos(u) + i*(beta/s)*sin(u)) * exp(-i*h),
    B = (sin(u)/s) * exp(i*(h + phi0)).

A minimizer on SU(2) stops at u = pi, the cut time.  For a target with
a = |A|, b = |B| > 0 and b* = a/b, phi0 = arg(B_target) - h puts B on
the target's phase, and the geodesics that reach |B| = b form one loop:

    beta = b* sin(tau),  cos(u) = a cos(tau),  sin(u) = b*s.

There beta*sin(u)/s = a sin(tau), so A = a*exp(i*psi), psi = tau - h:
only the loop phase psi, which depends on a and b alone, is left to
match arg(A_target) mod 2*pi.  Each half of the loop is walked by tau'
in [-pi/2, pi/2]: tau = tau' is branch 0 (u <= pi/2) and tau = tau' + pi
branch 1, where u -> pi - u and beta -> -beta, so psi_1 = psi_0 +
pi*(1 + beta/s) in branch 0's beta.  The halves meet at tau' = +-pi/2;
psi gains 2*pi around the loop and lies in (-pi, 5*pi/2).  psi rises
strictly along the loop, since dpsi/dtau' = (sin u - u cos u)/(b s^3)
on branch 0 (u -> pi - u on branch 1) is positive; `verify.check_oracle`
counts one crossing per lift, and the oracle does not assume it.

With B = 0 (the Loc stratum) there is no loop: a minimizer reaches
B = 0 only at t = 0 or at its cut time u = pi, where A =
-exp(-i*pi*beta/s) for every phi0.  The oracle inverts that phase in
closed form (`oracle._cut_root`) and scans nothing.

The scan is one plain-float loop over the 17 tau' samples, whose cos,
|sin| and sign are tuples built at import: at this size each numpy call
costs more than the arithmetic it would run.
"""
from __future__ import annotations

import math
from math import atan2, hypot, pi

# Even steps in tau' per half loop, ends included.
LOOP_FLOOR = 16
_STEP = pi / LOOP_FLOOR
_TAU = tuple(k * _STEP - 0.5 * pi for k in range(LOOP_FLOOR + 1))
# (cos tau', |sin tau'|, sigma = sign of beta, pi*(1 + sigma)) per sample.
# Both halves take the ends at cos(tau') = 0, so they agree there.
_TRIG = tuple((0.0 if abs(x) == 0.5 * pi else math.cos(x), abs(math.sin(x)), math.copysign(1.0, x),
               2.0 * pi if x >= 0.0 else 0.0) for x in _TAU)


def scan_su2(a: float, b: float) -> tuple[tuple, tuple]:
    """Samples x and the loop phase psi, one row per branch, on the loop of |A| = a, |B| = b > 0.

    x is tau' at LOOP_FLOOR + 1 fixed points, a tuple built at import and
    shared by every call; psi is written as the oracle's 1-D solve writes
    it (`oracle._loop_phase`), without cancellation, as two lists of
    Python floats.  At A = 0 the loop is the one point beta = 0, t = pi,
    and psi = tau' (+ pi on branch 1) is the arbitrary phase of A = 0.
    """
    ratio = a / b
    row0, row1 = [], []
    for c, abs_sin, sigma, shift in _TRIG:
        abs_beta = ratio * abs_sin
        s = hypot(1.0, abs_beta)
        s_plus = s + abs_beta
        w = s * s_plus
        ac, bs = a * c, b * s
        u = atan2(bs, ac)
        d = atan2(b * c / s_plus, ac * c + bs * abs_sin)
        row0.append(sigma * (u / w - d))
        row1.append(sigma * ((u - pi) / w - d) + shift)
    return _TAU, (row0, row1)

"""The shooting oracle's numpy scan of the phase along a target's fibre loop.

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
"""
from __future__ import annotations

import math

import numpy as np

# Even steps per half loop, ends included: in tau', or in atan|beta| on B = 0.
LOOP_FLOOR = 16
_TAU = np.linspace(-0.5 * math.pi, 0.5 * math.pi, LOOP_FLOOR + 1)
_SIN, _COS = np.sin(_TAU), np.cos(_TAU)
# Both halves take the ends at cos(tau') = 0, so they agree there.
_COS[0] = _COS[-1] = 0.0
# tan(pi/2) is a finite 1.6e16, where beta/s = 1 and psi is 0 to the bit.
_LOC_X = np.tan(np.linspace(0.0, 0.5 * math.pi, LOOP_FLOOR + 1))
_LOC_PSI = math.pi * (1.0 - _LOC_X / np.hypot(1.0, _LOC_X)) * np.array([[1.0], [-1.0]])
_TAU.flags.writeable = _LOC_X.flags.writeable = _LOC_PSI.flags.writeable = False


def scan_su2(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples x and the loop phase psi, one row per branch, on the loop of |A| = a, |B| = b.

    x is tau' at LOOP_FLOOR + 1 fixed points; psi is written as the
    oracle's 1-D solve writes it (`oracle._loop_phase`), without
    cancellation.  At A = 0 the loop is the one point beta = 0, t = pi,
    and psi = tau' (+ pi on branch 1) is the arbitrary phase of A = 0.
    With B = 0 (the Loc stratum) the loop is the cut time u = pi of every
    beta, where A = -exp(-i*pi*beta/s) = exp(i*psi) for any phi0: x is
    |beta|, row 0 is beta = x and row 1 beta = -x, written as psi - 2*pi,
    so both rows end at psi = 0 and a level near 0 is not rounded at
    ulp(2*pi).
    """
    if b == 0.0:
        return _LOC_X, _LOC_PSI
    beta = (a / b) * _SIN
    s = np.hypot(1.0, beta)
    s_plus = s + np.abs(beta)
    w, sigma = s * s_plus, np.copysign(1.0, beta)
    u = np.arctan2(b * s, a * _COS)
    d = np.arctan2(b * _COS / s_plus, a * _COS * _COS + b * s * np.abs(_SIN))
    psi = sigma * (u / w - d)
    return _TAU, np.array((psi, sigma * ((u - math.pi) / w - d) + math.pi * (1.0 + sigma)))

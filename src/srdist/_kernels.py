"""The shooting oracle's numpy scan over beta.

On the geodesic of momentum beta, with s = sqrt(1 + beta^2), u = t*s/2
and h = beta*t/2,

    A = (cos(u) + i*(beta/s)*sin(u)) * exp(-i*h),
    B = (sin(u)/s) * exp(i*(h + phi0)).

A does not involve phi0, and a minimizer on SU(2) stops at u = pi, the
cut time.  So once beta is fixed the target's B pins the rest: phi0 =
arg(B_target) - h puts B on the target's phase, and sin(u) = s*|B_target|
leaves two arrival times, u = asin(s*|B_target|) and pi minus it.  The
scan evaluates A at both, one numpy pass over the beta rows with no t
axis, and reports how far each lands from the target.
"""
from __future__ import annotations

import math

import numpy as np

# cos(u) >= 0 on branch 0 (u <= pi/2) and <= 0 on branch 1.
_BRANCH_SIGN = np.array([[1.0], [-1.0]])


def scan_su2(
    target: tuple[float, float, float, float], betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deviation from an SU(2) target, t and phi0 on both branches of every beta row.

    target is (a_re, a_im, b_re, b_im).  Branch 0 takes u = asin(s|B|) and
    branch 1 takes u = pi - asin(s|B|), so t = 2u/s and the endpoint's B
    equals the target's.  A row with s|B| >= 1 cannot reach |B|: it takes
    u = pi/2, where |B(t)| = 1/s comes closest, on branch 0 only.  The
    deviation is the max-norm distance of the endpoint from the target;
    its B part is (|B| - 1/s)*b_unit on such rows and 0 on the others,
    b_unit being the max-norm of a unit complex number with B's phase.
    With B_target = 0 arg(B_target) is taken as 0 and branch 0 is t = 0,
    which is dropped.  A branch that does not exist has deviation +inf.

    Returns (dev, t, phi0), each of shape (2, len(betas)); phi0 is not
    reduced mod 2*pi and lies in (-2*pi, 2*pi).
    """
    a_re, a_im, b_re, b_im = target
    theta, b_abs = math.atan2(b_im, b_re), math.hypot(b_re, b_im)
    b_unit = max(abs(math.cos(theta)), abs(math.sin(theta)))
    s = np.sqrt(1.0 + betas * betas)
    su = np.minimum(s * b_abs, 1.0)
    cu = np.sqrt((1.0 - su) * (1.0 + su)) * _BRANCH_SIGN
    u = np.empty((2, len(betas)))
    np.arcsin(su, out=u[0])
    np.subtract(math.pi, u[0], out=u[1])
    c = betas / s
    h = c * u
    sh, ch = np.sin(h), np.cos(h)
    csu = c * su
    dev = np.abs(csu * sh + cu * ch - a_re)
    np.maximum(dev, np.abs(csu * ch - cu * sh - a_im), out=dev)
    np.maximum(dev, np.maximum(b_abs - 1.0 / s, 0.0) * b_unit, out=dev)
    if b_abs == 0.0:
        dev[0] = np.inf
    dev[1, su == 1.0] = np.inf
    return dev, (2.0 / s) * u, theta - h

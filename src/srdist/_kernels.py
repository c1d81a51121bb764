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

An SO(3) target has two SU(2) lifts, g and -g.  They share |B|, so every
row quantity (s, u, h, their sines and cosines, the endpoint's A and
|B| - 1/s) is the same for both; only the target's A changes sign and
phi0 moves by pi.  One call scans all the lifts from one set of rows.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# cos(u) >= 0 on branch 0 (u <= pi/2) and <= 0 on branch 1.
_BRANCH_SIGN = np.array([[1.0], [-1.0]])


def scan_su2(
    lifts: Sequence[tuple[float, float, float, float]], betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deviation from each lift, t and phi0 on both branches of every beta row.

    Each lift is (a_re, a_im, b_re, b_im): one for an SU(2) target, g and
    -g for an SO(3) one.  The lifts must share |B| exactly, or ValueError
    is raised.  Branch 0 takes u = asin(s|B|) and branch 1 takes u = pi -
    asin(s|B|), so t = 2u/s and the endpoint's |B| equals the target's.  A
    row with s|B| >= 1 cannot reach |B|: it takes u = pi/2, where |B(t)| =
    1/s comes closest, on branch 0 only.  The deviation is the max-norm
    distance of the endpoint from the lift; its B part is
    (|B| - 1/s)*b_unit on such rows and 0 on the others, b_unit being the
    max-norm of a unit complex number with the lift's B phase.  With B = 0
    arg(B) is taken as 0 and branch 0 is t = 0, which is dropped.  A
    branch that does not exist has deviation +inf.  Each lift's rows are
    bit for bit those of a scan of that lift alone.

    Returns (dev, t, phi0): dev and phi0 of shape (len(lifts), 2,
    len(betas)), t of shape (2, len(betas)), shared by the lifts.  phi0 is
    not reduced mod 2*pi and lies in (-2*pi, 2*pi).
    """
    b_abs = math.hypot(lifts[0][2], lifts[0][3])
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
    end_re, end_im = csu * sh + cu * ch, csu * ch - cu * sh
    b_floor = np.maximum(b_abs - 1.0 / s, 0.0)
    # Everything above is shared by the lifts; each lift adds its A and B phase.
    dev = np.empty((len(lifts), 2, len(betas)))
    phi0 = np.empty_like(dev)
    for k, (a_re, a_im, b_re, b_im) in enumerate(lifts):
        if math.hypot(b_re, b_im) != b_abs:
            raise ValueError("the lifts must share |B|")
        theta = math.atan2(b_im, b_re)
        np.abs(end_re - a_re, out=dev[k])
        np.maximum(dev[k], np.abs(end_im - a_im), out=dev[k])
        np.maximum(dev[k], b_floor * max(abs(math.cos(theta)), abs(math.sin(theta))), out=dev[k])
        np.subtract(theta, h, out=phi0[k])
    if b_abs == 0.0:
        dev[:, 0] = np.inf
    dev[:, 1, su == 1.0] = np.inf
    return dev, (2.0 / s) * u, phi0

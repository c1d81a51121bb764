"""The shooting oracle's numpy scan along the target's fibre loop.

On the geodesic of momentum beta, with s = sqrt(1 + beta^2), u = t*s/2
and h = beta*t/2 = (beta/s)*u,

    A = (cos(u) + i*(beta/s)*sin(u)) * exp(-i*h),
    B = (sin(u)/s) * exp(i*(h + phi0)).

A minimizer on SU(2) stops at u = pi, the cut time.  For a target with
a = |A|, b = |B| > 0 and b* = a/b, phi0 = arg(B_target) - h puts B on
the target's phase, and the geodesics that reach |B| = b form one loop:

    beta = b* sin(tau),  cos(u) = a cos(tau),  sin(u) = b*s.

There beta*sin(u)/s = a sin(tau), so A = a*exp(i*(tau - h)): |A| = a,
and only the phase of A is left to match.  Each half of the loop is
walked by tau' in [-pi/2, pi/2]: tau = tau' is branch 0 (u <= pi/2) and
tau = tau' + pi branch 1; the halves meet at tau' = +-pi/2.
"""
from __future__ import annotations

import math

import numpy as np

# Steps of the tau' samples spread evenly over each half loop, ends
# included, whatever the grid: a short loop (b* below the row spacing)
# holds no grid row at all.
LOOP_FLOOR = 16
_FLOOR_SIN = np.sin(np.linspace(-0.5 * math.pi, 0.5 * math.pi, LOOP_FLOOR + 1))
# Branch 1's u is pi minus branch 0's.
_BRANCH_SHIFT = np.array([[0.0], [math.pi]])


def scan_su2(target: tuple, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau' and X + iY = A_end * conj(A_target) at sorted points of the target's loop.

    The points are the grid rows with |beta| < b* (mirrored to -beta on
    branch 1) and LOOP_FLOOR + 1 points spread evenly in tau', ends
    included, on both branches: X and Y have shape (2, len(tau')).  A is
    evaluated by the endpoint formulas above; its phase mismatch against
    the lift -g is that of -(X + iY), so one scan serves both lifts.
    target needs A != 0.  With B = 0 (the Loc stratum) the loop is the
    cut time u = pi of every row, where B = 0 for any phi0: the rows
    replace tau', and X and Y have one row, for branch 1.
    """
    a_re, a_im, b_re, b_im = target
    a, b = math.hypot(a_re, a_im), math.hypot(b_re, b_im)
    if b == 0.0:
        z = -np.exp(-1j * math.pi * betas / np.hypot(1.0, betas))[None] * complex(a_re, -a_im)
        return betas, z.real, z.imag
    b_star = a / b
    # The rows are ascending: those with |beta| < b* are one slice.
    lo, hi = np.searchsorted(betas, (-b_star, b_star))
    st = np.sort(np.concatenate((betas[lo:hi] / b_star, _FLOOR_SIN)))
    tau = np.arcsin(st)
    ct = np.cos(tau)
    # Both halves take the ends at cos(tau') = 0, so they agree there.
    ct[0] = ct[-1] = 0.0
    beta = b_star * st
    s = np.hypot(1.0, beta)
    c = beta / s
    su, cu = b * s, a * ct
    # Branch 1 negates cos(u) and beta, so u -> pi - u and h = c*u ->
    # c*(u - pi), and cos(u) + i*c*sin(u) changes sign: exp(-i*(h + pi)).
    h = c * (np.arctan2(su, cu) - _BRANCH_SHIFT) + _BRANCH_SHIFT
    z = ((cu + 1j * (c * su)) * complex(a_re, -a_im)) * np.exp(-1j * h)
    return tau, z.real, z.imag

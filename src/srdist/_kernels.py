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
psi gains 2*pi around the loop and lies in (-pi, 5*pi/2).  The scan only
places level crossings, to a few ulps of 2*pi; the oracle's 1-D solve
writes psi without cancellation.
"""
from __future__ import annotations

import math

import numpy as np

# Steps of the tau' samples spread evenly over each half loop, ends
# included, whatever the grid: a short loop (b* below the row spacing)
# holds no grid row at all.
LOOP_FLOOR = 16
_FLOOR_SIN = np.sin(np.linspace(-0.5 * math.pi, 0.5 * math.pi, LOOP_FLOOR + 1))


def scan_su2(a: float, b: float, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau' and the loop phase psi at sorted points of the loop of |A| = a > 0, |B| = b.

    The points are the grid rows with |beta| < b* (mirrored to -beta on
    branch 1) and LOOP_FLOOR + 1 points spread evenly in tau', ends
    included, on both branches: psi has shape (2, len(tau')).  With
    B = 0 (the Loc stratum) the loop is the cut time u = pi of every
    row, where B = 0 for any phi0 and A = -exp(-i*pi*beta/s): the rows
    replace tau', and psi = pi*(1 - beta/s) has one row.
    """
    if b == 0.0:
        return betas, math.pi * (1.0 - betas / np.hypot(1.0, betas))[None]
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
    psi = tau - c * np.arctan2(b * s, a * ct)
    return tau, np.array((psi, psi + (math.pi + math.pi * c)))

"""The shooting oracle's numpy grid scan over (beta, t).

A geodesic's endpoint depends on phi0 only through the phase of B:
B = (sin(u)/s) * exp(i*(beta*t/2 + phi0)), and A does not involve phi0.
So for every (beta, t) the phi0 bringing B closest to the target is
known in closed form, and the scan needs no phi0 axis.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Rows of beta evaluated at once; bounds the scan's temporaries to a few
# (32, n_t) arrays whatever the grid size.
_BETA_BLOCK = 32


def scan_su2(
    target: np.ndarray, betas: np.ndarray, n_t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-beta best deviation from an SU(2) target, its t and its phi0.

    target is (a_re, a_im, b_re, b_im).  For each beta, t runs over
    k * 2*pi / (s * n_t), k = 1..n_t, with s = sqrt(1 + beta^2).  At each
    (beta, t) phi0 is set so that B has the target's phase,
    phi0 = arg(B_target) - beta*t/2, which minimizes |B - B_target| since
    |B| = sin(u)/s >= 0 for u = t*s/2 <= pi.  The deviation is the
    max-norm distance of that endpoint from the target.  With
    B_target = 0 every phi0 is equally good and arg(B_target) is taken
    as 0.

    Returns (dev, t_best, phi0), each of shape (len(betas),), phi0 in
    [0, 2*pi).
    """
    a_re, a_im, b_re, b_im = (float(v) for v in target)
    theta = math.atan2(b_im, b_re)
    b_abs = math.hypot(b_re, b_im)
    # max-norm of a unit complex number with the target's phase
    b_unit = max(abs(math.cos(theta)), abs(math.sin(theta)))
    betas = np.asarray(betas, dtype=float)
    dev = np.empty(len(betas))
    t_best = np.empty_like(dev)
    phi0 = np.empty_like(dev)
    k = np.arange(1, n_t + 1)
    for start in range(0, len(betas), _BETA_BLOCK):
        beta = betas[start : start + _BETA_BLOCK, None]
        s = np.sqrt(1.0 + beta * beta)
        ts = k * (TWO_PI / s / n_t)
        h = ts * (beta / 2.0)
        u = ts * (s / 2.0)
        su, cu = np.sin(u), np.cos(u)
        sh, ch = np.sin(h), np.cos(h)
        bs = (beta / s) * su
        d = np.abs(bs * sh + cu * ch - a_re)
        np.maximum(d, np.abs(bs * ch - cu * sh - a_im), out=d)
        np.maximum(d, np.abs(su / s - b_abs) * b_unit, out=d)
        idx = np.argmin(d, axis=1)
        rows = np.arange(len(idx))
        block = slice(start, start + len(idx))
        dev[block] = d[rows, idx]
        t_best[block] = ts[rows, idx]
        phi0[block] = np.mod(theta - h[rows, idx], TWO_PI)
    return dev, t_best, phi0

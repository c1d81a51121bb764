"""The shooting oracle's numpy grid scan over (beta, t).

A geodesic's endpoint depends on phi0 only through the phase of B:
B = (sin(u)/s) * exp(i*(beta*t/2 + phi0)), and A does not involve phi0.
So for every (beta, t) the phi0 bringing B closest to the target is
known in closed form, and the scan needs no phi0 axis.

Every beta row is evaluated on its own: a row's result does not depend
on which other rows are scanned with it, so a caller may scan any subset
of rows in any order.  `row_bounds` is a per-row lower bound on the
scan's deviation, computed with the scan's own float operations, which
lets the caller skip rows that cannot come close to the target.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Rows of beta evaluated at once; bounds the scan's temporaries to a few
# (32, n_t) arrays whatever the grid size.
_BETA_BLOCK = 32


def _speed(beta: np.ndarray) -> np.ndarray:
    """s = sqrt(1 + beta^2), the rate of u = t*s/2."""
    return np.sqrt(1.0 + beta * beta)


def _b_terms(target: np.ndarray) -> tuple[float, float, float]:
    """(arg B, |B|, max-norm of a unit complex number with B's phase) of a target."""
    b_re, b_im = float(target[2]), float(target[3])
    theta = math.atan2(b_im, b_re)
    return theta, math.hypot(b_re, b_im), max(abs(math.cos(theta)), abs(math.sin(theta)))


def row_bounds(target: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Per-beta lower bound on `scan_su2`'s deviation: max(|B| - 1/s, 0) * b_unit.

    On every row |B(t)| = sin(u)/s <= 1/s.  The bound is exact in floats,
    not only in reals: it uses the scan's s, |B| and b_unit, fl(sin u) <= 1
    and rounding is monotone, so fl(sin(u)/s) <= fl(1/s) and the scan's B
    term |sin(u)/s - |B|| * b_unit is at least the bound on every cell.
    """
    _, b_abs, b_unit = _b_terms(target)
    s = _speed(np.asarray(betas, dtype=float))
    return np.maximum(b_abs - 1.0 / s, 0.0) * b_unit


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
    a_re, a_im = float(target[0]), float(target[1])
    theta, b_abs, b_unit = _b_terms(target)
    betas = np.asarray(betas, dtype=float)
    dev = np.empty(len(betas))
    t_best = np.empty_like(dev)
    phi0 = np.empty_like(dev)
    k = np.arange(1, n_t + 1)
    # u = t*s/2 = k*pi/n_t on every row, so its sin and cos do not
    # depend on beta.
    u = k * (math.pi / n_t)
    su, cu = np.sin(u), np.cos(u)
    for start in range(0, len(betas), _BETA_BLOCK):
        beta = betas[start : start + _BETA_BLOCK, None]
        s = _speed(beta)
        ts = k * (TWO_PI / s / n_t)
        h = ts * (beta / 2.0)
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

"""The shooting oracle's numpy grid scan over (beta, t).

A geodesic's endpoint depends on phi0 only through the phase of B:
B = (sin(u)/s) * exp(i*(beta*t/2 + phi0)), and A does not involve phi0.
So for every (beta, t) the phi0 bringing B closest to the target is
known in closed form, and the scan needs no phi0 axis.

Nor do A and |B| depend on the target, so the endpoint's A and |B| on
every (beta, t) cell of a grid are kept in a `RowTable`, filled row by
row on first use and shared by every target scanned on that grid; only
the last subtract, max and argmin see the target.

Every beta row is evaluated on its own: a row's result does not depend
on which other rows are scanned with it, nor on which rows the table
already holds, so a caller may scan any subset of rows in any order and
gets the results of a fresh table bit for bit.  `row_bounds` is a
per-row lower bound on the scan's deviation, computed with the scan's
own float operations, which lets the caller skip rows that cannot come
close to the target.
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


class RowTable:
    """Target-free endpoint (Re A, Im A, |B|) of a grid's (beta, t) cells, filled by row.

    Cell (j, k-1) is the geodesic of momentum betas[j] at
    t = k * 2*pi / (s * n_t), k = 1..n_t, with s = sqrt(1 + beta^2).  Its
    A and |B| = sin(u)/s do not depend on phi0 nor on the target, so one
    table serves every shot on the grid.  The arrays come from `np.empty`:
    a row takes resident memory only once `fill` writes it, and at most
    3 * len(betas) * n_t * 8 bytes are ever held.  `filled[j]` is set only
    after row j is written.  Two fills of one row write the same bytes
    (a row does not depend on the rows filled with it), so concurrent
    fills need no lock.
    """

    def __init__(self, betas: np.ndarray, n_t: int):
        self.betas = np.asarray(betas, dtype=float)
        self.n_t = n_t
        self.s = _speed(self.betas)
        # t of cell (j, k-1) is k * dt[j].
        self.k = np.arange(1, n_t + 1)
        self.dt = TWO_PI / self.s / n_t
        # u = t*s/2 = k*pi/n_t on every row, so its sin and cos do not
        # depend on beta.
        u = self.k * (math.pi / n_t)
        self.su, self.cu = np.sin(u), np.cos(u)
        self.re_a = np.empty((len(self.betas), n_t))
        self.im_a = np.empty_like(self.re_a)
        self.abs_b = np.empty_like(self.re_a)
        self.filled = np.zeros(len(self.betas), dtype=bool)

    def fill(self, rows: np.ndarray) -> None:
        """Write every row of `rows` not written yet."""
        rows = rows[~self.filled[rows]]
        for start in range(0, len(rows), _BETA_BLOCK):
            block = rows[start : start + _BETA_BLOCK]
            beta = self.betas[block, None]
            h = self.k * self.dt[block, None] * (beta / 2.0)
            sh, ch = np.sin(h), np.cos(h)
            bs = (beta / self.s[block, None]) * self.su
            self.re_a[block] = bs * sh + self.cu * ch
            self.im_a[block] = bs * ch - self.cu * sh
            self.abs_b[block] = self.su / self.s[block, None]
            self.filled[block] = True


def scan_su2(
    table: RowTable, target: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row best deviation from an SU(2) target, its t and its phi0.

    target is (a_re, a_im, b_re, b_im); rows index `table.betas`.  At each
    (beta, t) cell phi0 is set so that B has the target's phase,
    phi0 = arg(B_target) - beta*t/2, which minimizes |B - B_target| since
    |B| = sin(u)/s >= 0 for u = t*s/2 <= pi.  The deviation is the
    max-norm distance of that endpoint from the target.  With
    B_target = 0 every phi0 is equally good and arg(B_target) is taken
    as 0.  Rows of the table not yet filled are filled first.

    Returns (dev, t_best, phi0), each of shape (len(rows),), phi0 in
    [0, 2*pi).
    """
    a_re, a_im = float(target[0]), float(target[1])
    theta, b_abs, b_unit = _b_terms(target)
    rows = np.asarray(rows, dtype=np.intp)
    table.fill(rows)
    dev = np.empty(len(rows))
    k_best = np.empty(len(rows), dtype=np.intp)
    for start in range(0, len(rows), _BETA_BLOCK):
        block = rows[start : start + _BETA_BLOCK]
        d = np.abs(table.re_a[block] - a_re)
        np.maximum(d, np.abs(table.im_a[block] - a_im), out=d)
        np.maximum(d, np.abs(table.abs_b[block] - b_abs) * b_unit, out=d)
        idx = np.argmin(d, axis=1)
        dev[start : start + len(idx)] = d[np.arange(len(idx)), idx]
        k_best[start : start + len(idx)] = idx + 1
    t_best = k_best * table.dt[rows]
    phi0 = np.mod(theta - t_best * (table.betas[rows] / 2.0), TWO_PI)
    return dev, t_best, phi0

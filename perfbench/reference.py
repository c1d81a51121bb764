"""High-precision reference distances, independent of srdist.

The arc functions `arg_short`, `arg_long`, `time_short` and `time_long`
are re-implemented in mpmath at 40 digits, and the monotone equation of
each branch is solved by bisection in that precision.  No edge-case
shortcuts are taken: |A| = 1 and the branch-3 boundary are reached only
as limits, so the reference shows what the float code should return
next to its routing thresholds.  One value costs about 20 ms.
"""
from __future__ import annotations

import mpmath as mp

_DPS = 40
_BISECTIONS = 160


def _arcs(abs_a):
    """The four arc functions of beta for one |A|, in the ambient precision."""
    one_m = 1 - abs_a * abs_a

    def asin_c(x):
        return mp.asin(min(mp.mpf(1), max(mp.mpf(-1), x)))

    def arg_short(beta):
        s = mp.sqrt(1 + beta * beta)
        return -(beta / s) * asin_c(mp.sqrt(one_m) * s) + asin_c(
            beta * mp.sqrt(one_m) / abs_a
        )

    def arg_long(beta):
        return mp.pi * beta / mp.sqrt(1 + beta * beta) + arg_short(beta)

    def time_short(beta):
        s = mp.sqrt(1 + beta * beta)
        return 2 / s * asin_c(mp.sqrt(one_m) * s)

    def time_long(beta):
        s = mp.sqrt(1 + beta * beta)
        return 2 / s * (mp.pi - asin_c(mp.sqrt(one_m) * s))

    return arg_short, arg_long, time_short, time_long


def _bisect(f, lo, hi, target):
    for _ in range(_BISECTIONS):
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _su2_distance_mp(a_re, a_im, b_re, b_im):
    norm = mp.sqrt(a_re**2 + a_im**2 + b_re**2 + b_im**2)
    abs_a = mp.sqrt(a_re**2 + a_im**2) / norm
    if abs_a == 0:
        return mp.pi
    theta = mp.atan2(a_im, a_re)
    if abs_a >= 1:
        return 2 * mp.sqrt(abs(theta) * (2 * mp.pi - abs(theta)))
    arg_short, arg_long, time_short, time_long = _arcs(abs_a)
    bmax = abs_a / mp.sqrt(1 - abs_a * abs_a)
    if abs(theta) < mp.pi * (1 - abs_a) / 2:
        return time_short(_bisect(arg_short, -bmax, bmax, theta))
    target = mp.pi - theta if theta >= 0 else -mp.pi - theta
    return time_long(_bisect(arg_long, -bmax, bmax, target))


def su2_distance(q) -> float:
    """Reference distance of the SU(2) element with components q = (a_re, a_im, b_re, b_im)."""
    with mp.workdps(_DPS):
        return float(_su2_distance_mp(*(mp.mpf(float(v)) for v in q)))


def so3_distance(m) -> float:
    """Reference distance of a rotation matrix: the lesser distance of its two lifts.

    The lift is read off the largest of the four quaternion squares
    (Shepperd's method), which stays well conditioned on the whole group,
    including near half turns where 1 + trace vanishes.
    """
    with mp.workdps(_DPS):
        c = [[mp.mpf(float(m[i][j])) for j in range(3)] for i in range(3)]
        squares = [
            1 + c[0][0] + c[1][1] + c[2][2],
            1 + c[0][0] - c[1][1] - c[2][2],
            1 - c[0][0] + c[1][1] - c[2][2],
            1 - c[0][0] - c[1][1] + c[2][2],
        ]
        k = max(range(4), key=lambda i: squares[i])
        r = mp.sqrt(squares[k]) / 2
        # Off-diagonal combinations of the covering map (see klein_omega):
        # each equals 4x the product of two quaternion components.
        p = {
            (0, 1): (c[2][1] - c[1][2]) / 4,  # a1*a2
            (0, 2): (c[0][2] - c[2][0]) / 4,  # a1*b1
            (0, 3): (c[1][0] - c[0][1]) / 4,  # a1*b2
            (1, 2): (c[0][1] + c[1][0]) / 4,  # a2*b1
            (1, 3): (c[0][2] + c[2][0]) / 4,  # a2*b2
            (2, 3): (c[1][2] + c[2][1]) / 4,  # b1*b2
        }
        q = [
            r if i == k else p[(min(i, k), max(i, k))] / r for i in range(4)
        ]
        d_pos = _su2_distance_mp(*q)
        d_neg = _su2_distance_mp(*(-v for v in q))
        return float(min(d_pos, d_neg))

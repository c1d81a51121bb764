"""Brute-force geodesic-shooting oracle.

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
branch 1, where u -> pi - u and beta -> -beta.  With sigma = sign(beta),
w = s*(s + |beta|) = 1/(1 - |beta|/s) and d = u - |tau'| as one atan2,

    psi = sigma*(u/w - d)                            on branch 0,
    psi = sigma*((u - pi)/w - d) + pi*(1 + sigma)    on branch 1,

in branch 0's beta and u: no two terms of size u cancel.  The halves
meet at tau' = +-pi/2; psi gains 2*pi around the loop, lies in
(-pi, 5*pi/2), and rises strictly along it, since dpsi/dtau' =
(sin u - u cos u)/(b s^3) > 0 on branch 0 (u -> pi - u on branch 1).
So each lift crosses one level and one geodesic is minimizing: the
paper's theorem that the SU(2) cut locus is B = 0.  The oracle uses the
rise, one bisection of the loop per lift, and the checks below test it.

On the loop t = 2u/s on branch 0 and 2(pi - u)/s on branch 1, that is
2b*u/sin(u) and 2b*(pi - u)/sin(u).  u/sin(u) rises on (0, pi) and u
rises with |tau'|, so t rises with |tau'| on branch 0 and falls with it
on branch 1: one end of a bracket bounds the t of every point in it
(`_least_time`).  A shot with several brackets, as an SO(3) shot with
both lifts', solves them in the order of that bound and drops the rest
once it passes the best root on the target by 2*REFINED_TOL (`_shoot`).

One scan of psi at 2 x 17 fixed tau' (`scan_su2`), which reads a and b
only, serves both lifts g and -g of an SO(3) target.  u, s, w and d
depend on |tau'| alone and sigma flips with tau', so

    psi(-tau') = -psi(tau')          on branch 0,
    psi(-tau') = 2*pi - psi(tau')    on branch 1.

The samples +-k*pi/16, k = 0 ... 8, mirror to the bit, so the scan
evaluates u and d at the 9 distinct |tau'| and writes each phase to both
of its slots.  Its rows equal the per-sample formula to the bit: that
formula takes the same cos and |sin| at -tau' and tau', its sigma = -1
is an exact negation, and its pi*(1 + sigma) = 2*pi at tau' >= 0 is
added to the same value.

Row 1's first sample is row 0's last, to the bit, so the rows join into
one closed loop, which rises and gains 2*pi.  A lift's level is arg(A),
or arg(A) + 2*pi when arg(A) lies below the loop's first sample, and one
bisection finds the samples that bracket its one crossing
(`_brackets`), a root solved in one dimension on F = psi - level
(`_solve`).  As |B| -> 0 the loop's first sample, -pi/(2*w), nears 0,
and a level arg(A) + 2*pi can round onto the loop's last sample: it has
no bracket, and the shot raises ShootNoMatchError rather than answer
with the other lift alone.  A root counts only if its endpoint
(`geodesics.endpoint_coords`) is within REFINED_TOL of the target in all
four coordinates.  With B = 0 (the Loc stratum) there is no loop: a
minimizer reaches B = 0 only at t = 0 or at its cut time u = pi, where
A = -exp(-i*pi*beta/s) for every phi0, and each lift's one root inverts
that phase (`_cut_root`).  At a tiny normal |B| a root lies far out in
beta, many halvings below the samples in tau', so `_solve` splits such
a bracket at the geometric mean of its ends (`_WIDE_BETA`).

The oracle shares only these geodesic formulas with the case analysis,
and imports neither distance module.  So it checks independently what
the case analysis decides: the branch (it searches the whole loop), the
monotone solve and the closed-form time.  What it relies on instead is
the rise of psi, a theorem about the geodesics, and that is checked on
its own: `verify.check_oracle` counts sampled loops that fall, and
`tests/test_oracle.py::test_scan_loops_rise_on_the_whole_input_family`
scans 50,000 values of |B|, each with |A| and its neighbouring floats.
Every loop rises but for falls between two subnormal samples, at |B|
from about 1e-162 to 1e-154, where w overflows; a bisection there still
brackets a sign change of F.

Everything runs in plain Python floats: on 17 samples a numpy call
costs more than its arithmetic.  For the same reason psi is written
twice, inlined in the scan's loop and per point in `_loop_phase`: a
helper shared by the two adds a call per sample, a third to a half of
the scan's time.
"""
from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from math import atan2, copysign, cos, hypot, inf, pi, sin, sqrt, tau, ulp

from .algebra import SO3Element, SU2Element, _mod_tau, cover_pair
from .geodesics import endpoint_coords

# Endpoint deviation (max-norm) a root must reach to count as hitting the
# target, and the arrival-time tie within which such roots are all
# minimizers.  A root solved to convergence lands at the rounding floor,
# well below this bound.
REFINED_TOL = 1e-12

# Safety net on the evaluations per bracket.  A solve takes a handful; one
# at a target with |B| down to the normal floor takes up to about 40, with
# the split below.
_MAX_STEPS = 120
# A bisection whose midpoint has |tau'|*b* beyond this splits at the
# geometric mean of the ends' |tau'| instead.  b* = |A|/|B| reaches 4.5e307
# as |B| nears the normal floor, and a root then lies near |tau'| =
# |beta|/b*: up to about 1,000 halvings from the samples, but about 10
# such splits.  No bracket of a target with |B| >= 2e-8 reaches it.
_WIDE_BETA = 1e8
_EIGHT_EPS = 8.0 * ulp(1.0)  # a phase's rounding floor per unit size of F's terms

# Even steps in tau' per half loop, ends included, mirrored about tau' = 0
# to the bit: _TAU[LOOP_FLOOR - j] == -_TAU[j].
LOOP_FLOOR = 16
_MID = LOOP_FLOOR // 2
_TAU = tuple(-k * (pi / LOOP_FLOOR) for k in range(_MID, 0, -1)) + tuple(k * (pi / LOOP_FLOOR) for k in range(_MID + 1))
# (slot of -|tau'|, slot of |tau'|, cos tau', |sin tau'|) per distinct
# |tau'|.  Both halves take the ends at cos(tau') = 0, so they agree there.
_TRIG = tuple((_MID - k, _MID + k, 0.0 if k == _MID else cos(_TAU[_MID + k]), sin(_TAU[_MID + k]))
              for k in range(_MID + 1))


class ShootNoMatchError(RuntimeError):
    """No root reached the target, its least time is within REFINED_TOL of t = 0, or a lift has no bracket.

    The 4-D gate cannot tell a target of such a least time from the
    identity: the identity itself on both groups, and B = 0 with |arg A|
    below about 4e-26, where t = 2*sqrt(|arg A|*(2*pi - |arg A|)) <=
    REFINED_TOL.  A lift has no bracket when its level arg(A) + 2*pi
    rounds onto or past the loop's last sample (`_brackets`): at small
    |B|, with arg(A) just below the loop's first sample, -pi/(2*w).
    """


@dataclass(frozen=True)
class GridSpec:
    """Former scan-grid sizes, unvalidated and unread: kept while perfbench passes grids."""

    n_phi: int = 256
    n_beta: int = 256
    beta_max: float = 8.0
    n_t: int = 512
    refine_steps: int = 200


@dataclass(frozen=True)
class ShootResult:
    """Least arrival time and every geodesic that reaches the target then.

    The minimizers are the roots whose endpoint is within REFINED_TOL of
    the target and whose t is within REFINED_TOL of t_min, as
    (phi0 mod 2*pi, beta, t) sorted by t, phi0, beta; t_min is the first
    one's t.  Each root is one geodesic, so a half turn lists two and an
    SO(3) target off the cut locus one.  When B = 0 (Loc) every phi0
    reaches the target and one representative per root is listed.
    """

    t_min: float
    minimizers: list[tuple[float, float, float]]  # (phi0, beta, t)


def _hit(target: tuple, beta: float, t: float) -> tuple[tuple, float]:
    """((phi0, beta, t), max-norm deviation) with phi0 putting B on the target's phase."""
    a_re, a_im, b_re, b_im = target
    phi0 = atan2(b_im, b_re) - 0.5 * beta * t
    e0, e1, e2, e3 = endpoint_coords(phi0, beta, t)
    return (phi0, beta, t), max(abs(e0 - a_re), abs(e1 - a_im), abs(e2 - b_re), abs(e3 - b_im))


def scan_su2(a: float, b: float) -> tuple[list, list]:
    """psi at the samples `_TAU`, one list of Python floats per branch, on the loop of |A| = a, |B| = b > 0.

    psi is the module docstring's form, inlined, evaluated once per
    distinct |tau'| and mirrored: sigma flips the sign of branch 0's psi
    and adds 2*pi to branch 1's flipped one.  The slot of tau' < 0 is
    written first, so tau' = 0 keeps sigma = +1.  At A = 0 the loop is
    the one point beta = 0, t = pi, and psi = tau' (+ pi on branch 1) is
    the arbitrary phase of A = 0.
    """
    ratio = a / b
    row0, row1 = [0.0] * (LOOP_FLOOR + 1), [0.0] * (LOOP_FLOOR + 1)
    for neg, pos, c, abs_sin in _TRIG:
        abs_beta = ratio * abs_sin
        s = hypot(1.0, abs_beta)
        s_plus = s + abs_beta
        w = s * s_plus
        ac, bs = a * c, b * s
        u = atan2(bs, ac)
        d = atan2(b * c / s_plus, ac * c + bs * abs_sin)
        psi0, psi1 = u / w - d, (u - pi) / w - d
        row0[neg], row1[neg] = -psi0, -psi1
        row0[pos], row1[pos] = psi0, psi1 + tau
    return row0, row1


def _loop_phase(a: float, b: float, branch: int, theta: float, n: int, x: float) -> tuple:
    """(F, dF/dtau', (beta, t)) for F = psi - theta - 2*pi*n at tau' = x on one half of the loop.

    psi is the module docstring's form.  Branch 1's pi*(1 + sigma) goes
    into n, so a small level is not rounded at ulp(2*pi).
    dpsi/dtau = (s - u*b* cos(tau))/s^3 only proposes steps.
    """
    st, ct = sin(x), cos(x)
    beta = a / b * st
    s = hypot(1.0, beta)
    s_plus = s + abs(beta)
    u = atan2(b * s, a * ct)
    d = atan2(b * ct / s_plus, a * ct * ct + b * s * abs(st))
    w, sigma, s3 = s * s_plus, copysign(1.0, beta), s * s * s
    if branch:
        f = sigma * ((u - pi) / w - d) - theta - tau * (n - (sigma > 0.0))
        return f, (s + (pi - u) * a / b * ct) / s3, (-beta, 2.0 * (pi - u) / s)
    return sigma * (u / w - d) - theta - tau * n, (s - u * a / b * ct) / s3, (beta, 2.0 * u / s)


def _cut_root(theta: float) -> tuple[float, float]:
    """(beta, t) of the geodesics that reach A = exp(i*theta), B = 0, for theta in [-pi, pi].

    The root lies at the cut time u = pi, t = 2*pi/s, where A =
    -exp(-i*pi*beta/s) for every phi0 (module docstring).  Its
    phase sign(beta)*pi*(1 - |beta|/s) takes each value in (-pi, pi]
    once, so |beta|/s = 1 - |theta|/pi and 1/s^2 = |theta|*(2*pi - |theta|)/pi^2:
    t = 2*sqrt(|theta|*(2*pi - |theta|)) and beta = sign(theta)*(pi - |theta|)/(t/2),
    with no cancellation beyond the rounding of theta and pi.  theta = 0
    is the identity, which only t = 0 reaches; beta is 0 there.
    """
    x = abs(theta)
    t = 2.0 * sqrt(x * (tau - x))
    return (copysign(pi - x, theta) / (0.5 * t) if t else 0.0), t


def _brackets(psi: tuple, thetas: list[float]) -> list:
    """(lift, row, n, bracket) for each lift's one crossing of its level between samples j and j + 1 of a row.

    psi is the rows of `scan_su2`, and bracket is (tau'_j, tau'_j+1, F_j,
    F_j+1) with tau' from `_TAU`, the bracket of a `_solve`, and F = psi -
    level.  Row 1's first sample equals row 0's last to the bit, so the
    rows join into the closed loop psi[0] + psi[1][1:], which rises and
    gains 2*pi (module docstring).  A lift's level is theta + 2*pi*n, theta
    = arg(A) of the lift, with n = 1 when theta lies below the loop's first
    sample and n = 0 otherwise, so the loop crosses it once, at j =
    `bisect_right(loop, level)`, the first sample above it.  On a loop that
    fell somewhere that j would still bracket a sign change of F.  A level
    that rounds onto or past the loop's last sample has no bracket, and
    raises ShootNoMatchError.  tau' = 0 is a sample, so no bracket
    straddles it, and t is monotone over each bracket (module docstring).
    The items hold Python ints and floats, so the solves run in plain float
    arithmetic.
    """
    loop = psi[0] + psi[1][1:]
    out = []
    for lift, theta in enumerate(thetas):
        n = 1 if theta < loop[0] else 0
        level = theta + tau * n
        j = bisect_right(loop, level)
        if j == len(loop):
            raise ShootNoMatchError(f"level {level!r} of lift {lift} is not below the loop's last sample "
                                    f"{loop[-1]!r}: its crossing rounds onto the loop's end")
        row, k = (0, j) if j <= LOOP_FLOOR else (1, j - LOOP_FLOOR)
        out.append((lift, row, n, (_TAU[k - 1], _TAU[k], loop[j - 1] - level, loop[j] - level)))
    return out


def _solve(a: float, b: float, branch: int, theta: float, n: int, bracket: tuple) -> tuple:
    """The point (beta, t) of the least |F| found in a bracket of `_loop_phase`'s F on one half of the loop.

    bracket is (lo, hi, F(lo), F(hi)) in tau', the ends on opposite sides
    of 0 (`_brackets`).  The first trial is the secant start, each later
    one a Newton step from the best point so far, or a split of the
    bracket when that step leaves it, the last trial did not lower |F|, or
    the slope is 0 (s^3 overflows once |beta| passes about 1e102).  The
    split is the midpoint, or the geometric mean past `_WIDE_BETA`.  The
    solve stops on a Newton step within the rounding of tau', when |F|
    stops falling at its rounding floor, or when the bracket cannot be
    split further.  u/w and d in F are up to pi/2, so that floor is
    absolute, 8 eps per unit of 1 + |level|.
    """
    lo, hi, f_lo, f_hi = bracket
    floor = _EIGHT_EPS * (1.0 + abs(theta + tau * n))
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    f_best = inf
    for _ in range(_MAX_STEPS):
        f, df, point = _loop_phase(a, b, branch, theta, n, x)
        lo, hi = (x, hi) if (f > 0.0) == (f_lo > 0.0) else (lo, x)
        if abs(f) < f_best:
            f_best, best = abs(f), point
            step = x - f / df if df else inf
            if abs(step - x) <= ulp(x):
                break
            if lo < step < hi:
                x = step
                continue
        elif f_best <= floor:
            break
        x = 0.5 * (lo + hi)
        if abs(x) * a > _WIDE_BETA * b:
            near, far = sorted((abs(lo), abs(hi)))
            x = copysign(sqrt(max(near, sys.float_info.min)) * sqrt(far), x)
        if not lo < x < hi:
            break
    return best


def _least_time(a: float, b: float, branch: int, bracket: tuple) -> float:
    """The least t over a bracket of `_brackets`: t at its end nearer tau' = 0 on branch 0, farther on branch 1.

    t rises with |tau'| on branch 0 and falls with it on branch 1 (module
    docstring); a bracket does not straddle tau' = 0, so hi <= 0 puts the
    nearer end at hi.  t is `_loop_phase`'s formula, to the bit.
    """
    lo, hi = bracket[0], bracket[1]
    x = (lo if hi <= 0.0 else hi) if branch else (hi if hi <= 0.0 else lo)
    s = hypot(1.0, a / b * sin(x))
    u = atan2(b * s, a * cos(x))
    return 2.0 * (pi - u) / s if branch else 2.0 * u / s


def _shoot(targets: list[tuple]) -> ShootResult:
    """The exact roots at the least time over the brackets of each lift (Re A, Im A, Re B, Im B) of one target.

    With more than one bracket, they are solved in the order of their
    least-time bound (`_least_time`), and the rest are dropped once that
    bound exceeds the best exact root's t by 2*REFINED_TOL.  A dropped
    bracket's root arrives after t_min + REFINED_TOL, with REFINED_TOL to
    spare for the rounding of the bound, so it is neither t_min nor a
    minimizer: the result is that of solving every bracket, to the bit.
    No bracket is dropped before a root passes the gate, so a shot that
    finds none solves them all and reports the same best deviation.
    """
    thetas = [atan2(a_im, a_re) for a_re, a_im, _, _ in targets]
    a, b = hypot(*targets[0][:2]), hypot(*targets[0][2:])
    if b < sys.float_info.min:
        # B = 0, or a subnormal |B| whose b* = a/b would overflow: one root
        # per lift at the cut time; the 4-D gate sees the target's own B.
        roots = [_hit(target, *_cut_root(theta)) for target, theta in zip(targets, thetas)]
    else:
        brackets = _brackets(scan_su2(a, b), thetas)
        ranked = zip((0.0,), brackets)  # one bracket: nothing to rank
        if len(brackets) > 1:
            ranked = sorted(zip([_least_time(a, b, row, bracket) for _, row, _, bracket in brackets], brackets))
        roots, t_best = [], inf
        for bound, (lift, row, n, bracket) in ranked:
            if bound > t_best + 2.0 * REFINED_TOL:
                break
            roots.append(_hit(targets[lift], *_solve(a, b, row, thetas[lift], n, bracket)))
            (_, _, t), dev = roots[-1]
            if dev <= REFINED_TOL and t < t_best:
                t_best = t

    exact = [(_mod_tau(phi0), beta, t) for (phi0, beta, t), dev in roots if dev <= REFINED_TOL]
    if not exact:
        best = min(dev for _, dev in roots)
        raise ShootNoMatchError(f"no root within {REFINED_TOL} of the target (best deviation {best:.3e})")
    if len(exact) > 1:
        exact.sort(key=lambda p: (p[2], p[0], p[1]))
    t_min = exact[0][2]
    if t_min <= REFINED_TOL:
        # The identity's own root is the cut root of theta = 0, at t = 0.
        raise ShootNoMatchError(f"t_min = {t_min:.3e} is within {REFINED_TOL} of t = 0: the gate "
                                "cannot tell the target from the identity")
    return ShootResult(t_min, [p for p in exact if p[2] <= t_min + REFINED_TOL])


def shoot_min_time(target: SU2Element, grid: GridSpec | None = None) -> ShootResult:
    """Minimal arrival time at an SU(2) target, by a scan of its loop and 1-D solves; `grid` is unread."""
    return _shoot([(target.a_re, target.a_im, target.b_re, target.b_im)])


def shoot_min_time_so3(target: SO3Element, grid: GridSpec | None = None) -> ShootResult:
    """Minimal arrival time at an SO(3) target, the least over its two SU(2) lifts.

    A geodesic's endpoint covers the target exactly when it equals one of
    the target's lifts g and -g.  One scan covers both lifts, and each
    lift's roots are solved in SU(2) coordinates, as in `shoot_min_time`,
    so t_min is the lesser of the two lifts' shots, to the bit.  The lifts
    are `cover_pair`'s unit pair and its exact negation, so a target off
    SO(3) by rounding is matched as its nearby exact rotation.
    """
    a_re, a_im, b_re, b_im = cover_pair(target)
    return _shoot([(a_re, a_im, b_re, b_im), (-a_re, -a_im, -b_re, -b_im)])

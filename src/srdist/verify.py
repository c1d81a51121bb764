"""Self-checks shared by `srdist verify` and the acceptance gate.

Each check function takes its samples, or a `np.random.Generator` to draw
them from, and returns `CheckResult` records.  The `verify` suites call
them with `(np.random.default_rng(seed), n)`; `tests/test_acceptance.py`
calls them with each criterion's own seed, count and tolerance:

    suite               check function         acceptance criterion
    submetry            check_submetry         2
    oracle              check_oracle           3
    geodesics           check_geodesics        4
    lemmas              check_lemmas           5
    br-counterexample   check_flawed_system    7
    cutlocus            check_minimizers,      8
                        check_cover
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .algebra import SO3Element, SU2Element, klein_omega, lift_so3, random_so3, random_su2
from .cutlocus import MEMBERSHIP_TOL, CutTag, classify_cut_locus_so3, in_cut_locus_su2_l2
from .geodesics import GeodesicParams, cut_time_bound, endpoint_coords, geodesic_point, geodesic_point_exp
from .flawed_system import demonstrate_br_nonuniqueness
from .oracle import REFINED_TOL, ShootNoMatchError, _brackets, scan_su2, shoot_min_time, shoot_min_time_so3
from .so3_distance import distance_so3, distance_so3_via_lifts, lift_distance_results
from .su2_distance import (
    DistanceResult, arg_long, arg_short, beta_domain_max, distance_su2, time_long, time_short,
)


@dataclass(frozen=True)
class CheckResult:
    """One check: the worst measured value, or a violation count, against `tol`."""

    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol

    @property
    def detail(self) -> str:
        value = str(self.value) if isinstance(self.value, int) else f"{self.value:.3e}"
        return f"{value} (tol {self.tol:g})"


def _worst(values) -> float:
    """Largest absolute value, 0 when empty; NaN if any is NaN, so it fails."""
    return float(np.max(np.abs(np.asarray(values, dtype=float)), initial=0.0))


def _near_boundary_rotations(rng: np.random.Generator, n: int) -> Iterator[SO3Element]:
    """n rotations near the branch-3 boundary |theta| = pi*(1 - |A|)/2 as |A| -> 1.

    1 - |A| cycles over 1e-7 ... 1e-10, theta = +-pi*(1 - |A|)/2 * U(0.5, 2)
    and arg(B) is uniform, so the canonical lift has Re A > 0.
    """
    for i in range(n):
        d = 10.0 ** -(7 + i % 4)
        theta = rng.choice([-1.0, 1.0]) * math.pi * d / 2.0 * rng.uniform(0.5, 2.0)
        yield klein_omega(_pair(1.0 - d, math.sqrt(d * (2.0 - d)), theta, rng.uniform(0.0, math.tau)))


def _pair(abs_a: float, abs_b: float, alpha: float, gamma: float) -> SU2Element:
    """The pair A = |A|*exp(i*alpha), B = |B|*exp(i*gamma)."""
    return SU2Element(abs_a * math.cos(alpha), abs_a * math.sin(alpha),
                      abs_b * math.cos(gamma), abs_b * math.sin(gamma))


def check_submetry(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """Direct SO(3) distances against the minimum over the two lifts.

    On n Haar rotations, then on n rotations near the branch-3 boundary as
    |A| -> 1 (`_near_boundary_rotations`), drawn after them.
    """
    def gaps(rotations):
        return [distance_so3(c).t - distance_so3_via_lifts(c) for c in rotations]

    haar = gaps([random_so3(rng) for _ in range(n)])
    near = gaps(_near_boundary_rotations(rng, n))
    return [
        CheckResult(f"|direct - lift-minimum| ({n} rotations)", _worst(haar), 1e-12),
        CheckResult(f"direct vs lift-minimum near the branch-3 boundary ({n} rotations)", _worst(near), 1e-12),
    ]


def check_lemmas(abs_as: Iterable[float], n_beta: int) -> list[CheckResult]:
    """Monotonicity, parity, identities and range endpoints of the branch functions.

    `time_short`, `time_long`, `arg_short` and `arg_long` are evaluated at
    n_beta points of [0, b*] (and their negatives) for each |A| in abs_as.
    """
    fns = (time_short, time_long, arg_short, arg_long)
    # Per function: the sign of its slope in beta, and its parity
    # (times are even, phases odd).
    slope = np.array([[1.0], [-1.0], [1.0], [1.0]])
    parity_sign = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    violations, parity, ident, ends = 0, [], [], []
    for a in abs_as:
        bs = np.linspace(0.0, beta_domain_max(a), n_beta)
        pos, neg = (np.array([[f(b, a) for b in xs] for f in fns]) for xs in (bs, -bs))
        t1, t2, f1, f2 = pos
        violations += int(np.sum(slope * np.diff(pos, axis=1) <= 0.0))
        parity.append(_worst(neg - parity_sign * pos))
        s = np.sqrt(1.0 + bs * bs)
        ident.append(_worst([t1 + t2 - math.tau / s, f2 - f1 - math.pi * bs / s]))
        root = math.sqrt(1.0 - a * a)
        ends.append(_worst([
            t1[0] - 2.0 * math.asin(root),
            t1[-1] - math.pi * root,
            t2[0] - 2.0 * (math.pi - math.asin(root)),
            t2[-1] - math.pi * root,
            f1[-1] - math.pi * (1.0 - a) / 2.0,
            f2[-1] - math.pi * (1.0 + a) / 2.0,
        ]))
    return [
        CheckResult(f"monotonicity violations on [0, b*] ({len(ends)}x{n_beta} grid)", violations, 0),
        CheckResult("parity (odd phases, even times)", _worst(parity), 1e-14),
        CheckResult("defining identities", _worst(ident), 1e-12),
        CheckResult("range endpoints", _worst(ends), 1e-9),
    ]


# |B| = 10^-k of the fixed near-Loc targets: from where b* = |A|/|B| puts
# a root about 120 halvings below the oracle's samples, past the overflow
# of s^3 in its slope (k = 103, 104), to the last normal |B| and a
# subnormal one.
_TINY_B_EXPONENTS = (36, 37, 50, 80, 103, 104, 160, 230, 307, 308)


def _tiny_b_pairs(k: int) -> list[SU2Element]:
    """Pairs with |B| = 10^-k, arg B = 0.7 and arg A = 0.3, -1, 2.5, 1e-3."""
    b = 10.0 ** -k
    return [_pair(math.sqrt((1.0 - b) * (1.0 + b)), b, alpha, 0.7) for alpha in (0.3, -1.0, 2.5, 1e-3)]


def check_oracle(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """Shooting-oracle minimal times against the case-analysis distances, and SU(2) uniqueness.

    n Haar SU(2) targets, then n Haar rotations.  Then the level crossings
    the oracle's scan brackets on both lifts g, -g of the Haar targets, n
    steep and n near-identity (t = 10^U(-8, -2)) geodesic endpoints and
    max(1, n // 10) pairs at each |A|, 1 - |A| = 1e-1 ... 1e-12: off B = 0,
    the SU(2) cut locus, each lift crosses one level.  Last, with no
    draw, the minimal times at the `_tiny_b_pairs` and their rotations.
    A shot that raises ShootNoMatchError is left out of its record and
    counted in one more, failing, record (`_failed_shots`).
    """
    failed: list = []
    targets = [random_su2(rng) for _ in range(n)]
    gaps = [r.t_min - distance_su2(g).t for g, r in _shots(shoot_min_time, targets, failed)]
    rotations = [random_so3(rng) for _ in range(n)]
    gaps_so3 = [r.t_min - distance_so3(c).t for c, r in _shots(shoot_min_time_so3, rotations, failed)]
    for _ in range(n):
        beta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.8, 3.5)
        t = rng.uniform(0.05, 0.97) * cut_time_bound(beta)
        targets.append(geodesic_point(GeodesicParams(rng.uniform(0.0, math.tau), beta), t))
        p = GeodesicParams(rng.uniform(0.0, math.tau), rng.uniform(-50.0, 50.0))
        targets.append(geodesic_point(p, 10.0 ** rng.uniform(-8.0, -2.0)))
    for d in [10.0**-k for k in range(1, 13)] * max(1, n // 10):
        targets.append(_pair(d, math.sqrt((1.0 - d) * (1.0 + d)), *rng.uniform(-math.pi, math.pi, 2)))
        targets.append(_pair(1.0 - d, math.sqrt(d * (2.0 - d)), *rng.uniform(-math.pi, math.pi, 2)))
    lifts = [h for g in targets for h in (g, g.negate())]
    miscounts = sum(_crossing_count(h) != 1 for h in lifts)
    tiny = [g for k in _TINY_B_EXPONENTS for g in _tiny_b_pairs(k)]
    gaps_tiny = [r.t_min - distance_su2(g).t for g, r in _shots(shoot_min_time, tiny, failed)]
    gaps_tiny += [
        r.t_min - distance_so3(c).t for c, r in _shots(shoot_min_time_so3, map(klein_omega, tiny), failed)
    ]
    return [
        CheckResult(f"oracle vs case analysis ({n} targets)", _worst(gaps), 1e-12),
        CheckResult(f"SO(3) oracle vs case analysis ({n} rotations)", _worst(gaps_so3), 1e-12),
        CheckResult(f"lifts off B = 0 with a crossing count other than one ({len(lifts)} lifts)", miscounts, 0),
        CheckResult(
            f"oracle vs case analysis at |B| = 1e-36 ... 1e-308 ({len(tiny)} targets and their rotations)",
            _worst(gaps_tiny), 1e-12,
        ),
    ] + _failed_shots(failed)


def _crossing_count(h: SU2Element) -> int:
    """The level crossings arg(A) + 2*pi*n that the oracle's scan brackets for the one lift h."""
    psi = scan_su2(math.hypot(h.a_re, h.a_im), math.hypot(h.b_re, h.b_im))
    return len(_brackets(psi, [math.atan2(h.a_im, h.a_re)]))


def _shots(shoot, targets, failed: list) -> Iterator[tuple]:
    """(target, shoot(target)) per target; one whose shot raises ShootNoMatchError goes to `failed` instead."""
    for target in targets:
        try:
            result = shoot(target)
        except ShootNoMatchError:
            failed.append(target)
            continue
        yield target, result


def _failed_shots(failed: list) -> list[CheckResult]:
    """A failing record counting the shots `_shots` set aside, or none when every shot matched."""
    return [CheckResult("oracle shots with no root at the target", len(failed), 0)] if failed else []


def _minimizer_gap(expected: DistanceResult, found: tuple[float, float, float]) -> float:
    """Max-norm gap in (phi0 mod 2*pi, beta, t); phi0 is skipped where it is free (None)."""
    phi0, beta, t = found
    gaps = [beta - expected.beta, t - expected.t]
    if expected.phi0 is not None:
        gaps.append(math.remainder(phi0 - expected.phi0, math.tau))
    return _worst(gaps)


def _half_turn(rng: np.random.Generator) -> SO3Element:
    """Half turn 2vv^T - I about a random axis v, uniform on the sphere."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return SO3Element(2.0 * np.outer(v, v) - np.eye(3))


def _sym_band_pair(rng: np.random.Generator, re_a: float) -> SU2Element:
    """Unit pair with Re A = +-re_a and the rest random."""
    v = rng.standard_normal(3)
    v *= math.sqrt(1.0 - re_a * re_a) / np.linalg.norm(v)
    return SU2Element(rng.choice([-1.0, 1.0]) * re_a, *v.tolist())


def _loc_band_pair(rng: np.random.Generator, abs_b: float) -> SU2Element:
    """Unit pair with |B| = abs_b, random arg B, and arg A in +-[0.1, pi - 0.1]."""
    alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, math.pi - 0.1)
    return _pair(math.sqrt(1.0 - abs_b * abs_b), abs_b, alpha, rng.uniform(-math.pi, math.pi))


def check_minimizers(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """The oracle's minimizer sets against the lifts' case analysis on and next to Sym, and on Loc.

    n half turns, which two geodesics reach, then n rotations whose lift
    has |Re A| cycling over 1e-4, 1e-3 and 5e-3, which one reaches.  The
    expected set is the (phi0, beta, t) of the two lifts' distances
    (`lift_distance_results`) at the least t, ties within REFINED_TOL;
    each is matched to the nearest oracle minimizer.

    Then n pairs with B = 0 (`_loc_band_pair`), shot on SU(2) and as their
    axis-1 rotations on SO(3).  On B = 0 every phi0 is minimizing and the
    oracle lists one per root, so at each listed (beta, t) the 8 phi0 =
    2*pi*k/8 must each reach the target, or one of its lifts, within
    REFINED_TOL.

    Last, the cut-locus tag against the minimizer count: n half turns
    (`_sym_band_pair` at Re A = 0) must be tagged Sym and list two
    minimizers, and n rotations at each |Re A| = 2*MEMBERSHIP_TOL and
    1e-8 must be tagged NotCut and list one.  Failed shots are counted as
    in `check_oracle`.
    """
    failed: list = []
    rotations = [_half_turn(rng) for _ in range(n)]
    rotations += [klein_omega(_sym_band_pair(rng, (1e-4, 1e-3, 5e-3)[i % 3])) for i in range(n)]
    mismatches, gaps = 0, []
    for c, shot in _shots(shoot_min_time_so3, rotations, failed):
        found = shot.minimizers
        lifts = lift_distance_results(c)
        t_min = min(r.t for r in lifts)
        expected = [r for r in lifts if r.t <= t_min + REFINED_TOL]
        mismatches += len(found) != len(expected)
        gaps += [min(_minimizer_gap(r, m) for m in found) for r in expected]
    pairs = [_loc_band_pair(rng, 0.0) for _ in range(n)]
    loc = []
    for g, shot in _shots(shoot_min_time, pairs, failed):
        loc += _phi0_circle_gaps([g], shot.minimizers)
    for c, shot in _shots(shoot_min_time_so3, map(klein_omega, pairs), failed):
        loc += _phi0_circle_gaps(lift_so3(c), shot.minimizers)
    band = (0.0, 2.0 * MEMBERSHIP_TOL, 1e-8)
    tag_counts = 0
    for re_a in band:
        expected = (CutTag.SYM, 2) if re_a == 0.0 else (CutTag.NOT_CUT, 1)
        tagged = [klein_omega(_sym_band_pair(rng, re_a)) for _ in range(n)]
        for c, shot in _shots(shoot_min_time_so3, tagged, failed):
            tag_counts += (classify_cut_locus_so3(c).tag, len(shot.minimizers)) != expected
    return [
        CheckResult(f"minimizer-set size mismatches ({n} half turns, {n} near-Sym rotations)", mismatches, 0),
        CheckResult("minimizers vs the lifts' case analysis", _worst(gaps), 1e-12),
        CheckResult(
            f"Loc: every phi0 reaches the target ({n} B = 0 pairs, {n} axis-1 rotations)",
            _worst(loc), REFINED_TOL,
        ),
        CheckResult(
            f"cut-locus tag vs minimizer count ({n} each at |Re A| = {', '.join(f'{x:g}' for x in band)})",
            tag_counts, 0,
        ),
    ] + _failed_shots(failed)


def _phi0_circle_gaps(targets, minimizers) -> list[float]:
    """Max-norm gap to the nearest target of the endpoints at 8 evenly spaced phi0, per listed (beta, t)."""
    coords = [(g.a_re, g.a_im, g.b_re, g.b_im) for g in targets]
    return [
        min(max(abs(e - q) for e, q in zip(endpoint_coords(k * math.tau / 8, beta, t), target)) for target in coords)
        for _, beta, t in minimizers
        for k in range(8)
    ]


def check_flawed_system() -> list[CheckResult]:
    """Flawed system at |A| = 0.6: two residual-zero roots; the case analysis returns the smaller."""
    rep = demonstrate_br_nonuniqueness(0.6)
    return [
        CheckResult(
            "two residual-zero solutions of the flawed system",
            _worst(rep.residuals_small + rep.residuals_large),
            1e-10,
        ),
        CheckResult(
            "case analysis returns the smaller solution uniquely",
            abs(rep.true_distance - rep.t_small),
            1e-12,
        ),
    ]


def check_cover(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """Cut-locus tags agree across the covering map, on Haar draws and in the tolerance band.

    n Haar elements must get the same tag on SU(2) and on their rotation.
    Then, per distance in the bands below, max(1, n // 10) elements at that
    |Re A| and as many at that |B| (Sym and Loc bands) must each get the
    tag the distance gives, the stratum within MEMBERSHIP_TOL and NotCut
    beyond it, on both groups.  One record per band.
    """
    def mismatches(elements, expected=None) -> int:
        tags = [(in_cut_locus_su2_l2(g), classify_cut_locus_so3(klein_omega(g)).tag) for g in elements]
        return sum(su2 is not so3 or (expected is not None and su2 is not expected) for su2, so3 in tags)

    results = [CheckResult(
        f"cut-locus tag mismatches across the cover ({n} Haar samples)",
        mismatches(random_su2(rng) for _ in range(n)), 0,
    )]
    # Exact members, then both sides of MEMBERSHIP_TOL = 1e-9.  1e-9 itself
    # is left out: there an ulp of the covering map's rounding decides the tag.
    bands = (0.0, 1e-13, 1e-12, 1e-10, 5e-10, 8e-10, 2e-9)
    m = max(1, n // 10)
    strata = ((CutTag.SYM, "|Re A|", _sym_band_pair), (CutTag.LOC, "|B|", _loc_band_pair))
    for stratum, label, draw in strata:
        for dist in bands:
            expected = stratum if dist <= MEMBERSHIP_TOL else CutTag.NOT_CUT
            results.append(CheckResult(
                f"cut-locus tag mismatches, {stratum.value} band {label} = {dist:g} ({m} samples)",
                mismatches((draw(rng, dist) for _ in range(m)), expected), 0,
            ))
    return results


def check_geodesics(samples: Iterable[tuple[float, float, float]]) -> list[CheckResult]:
    """Closed form vs exponential product, and the |A|^2 identity, at (phi0, beta, t) samples."""
    route, ident = [], []
    for phi0, beta, t in samples:
        p = GeodesicParams(phi0, beta)
        g1, g2 = geodesic_point(p, t), geodesic_point_exp(p, t)
        route.append(max(
            abs(g1.a_re - g2.a_re), abs(g1.a_im - g2.a_im),
            abs(g1.b_re - g2.b_re), abs(g1.b_im - g2.b_im),
        ))
        s2 = 1.0 + beta * beta
        expected = (beta * beta + math.cos(t * math.sqrt(s2) / 2.0) ** 2) / s2
        ident.append(g1.a_re ** 2 + g1.a_im ** 2 - expected)
    return [
        CheckResult(f"closed form vs exponential product ({len(route)} points)", _worst(route), 1e-10),
        CheckResult("|A|^2 identity along geodesics", _worst(ident), 1e-12),
    ]


def _lemma_suite(rng: np.random.Generator, n: int) -> list[CheckResult]:
    n_abs = max(4, math.isqrt(n))
    return check_lemmas(rng.uniform(0.05, 0.95, n_abs), max(4, n // n_abs))


def _random_geodesics(rng: np.random.Generator, n: int) -> Iterator[tuple[float, float, float]]:
    for _ in range(n):
        phi0, beta = rng.uniform(0.0, math.tau), rng.uniform(-5.0, 5.0)
        yield phi0, beta, rng.uniform(0.0, cut_time_bound(beta))


SUITES: dict[str, Callable[[np.random.Generator, int], list[CheckResult]]] = {
    "submetry": check_submetry,
    "lemmas": _lemma_suite,
    "oracle": check_oracle,
    "br-counterexample": lambda rng, n: check_flawed_system(),
    "cutlocus": lambda rng, n: check_minimizers(rng, n) + check_cover(rng, n),
    "geodesics": lambda rng, n: check_geodesics(_random_geodesics(rng, n)),
}


def run_suites(names: list[str], n: int, seed: int) -> list[tuple[str, CheckResult]]:
    """Run each named suite on its own generator seeded with `seed`."""
    return [
        (name, check)
        for name in names
        for check in SUITES[name](np.random.default_rng(seed), n)
    ]

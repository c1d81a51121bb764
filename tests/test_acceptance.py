"""Acceptance gate: the nine release criteria at their stated tolerances.

Criteria 2, 3, 4, 5, 7 and 8 run the `srdist.verify` checks that back
`srdist verify` (its docstring maps suites to criteria); criteria 1, 6
and 9 have no suite and are computed here.  Each test prints one [PASS]/[FAIL] line and records it in RESULTS;
the conftest echoes the recorded lines in the terminal summary so they
show up in every run log regardless of capture settings.
"""
import math
import sys

import numpy as np

from srdist.algebra import SO3Element, SU2Element, lift_so3, random_so3, random_su2, so3_mul, su2_inv
from srdist.geodesics import cut_time_bound
from srdist.so3_distance import distance_so3, distance_so3_pair, lift_distance_results
from srdist.su2_distance import (
    DistanceCase,
    arg_long,
    arg_short,
    distance_su2,
    distance_su2_pair,
    time_long,
    time_short,
)
from srdist.verify import (
    CheckResult,
    check_cover,
    check_flawed_system,
    check_geodesics,
    check_lemmas,
    check_minimizers,
    check_oracle,
    check_submetry,
)

TWO_PI = 2.0 * math.pi


RESULTS: list = []


def report(label: str, *checks: CheckResult) -> None:
    ok = all(c.passed for c in checks)
    details = "; ".join(f"{c.name} {c.detail}" for c in checks)
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {details}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def axis1_rotation(psi):
    c, s = math.cos(psi), math.sin(psi)
    return SO3Element(np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]]))


def test_criterion_1_analytic_golden_values():
    tol = 1e-9
    checks = [
        (distance_su2(SU2Element(0, 0, 0.28, 0.96)).t, math.pi),
        (distance_su2(SU2Element(0, 1, 0, 0)).t, math.pi * math.sqrt(3.0)),
        (distance_su2(SU2Element(-1, 0, 0, 0)).t, TWO_PI),
        (distance_su2(SU2Element(0.6, 0, 0.8, 0)).t, 2 * math.asin(0.8)),
        (distance_su2(SU2Element(-0.6, 0, 0.8, 0)).t, 2 * (math.pi - math.asin(0.8))),
        (distance_so3(SO3Element(np.diag([-1.0, 1.0, -1.0]))).t, math.pi),
        (distance_so3(SO3Element(np.diag([1.0, -1.0, -1.0]))).t, math.pi * math.sqrt(3.0)),
        (distance_so3(axis1_rotation(math.pi / 2)).t, math.pi * math.sqrt(7.0) / 2),
    ]
    worst = max(abs(got - want) for got, want in checks)
    report("criterion 1 (analytic golden values)", CheckResult("8 values, worst |error|", worst, tol))


def test_criterion_2_submetry_agreement():
    report("criterion 2 (submetry agreement)", *check_submetry(np.random.default_rng(101), 500))


def test_criterion_3_oracle_equivalence():
    report("criterion 3 (oracle equivalence)", *check_oracle(np.random.default_rng(102), 50))


def test_criterion_4_geodesic_cross_route():
    phis = np.linspace(0.0, TWO_PI, 50, endpoint=False)
    betas = np.linspace(-6.0, 6.0, 50)
    fracs = np.linspace(0.0, 1.0, 50)
    samples = (
        (phi0, beta, f * cut_time_bound(beta)) for beta in betas for phi0 in phis for f in fracs
    )
    report("criterion 4 (geodesic cross-route)", *check_geodesics(samples))


def test_criterion_5_lemma_suite():
    report("criterion 5 (lemma suite)", *check_lemmas(np.linspace(0.02, 0.98, 100), 100))


def _su2_branch_residual(g, res):
    abs_a = math.hypot(g.a_re, g.a_im)
    if res.case is DistanceCase.SHORT:
        phase = arg_short(res.beta, abs_a)
        return max(
            abs(math.cos(phase) - g.a_re / abs_a),
            abs(math.sin(phase) - g.a_im / abs_a),
            abs(time_short(res.beta, abs_a) - res.t),
        )
    phase = arg_long(res.beta, abs_a)
    return max(
        abs(math.cos(phase) + g.a_re / abs_a),
        abs(math.sin(phase) - g.a_im / abs_a),
        abs(time_long(res.beta, abs_a) - res.t),
    )


def test_criterion_6_system_residuals():
    rng = np.random.default_rng(103)
    worst = 0.0
    n_su2 = n_so3 = 0
    while n_su2 < 200 or n_so3 < 200:
        g = random_su2(rng)
        res = distance_su2(g)
        if n_su2 < 200 and res.case in (DistanceCase.SHORT, DistanceCase.LONG):
            n_su2 += 1
            worst = max(worst, _su2_branch_residual(g, res))
        c = random_so3(rng)
        res3 = distance_so3(c)
        if n_so3 < 200 and res3.case in (DistanceCase.SHORT, DistanceCase.LONG):
            n_so3 += 1
            # the rotation systems reduce to the SU(2) systems of the
            # winning lift; substitute into that lift's branch equations
            r1, r2 = lift_distance_results(c)
            lift_res = r1 if r1.t <= r2.t else r2
            worst = max(worst, abs(lift_res.t - res3.t))
            lifts = lift_so3(c)
            lift = lifts[0] if lift_res is r1 else lifts[1]
            worst = max(worst, _su2_branch_residual(lift, res3))
    report("criterion 6 (system residuals)",
           CheckResult("200 case-4/5 samples per group, worst residual", worst, 1e-10))


def test_criterion_7_flawed_system_counterexample():
    report("criterion 7 (flawed-system counterexample)", *check_flawed_system())


def test_criterion_8_cut_locus():
    rng = np.random.default_rng(104)
    # The cover samples continue on the same generator, after the 20 half
    # turns, 20 near-Sym rotations, 20 B = 0 pairs and the 3 x 20 rotations
    # of the tag-count record.
    report("criterion 8 (cut locus)", *check_minimizers(rng, 20), *check_cover(rng, 1000))


def test_criterion_9_metric_axioms():
    rng = np.random.default_rng(105)
    worst_tri = -math.inf
    worst_inv = 0.0
    worst_conj = 0.0
    for _ in range(200):
        g1, g2, g3 = (random_su2(rng) for _ in range(3))
        worst_tri = max(
            worst_tri,
            distance_su2_pair(g1, g3)
            - distance_su2_pair(g1, g2) - distance_su2_pair(g2, g3),
        )
        c1, c2, c3 = (random_so3(rng) for _ in range(3))
        worst_tri = max(
            worst_tri,
            distance_so3_pair(c1, c3)
            - distance_so3_pair(c1, c2) - distance_so3_pair(c2, c3),
        )
        worst_inv = max(
            worst_inv,
            abs(distance_su2(g1).t - distance_su2(su2_inv(g1)).t),
            abs(distance_so3(c1).t - distance_so3(c1.transpose()).t),
        )
        r = axis1_rotation(rng.uniform(0, TWO_PI))
        conj = so3_mul(so3_mul(r, c1), r.transpose())
        worst_conj = max(worst_conj, abs(distance_so3(conj).t - distance_so3(c1).t))
    report("criterion 9 (metric axioms)",
           CheckResult("200 triples, triangle excess", worst_tri, 1e-9),
           CheckResult("inverse symmetry", worst_inv, 1e-10),
           CheckResult("conjugation invariance", worst_conj, 1e-9))

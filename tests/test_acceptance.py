"""Acceptance gate: the nine release criteria at their stated tolerances.

Each criterion runs the `srdist.verify` checks that back `srdist verify`
(its docstring maps suites to criteria), on the criterion's own seed and
count.  Each test records one [PASS]/[FAIL] line in RESULTS, and a
failing line is its assertion message; the conftest prints the recorded
lines in the terminal summary, so they show up in every run log
regardless of capture settings.

The unit test files do not repeat what a criterion checks.  A property
that a criterion checks on the same kind of samples, with at least as
many of them and an equal or tighter tolerance, has no unit test of its
own; a unit test stays where it adds samples, a tighter tolerance or an
assertion that no criterion makes.  The test files draw their half turns
(`verify._half_turn`), their rotations about axis 1
(`verify._axis1_rotation`) and their unit pairs at a given |A|, |B|
(`verify._pair`) from the helpers that `srdist verify` uses, and import
no other test file.
"""
import ast
import math
import sys
from pathlib import Path

import numpy as np

from srdist import verify
from srdist.geodesics import cut_time_bound

RESULTS: list = []


def report(label: str, *checks: verify.CheckResult) -> None:
    ok = all(c.passed for c in checks)
    details = "; ".join(f"{c.name} {c.detail}" for c in checks)
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {details}"
    RESULTS.append(line)
    assert ok, line


def test_criterion_1_analytic_golden_values():
    report("criterion 1 (analytic golden values)", *verify.check_golden_values())


def test_criterion_2_submetry_agreement():
    report("criterion 2 (submetry agreement)", *verify.check_submetry(np.random.default_rng(101), 500))


def test_criterion_3_oracle_equivalence():
    report("criterion 3 (oracle equivalence)", *verify.check_oracle(np.random.default_rng(102), 50))


def test_criterion_4_geodesic_cross_route():
    phis = np.linspace(0.0, math.tau, 50, endpoint=False)
    betas = np.linspace(-6.0, 6.0, 50)
    fracs = np.linspace(0.0, 1.0, 50)
    samples = (
        (phi0, beta, f * cut_time_bound(beta)) for beta in betas for phi0 in phis for f in fracs
    )
    report("criterion 4 (geodesic cross-route)", *verify.check_geodesics(samples))


def test_criterion_5_lemma_suite():
    report("criterion 5 (lemma suite)", *verify.check_lemmas(np.linspace(0.02, 0.98, 100), 100))


def test_criterion_6_system_residuals():
    report("criterion 6 (system residuals)", *verify.check_branch_residuals(np.random.default_rng(103), 200))


def test_criterion_7_flawed_system_counterexample():
    report("criterion 7 (flawed-system counterexample)", *verify.check_flawed_system())


def test_criterion_8_cut_locus():
    rng = np.random.default_rng(104)
    # The cover samples continue on the same generator, after the 20 half
    # turns, 20 near-Sym rotations, 20 B = 0 pairs and the 3 x 20 rotations
    # of the tag-count record.
    report("criterion 8 (cut locus)", *verify.check_minimizers(rng, 20), *verify.check_cover(rng, 1000))


def test_criterion_9_metric_axioms():
    report("criterion 9 (metric axioms)", *verify.check_metric_axioms(np.random.default_rng(105), 200))


def test_one_set_of_checks():
    # Every `verify.check_*` function gives a record under `srdist verify
    # --suite all`, and no test file imports another, so a check written
    # for pytest alone shows up here.
    checks = {f.__code__: name for name, f in vars(verify).items() if name.startswith("check_")}
    recorded = set()

    def profile(frame, event, result):
        if event == "return" and frame.f_code in checks and result:
            recorded.add(checks[frame.f_code])

    sys.setprofile(profile)
    try:
        verify.run_suites(list(verify.SUITES), 4, 0)
    finally:
        sys.setprofile(None)
    assert recorded == set(checks.values())
    for path in Path(__file__).parent.glob("test_*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        modules = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.module]
        assert not [m for m in modules if m.startswith("test_")], path.name

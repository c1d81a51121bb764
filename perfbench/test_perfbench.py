"""Tests of the benchmark itself: metric names, failure accounting, exact counts.

Run from the repository root with `python -m pytest perfbench -q`
(about a minute: each workload runs briefly once untraced and twice
traced).
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import srdist  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".count", ".calls", ".evals_per_call", ".cells", ".failed")


@lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int, attempt: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_emits_every_metric_with_unit(workload, trace, section):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = tiny_run(workload, 1), tiny_run(workload, 1, attempt=1)
    counts = {k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_no_timed_op_fails(workload, trace):
    result = tiny_run(workload, trace)
    assert result["failed"] == 0 and result["correct"]


def test_known_defects_run_only_in_the_probe():
    timed = {stratum for _, stratum, _ in workloads.make_pool("distance-edge", 3)}
    probed = {stratum for _, stratum, _ in workloads.edge_probe(3)}
    assert timed.isdisjoint(workloads.KNOWN_DEFECTS)
    assert probed == {name for name, _, _ in workloads.EDGE_STRATA}


def test_edge_failures_are_attributed_to_strata():
    metrics = tiny_run("distance-edge", 1)["metrics"]
    failed = {k for k, v in metrics.items() if k.startswith("edge.") and v["value"]}
    assert failed and failed <= {f"edge.{name}.failed" for name in workloads.KNOWN_DEFECTS}


def test_latency_of_an_input_is_its_fastest_run():
    rec = run.Recorder(3)
    for j, seconds in [(0, 3.0), (1, 2.0), (0, 1.0), (1, 5.0)]:
        rec.record(j, "out", seconds)
    assert rec.fastest() == [1.0, 2.0] and rec.ops == 4


def test_slowdown_is_the_fastest_kernel_time_over_the_reference():
    import calibrate

    cal = calibrate.Calibration("numpy")
    cal.between_ops(0.0)
    cal.between_ops(0.0)  # within INTERVAL_S of the first: not timed
    assert len(cal.times) == 1
    ref = calibrate.REFERENCE_S["numpy"]
    cal.times = [3.0 * ref, 2.0 * ref, 2.5 * ref]
    assert cal.slowdown() == pytest.approx(2.0)


def _wrong(out):
    res, tag = out
    return dataclasses.replace(res, t=res.t + 1e-3), tag


def test_injected_wrong_results_count_as_failed():
    workload = workloads.WORKLOADS["distance-edge"]
    names = [name for name, _, _ in workloads.TIMED_STRATA]
    full = workloads.make_pool("distance-edge", 3)
    pool = [full[names.index("haar_su2")], full[names.index("haar_so3")], full[0], full[1], full[2]]
    calls = {"n": 0}

    def op(api, kind, payload):
        calls["n"] += 1
        out = workload.op(api, kind, payload)
        if payload is pool[0][2] or payload is pool[1][2]:
            return _wrong(out)  # wrong distance on an SU(2) and an SO(3) input
        if payload is pool[2][2]:
            raise RuntimeError("injected")
        if payload is pool[3][2] and calls["n"] > len(pool):
            return _wrong(out)  # right on the first run, wrong on the second
        return out

    rec = run.Recorder(len(pool))
    run.run_ops(srdist, op, pool, rec, count=2 * len(pool))
    assert run.failures(srdist, workload.check, pool, rec) == [2, 2, 2, 1, 0]


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_missing_hook_target_records_nothing():
    import tracing

    hooks = tracing.HOOKS + (("gone.scan", "srdist._kernels", "scan_removed"),
                             ("gone.module", "srdist.no_such_module", "f"))
    with tracing.Tracer(hooks) as tracer:
        srdist.distance_su2(srdist.SU2Element(0.6, 0.0, 0.8, 0.0))
    assert tracer.calls("gone.scan") == 0 and tracer.calls("gone.module") == 0
    assert tracer.calls("su2_distance.distance") == 1
    assert srdist.distance_su2.__module__ == "srdist.su2_distance"
    assert not hasattr(srdist.distance_su2, "__wrapped__")


def test_changed_signature_is_timed_but_not_counted(monkeypatch):
    import types

    import tracing

    fake = types.ModuleType("srdist.fake_kernels")
    fake.scan_su2 = lambda target, betas: "scanned"  # a scan without the phi0 axis
    monkeypatch.setitem(sys.modules, "srdist.fake_kernels", fake)
    with tracing.Tracer((("kernels.scan_su2", "srdist.fake_kernels", "scan_su2"),)) as tracer:
        assert fake.scan_su2(None, [0.0]) == "scanned"
    assert tracer.calls("kernels.scan_su2") == 1
    assert tracer.counts["scan.cells"] == 0

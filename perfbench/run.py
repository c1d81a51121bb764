"""Layered benchmark of srdist: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload distance-edge --seed 1 --seconds 50 --trace 0

Workloads are `distance-edge` and `oracle` (see `workloads.py` and
README.md).  The program under test is imported from
`src/` next to this directory; without it the run exits with code 2.

With `--trace 0` the ops cycle through the workload's pool untraced for
`--seconds` and the end-to-end metrics are printed; an input's latency is
its fastest run, divided by the run's slowdown (see `calibrate.py`).  With `--trace 1` a fixed pass of the workload's first
items alternates untraced and traced (see `tracing.py`) for `--seconds`,
then the defect probes run once, and the per-layer metrics are printed:
counts per pass, times per call, failed probe inputs per stratum, and the
tracing overhead.  Every output is checked after the timed phase.  Each
metric is printed as `name value unit`, then one `stamp {...}` line with
the run's provenance, and last one JSON line
`{"correct", "attempted", "failed", "metrics"}`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_PROBES = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Raised:
    """Output of an op that raised; equal to another of the same type and message."""

    def __init__(self, exc: Exception):
        self.key = (type(exc).__name__, str(exc))

    def __eq__(self, other):
        return isinstance(other, Raised) and other.key == self.key


class Recorder:
    """Per pool position: runs, fastest latency, and runs whose output differs from the first."""

    def __init__(self, size: int):
        self.ops = 0
        self.first = [None] * size
        self.runs = [0] * size
        self.best = [math.inf] * size
        self.mismatches = [0] * size

    def record(self, j: int, out, seconds: float) -> None:
        self.ops += 1
        if self.runs[j] == 0:
            self.first[j] = out
        elif out != self.first[j]:
            self.mismatches[j] += 1
        self.runs[j] += 1
        if seconds < self.best[j]:
            self.best[j] = seconds

    def fastest(self) -> list[float]:
        """Fastest latency of every input that ran."""
        return [b for b, r in zip(self.best, self.runs) if r]


def run_ops(api, op, pool, rec: Recorder, seconds=None, count=None, between=None) -> float:
    """Run ops in pool order (wrapping) for `seconds`, or exactly `count` ops; returns wall time.

    `between(now)`, if given, is called after every op, outside its timing.
    """
    n = len(pool)
    clock = time.perf_counter
    start = now = clock()
    deadline = start + seconds if seconds is not None else None
    i = 0
    while (count is None and now < deadline) or (count is not None and i < count):
        j = i % n
        kind, _, payload = pool[j]
        t0 = clock()
        try:
            out = op(api, kind, payload)
        except Exception as exc:  # a failed op is counted, not fatal
            out = Raised(exc)
        now = clock()
        rec.record(j, out, now - t0)
        if between is not None:
            between(now)
            now = clock()
        i += 1
    return now - start


def stratum_ranks(pool) -> list[int]:
    """Each item's position among the pool's items of its stratum."""
    seen = Counter()
    ranks = []
    for _, stratum, _ in pool:
        ranks.append(seen[stratum])
        seen[stratum] += 1
    return ranks


def failures(api, check, pool, rec: Recorder) -> list[int]:
    """Failed ops per pool position: every run of an input whose output is wrong."""
    failed = [0] * len(pool)
    for j, (runs, rank) in enumerate(zip(rec.runs, stratum_ranks(pool))):
        if runs == 0:
            continue
        out = rec.first[j]
        try:
            ok = not isinstance(out, Raised) and check(api, rank, pool[j], out)
        except Exception:  # a check that cannot run marks the output wrong
            ok = False
        failed[j] = rec.mismatches[j] if ok else runs
    return failed


def failed_by_stratum(pool, failed: list[int]) -> Counter:
    counts = Counter()
    for (_, stratum, _), f in zip(pool, failed):
        counts[stratum] += f
    return counts


_PROBE = r"""
import sys, time
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
t0 = time.perf_counter()
import srdist
import_s = time.perf_counter() - t0
import calibrate, workloads
items = workloads.make_pool(name, seed)[:2]
probe = workloads.WORKLOADS[name].probe
def timed():
    t = time.perf_counter()
    for kind, _, payload in items:
        try:
            probe(srdist, kind, payload)
        except Exception:
            pass
    return time.perf_counter() - t
cold = timed()
print(repr(import_s + max(0.0, cold - timed())), repr(calibrate.fastest("python", 5)))
"""


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of `import srdist` plus lazy set-up.

    Lazy set-up is the excess of a first call of the workload's probe op
    (one per kind of input) over a second call of the same; generating
    the inputs is not timed.  Each process then times the interpreter-bound
    calibration kernel, and its set-up time is divided by that slowdown
    (see calibrate.py): importing is interpreter work too.
    """
    import calibrate

    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(ROOT), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, kernel_s = map(float, out.stdout.strip().splitlines()[-1].split())
        values.append(setup_s * calibrate.REFERENCE_S["python"] / kernel_s)
    return statistics.median(values)


def end_to_end(api, workload, pool, name, seed, seconds):
    import calibrate

    # Warm-up: one untimed op of each kind, so lazy set-up is not timed here.
    run_ops(api, workload.op, pool, Recorder(len(pool)), count=2)
    rec = Recorder(len(pool))
    cal = calibrate.Calibration(workload.kernel)
    wall = run_ops(api, workload.op, pool, rec, seconds=seconds, between=cal.between_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = failures(api, workload.check, pool, rec)
    # Latency of an input is its fastest run: the loop cycles the pool, so
    # the runs of one input spread over the whole phase, and the fastest
    # misses the time other tenants of a shared host take.  It is divided
    # by the run's slowdown, for the stretches that cover a whole run.
    # Deciles are interpolated between inputs (a single input is doubled:
    # quantiles needs two points).
    slowdown = cal.slowdown()
    best = [b / slowdown for b in rec.fastest()]
    deciles = statistics.quantiles(best if len(best) > 1 else best * 2, n=10, method="inclusive")
    values = {
        "ops_per_s": 1.0 / statistics.fmean(best),
        "lat_p50_ms": deciles[4] * 1e3,
        "lat_p90_ms": deciles[8] * 1e3,
        "ok_share": 1.0 - sum(failed) / rec.ops,
        "setup_s": setup_seconds(name, seed),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    extra = {
        "wall_ops_per_s": rec.ops / wall,
        "slowdown": slowdown,
        "calibration_samples": len(cal.times),
    }
    return metrics, rec, failed, extra


def probe_failures(api, seed) -> dict:
    """`<prefix>.<stratum>.failed` of every defect probe (workloads.PROBES), run once."""
    from workloads import PROBES

    m = {}
    for prefix, make_items, op, check in PROBES:
        items = make_items(seed)
        rec = Recorder(len(items))
        run_ops(api, op, items, rec, count=len(items))
        by_stratum = failed_by_stratum(items, failures(api, check, items, rec))
        for _, stratum, _ in items:
            m[f"{prefix}.{stratum}.failed"] = (by_stratum[stratum], "count")
    return m


def per_layer(api, workload, pool, seed, seconds):
    import tracing

    items = pool[: workload.trace_pass]
    rec = Recorder(len(items))
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain_s += run_ops(api, workload.op, items, rec, count=len(items))
        with tracer:
            traced_s += run_ops(api, workload.op, items, rec, count=len(items))
        passes += 1
    failed = failures(api, workload.check, items, rec)

    m = tracer.layer_metrics(passes)
    m.update(probe_failures(api, seed))
    untraced_rate = passes * len(items) / plain_s
    traced_rate = passes * len(items) / traced_s
    m["tracing.untraced_ops_per_s"] = (untraced_rate, "1/s")
    m["tracing.traced_ops_per_s"] = (traced_rate, "1/s")
    m["tracing.overhead_share"] = (1.0 - traced_rate / untraced_rate, "share")
    return m, rec, failed, {"passes": passes}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def load_library():
    """Import srdist from this checkout's src/, or None if it is not there."""
    if not (SRC / "srdist" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import srdist

    if Path(srdist.__file__).resolve().parent != SRC / "srdist":
        return None
    return srdist


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Single-threaded numpy: set before numpy is first imported here, and
    # inherited by the set-up probes.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    api = load_library()
    if api is None:
        print(f"srdist sources not found under {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    pool = workloads.make_pool(args.workload, args.seed)
    if args.trace:
        metrics, rec, failed, extra = per_layer(api, workload, pool, args.seed, args.seconds)
    else:
        metrics, rec, failed, extra = end_to_end(
            api, workload, pool, args.workload, args.seed, args.seconds)

    n_failed = sum(failed)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": api.BACKEND,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "ops": rec.ops,
        # The latency sample count: one fastest run per input.
        "distinct_inputs": len(rec.fastest()),
        "min_runs_per_input": min(r for r in rec.runs if r),
        "failed_by_stratum": {k: v for k, v in failed_by_stratum(pool, failed).items() if v},
        **extra,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    result = {
        # The pools hold only inputs on which the program is right.
        "correct": n_failed == 0,
        "attempted": rec.ops,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

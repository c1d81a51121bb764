"""Per-call time of each layer of the shooting oracle, as one JSON line.

Usage (from the repository root):

    python3 benchmarks/oracle_layers.py

Draws N Haar SU(2) targets and N Haar rotations from default_rng(SEED),
shoots each once while recording the arguments of every `scan_su2`,
`_brackets` and `_solve` call, then times each layer by replaying those
calls and each shot by repeating it: `timeit`, best of 5, divided by the
number of calls.  The layers are timed on the arguments the shots gave
them, so the script runs unchanged on any version whose shots make those
calls.  It also times `shoot_min_time` on N rotations about axis 1
(B = 0, the Loc stratum, |arg A| = 10^U(-5, 0.49)), drawn after the Haar
draws from the same generator, as `shoot_min_time_axis1`: no Haar draw
has B = 0, so that key alone times the oracle's cut-locus path.  It
imports srdist from `src/` next to this directory.
"""
from __future__ import annotations

import json
import math
import platform
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from srdist import _kernels, oracle  # noqa: E402
from srdist.algebra import SU2Element, random_so3, random_su2  # noqa: E402

N = 200
SEED = 0


def _record(owner, name: str, calls: list):
    """Replace owner.name by a wrapper that appends each call's arguments to calls."""
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    setattr(owner, name, spy)
    return original


def _best_us(run, calls: int) -> float:
    return min(timeit.repeat(run, number=1, repeat=5)) / calls * 1e6


def main() -> None:
    rng = np.random.default_rng(SEED)
    su2 = [random_su2(rng) for _ in range(N)]
    so3 = [random_so3(rng) for _ in range(N)]
    thetas = [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 0.49) for _ in range(N)]
    axis1 = [SU2Element(math.cos(theta), math.sin(theta), 0.0, 0.0) for theta in thetas]

    recorded = {"scan_su2": [], "_brackets": [], "_solve": []}
    originals = {
        "scan_su2": _record(_kernels, "scan_su2", recorded["scan_su2"]),
        "_brackets": _record(oracle, "_brackets", recorded["_brackets"]),
        "_solve": _record(oracle, "_solve", recorded["_solve"]),
    }
    for g in su2:
        oracle.shoot_min_time(g)
    for c in so3:
        oracle.shoot_min_time_so3(c)
    _kernels.scan_su2 = originals["scan_su2"]
    oracle._brackets, oracle._solve = originals["_brackets"], originals["_solve"]

    def replay(name, consume=lambda r: r):
        f, calls = originals[name], recorded[name]
        return _best_us(lambda: [consume(f(*a)) for a in calls], len(calls))

    us = {
        "scan_su2": replay("scan_su2"),
        "_brackets": replay("_brackets", list),
        "_solve": replay("_solve"),
        "shoot_min_time": _best_us(lambda: [oracle.shoot_min_time(g) for g in su2], len(su2)),
        "shoot_min_time_so3": _best_us(lambda: [oracle.shoot_min_time_so3(c) for c in so3], len(so3)),
        "shoot_min_time_axis1": _best_us(lambda: [oracle.shoot_min_time(g) for g in axis1], len(axis1)),
    }
    print(json.dumps({
        "us_per_call": {k: round(v, 2) for k, v in us.items()},
        "calls": {k: len(v) for k, v in recorded.items()},
        "targets": {"su2": len(su2), "so3": len(so3), "axis1": len(axis1), "seed": SEED},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }))


if __name__ == "__main__":
    main()

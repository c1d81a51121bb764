"""Per-call time of each oracle layer and each element layer, as one JSON line.

Usage (from the repository root):

    python3 benchmarks/oracle_layers.py

Draws N Haar SU(2) targets and N Haar rotations from default_rng(SEED),
shoots each once while recording the arguments of every
`oracle.scan_su2`, `oracle._brackets`, `oracle._least_time`,
`oracle._solve` and `oracle._hit` call, then times each layer by
replaying those calls and each shot by repeating it: `timeit`, best of
5, divided by the number of calls.  `_least_time` runs only on shots
with two or more brackets, so its calls come from the SO(3) shots.  The
layers are timed on the arguments the shots gave them, so the script runs
unchanged on any version whose shots make those calls.  It also times
`shoot_min_time` on N rotations about axis 1 (B = 0, the Loc stratum,
|arg A| = 10^U(-5, 0.49)), drawn after the Haar draws from the same
generator, as `shoot_min_time_axis1`: no Haar draw has B = 0, so that
key alone times the oracle's cut-locus path.

On the same draws it times the element and rotation layers per call:
`SU2Element` built from four floats, `klein_omega` and `distance_su2` on
the SU(2) targets, and `SO3Element` built from a float 3x3 array (the
form perfbench passes) and from rows of floats (the form `klein_omega`,
`so3_mul` and the CLI pass), `cover_pair`, `lift_so3` and `distance_so3`
on the rotations.  It imports srdist from `src/` next to this directory.

Besides the times, `calls` counts each recorded layer's calls over all
the shots, and `solves_per_shot` gives the `_solve` calls per Haar SU(2)
shot and per Haar SO(3) shot.  An SO(3) shot has a bracket for each of
its two lifts, but solves them in the order of a lower bound on their
arrival time and stops once no bracket left can reach the best root's
time, so its count lies between 1 and 2.
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

from srdist import oracle  # noqa: E402
from srdist.algebra import (  # noqa: E402
    SO3Element,
    SU2Element,
    cover_pair,
    klein_omega,
    lift_so3,
    random_so3,
    random_su2,
)
from srdist.so3_distance import distance_so3  # noqa: E402
from srdist.su2_distance import distance_su2  # noqa: E402

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
    arrays = [np.array(c.m, dtype=float) for c in so3]
    rows = [c.m for c in so3]
    coords = [(g.a_re, g.a_im, g.b_re, g.b_im) for g in su2]

    recorded = {name: [] for name in ("scan_su2", "_brackets", "_least_time", "_solve", "_hit")}
    originals = {name: _record(oracle, name, calls) for name, calls in recorded.items()}
    for g in su2:
        oracle.shoot_min_time(g)
    su2_solves = len(recorded["_solve"])
    for c in so3:
        oracle.shoot_min_time_so3(c)
    so3_solves = len(recorded["_solve"]) - su2_solves
    for name, original in originals.items():
        setattr(oracle, name, original)

    def replay(name, consume=lambda r: r):
        f, calls = originals[name], recorded[name]
        return _best_us(lambda: [consume(f(*a)) for a in calls], len(calls))

    us = {
        "scan_su2": replay("scan_su2"),
        "_brackets": replay("_brackets", list),
        "_least_time": replay("_least_time"),
        "_solve": replay("_solve"),
        "_hit": replay("_hit"),
        "shoot_min_time": _best_us(lambda: [oracle.shoot_min_time(g) for g in su2], len(su2)),
        "shoot_min_time_so3": _best_us(lambda: [oracle.shoot_min_time_so3(c) for c in so3], len(so3)),
        "shoot_min_time_axis1": _best_us(lambda: [oracle.shoot_min_time(g) for g in axis1], len(axis1)),
        "SU2Element_floats": _best_us(lambda: [SU2Element(*q) for q in coords], len(coords)),
        "SO3Element_array": _best_us(lambda: [SO3Element(m) for m in arrays], len(arrays)),
        "SO3Element_rows": _best_us(lambda: [SO3Element(m) for m in rows], len(rows)),
        "klein_omega": _best_us(lambda: [klein_omega(g) for g in su2], len(su2)),
        "cover_pair": _best_us(lambda: [cover_pair(c) for c in so3], len(so3)),
        "lift_so3": _best_us(lambda: [lift_so3(c) for c in so3], len(so3)),
        "distance_su2": _best_us(lambda: [distance_su2(g) for g in su2], len(su2)),
        "distance_so3": _best_us(lambda: [distance_so3(c) for c in so3], len(so3)),
    }
    print(json.dumps({
        "us_per_call": {k: round(v, 2) for k, v in us.items()},
        "calls": {k: len(v) for k, v in recorded.items()},
        "solves_per_shot": {"su2": su2_solves / len(su2), "so3": so3_solves / len(so3)},
        "targets": {"su2": len(su2), "so3": len(so3), "axis1": len(axis1), "seed": SEED},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }))


if __name__ == "__main__":
    main()

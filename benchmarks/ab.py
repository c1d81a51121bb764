"""In-process A/B of a perfbench workload's op: a git revision against the working tree.

Usage (from the repository root):

    python3 benchmarks/ab.py BASE --workload {distance-edge,oracle} [--seed S] [--rounds N]

Extracts BASE's `src/srdist` with `git archive` into a temporary
directory, imports it as the package `srdist_base` and this checkout's
`src/srdist` as `srdist`, both in this process, and runs perfbench's op
of the workload (`perfbench/workloads.py`, the only perfbench module it
imports) on the workload's pool for the seed.  Each round runs every
input once on each side, back to back, alternating from input to input
which side goes first; so both sides see the same drift of the host.

It prints, per side, 1/mean over inputs of each input's best latency
over the rounds (ops per second, as perfbench's `ops_per_s` but not
divided by a calibration slowdown), the ratio of the working tree's rate
to BASE's, the rate ratio of every round and the number of rounds the
working tree won, and the number of inputs whose outputs differ by
`repr` (an op that raises gives its exception's type and message).  It
exits 1 if any output differs, and 2 if BASE cannot be archived.  `ab.py HEAD` compares the working tree
with its own commit: on a clean tree, that null run gives the noise of
the ratio.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def extract(rev: str, into: Path) -> Path:
    """BASE's `src/srdist` extracted under into; returns the package directory."""
    out = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/srdist"], capture_output=True)
    if out.returncode:
        print(f"git archive {rev}: {out.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(out.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into / "src" / "srdist"


def load(name: str, package: Path):
    """Import the package directory as the top-level package `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run(op, api, kind, payload):
    """(output, seconds) of one op; an op that raises gives its exception's type and message."""
    t0 = time.perf_counter()
    try:
        out = op(api, kind, payload)
    except Exception as exc:  # a failed op is compared, not fatal
        out = f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE", help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    pool = workloads.make_pool(args.workload, args.seed)
    op = workloads.WORKLOADS[args.workload].op
    # The extracted copy stays on disk for the run, in case a submodule is imported lazily.
    with tempfile.TemporaryDirectory() as tmp:
        sides = (load("srdist_base", extract(args.base, Path(tmp))),
                 load("srdist", ROOT / "src" / "srdist"))
        best = [[math.inf] * len(pool) for _ in sides]
        first = [[None] * len(pool) for _ in sides]
        round_ratios = []
        for r in range(args.rounds):
            spent = [0.0, 0.0]
            for j, (kind, _, payload) in enumerate(pool):
                for s in ((0, 1) if (j + r) % 2 == 0 else (1, 0)):
                    out, seconds = run(op, sides[s], kind, payload)
                    spent[s] += seconds
                    best[s][j] = min(best[s][j], seconds)
                    if r == 0:
                        first[s][j] = repr(out)
            round_ratios.append(spent[0] / spent[1])

    rates = [1.0 / statistics.fmean(b) for b in best]
    differ = sum(a != b for a, b in zip(*first))
    wins = sum(q > 1.0 for q in round_ratios)
    print(f"workload {args.workload}  seed {args.seed}  inputs {len(pool)}  rounds {args.rounds}")
    print(f"base {args.base}: {rates[0]:.1f} ops/s")
    print(f"working tree: {rates[1]:.1f} ops/s")
    print(f"ratio {rates[1] / rates[0]:.4f}")
    print("round ratios " + " ".join(f"{q:.3f}" for q in round_ratios))
    print(f"working tree won {wins} of {args.rounds} rounds")
    print(f"outputs differing by repr: {differ} of {len(pool)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of saved benchmark runs, metric by metric.

Usage:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 35 >> before.txt
    ...                                                              >> after.txt
    python3 perfbench/compare.py before.txt after.txt

Each file holds the standard output of one or more runs of `run.py`.
For every workload present in both files the median of each metric is
printed for both sides with the relative change.  Runs whose `backend`
stamps differ are not compared: the compiled scan and the numpy scan
differ by several times, so such a comparison says nothing about a
change.  Exit codes: 0 compared, 2 refused or unreadable input.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def read_runs(path: str) -> list[tuple[dict, dict]]:
    """(stamp, result) pairs in file order."""
    runs = []
    stamp = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("stamp "):
                stamp = json.loads(line[len("stamp "):])
            elif line.startswith("{") and stamp is not None:
                runs.append((stamp, json.loads(line)))
                stamp = None
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [read_runs(p) for p in argv]
    if not all(sides):
        print("no runs found in one of the files", file=sys.stderr)
        return 2
    backends = {stamp["backend"] for side in sides for stamp, _ in side}
    if len(backends) != 1:
        print(f"refusing to compare runs of different backends: {sorted(backends)}", file=sys.stderr)
        return 2

    grouped = [defaultdict(lambda: defaultdict(list)) for _ in sides]
    for side, groups in zip(sides, grouped):
        for stamp, result in side:
            key = (stamp["workload"], stamp["trace"])
            for name, metric in result["metrics"].items():
                groups[key][name].append(metric["value"])
    for key in sorted(set(grouped[0]) & set(grouped[1])):
        before, after = grouped[0][key], grouped[1][key]
        print(f"{key[0]} trace={key[1]}  runs {len(next(iter(before.values())))} vs "
              f"{len(next(iter(after.values())))}")
        for name in before:
            if name not in after:
                continue
            a, b = statistics.median(before[name]), statistics.median(after[name])
            change = f"{b / a - 1.0:+.2%}" if a else "n/a"
            print(f"  {name:40s} {a:14.6g} {b:14.6g} {change:>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

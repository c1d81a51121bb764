"""Per-call time of each oracle, element and perfbench layer, as one JSON line; with BASE, against a git revision.

Usage (from the repository root):

    python3 benchmarks/oracle_layers.py [BASE] [--seed S] [--rounds N] [--out PATH]

Draws N Haar SU(2) targets and N Haar rotations from default_rng(S)
(S = 0 by default), shoots each once while recording the arguments of
every `oracle.scan_su2`, `oracle._brackets`, `oracle._least_time`,
`oracle._solve` and `oracle._hit` call, then times each layer by
replaying those calls and each shot by repeating it.  `_least_time` runs
only on shots with two or more brackets, so its calls come from the
SO(3) shots.  The layers are timed on the arguments the shots gave them,
so the script runs unchanged on any version whose shots make those
calls.  It also times `shoot_min_time` on N rotations about axis 1
(B = 0, the Loc stratum, |arg A| = 10^U(-5, 0.49)), drawn after the Haar
draws from the same generator, as `shoot_min_time_axis1`: no Haar draw
has B = 0, so that key alone times the oracle's cut-locus path.
`shoot_min_time_tiny_b` and `shoot_min_time_so3_tiny_b` time the 40
fixed pairs of `verify._tiny_b_pairs` (|B| = 1e-36 ... 1e-308) and their
rotations, where the root lies far below the samples in tau'.

On the same draws it times the element and rotation layers per call:
`SU2Element` built from four floats, `klein_omega`, `distance_su2` and
`in_cut_locus_su2_l2` on the SU(2) targets, and `SO3Element` built from a
float 3x3 array (the form perfbench passes) and from rows of floats (the
form `klein_omega`, `so3_mul` and the CLI pass), `cover_pair`,
`lift_so3`, `distance_so3` and `classify_cut_locus_so3` on the
rotations.  So each piece of a perfbench `distance-edge` op (element,
distance, cut-locus stratum) has a key of its own.  `distance_su2_edge`
times `distance_su2` on two of perfbench's edge bands, N pairs at
|A| = 1e-11 and N at 1 - |A| = 1e-8 with uniform phases
(`verify._pair`), drawn after the axis-1 draws: most `distance-edge`
strata take about 2 arc evaluations per solve, where a Haar draw takes
about 4.  `perfbench_distance_edge` and `perfbench_oracle` time
perfbench's op of the `distance-edge` and `oracle` workloads on the
workload's pool for the seed (`perfbench/workloads.py`, the only
perfbench module imported), repeated until a batch holds at least N
calls, as a layer batch does: the `oracle` pool of 16 ops runs 13 times
per batch, the `distance-edge` pool of 2,176 once.

Besides the times, `calls` counts each recorded layer's calls over all
the shots, and `solves_per_shot` gives the `_solve` calls per Haar SU(2)
shot and per Haar SO(3) shot.  An SO(3) shot has a bracket for each of
its two lifts, but solves them in the order of a lower bound on their
arrival time and stops once no bracket left can reach the best root's
time, so its count lies between 1 and 2.  `tiny_b` and `so3_tiny_b`
give the same on the tiny-|B| targets and their rotations.
`solve_evals_per_distance` gives the arc evaluations per `distance_su2`
call on the Haar SU(2) targets (`haar`) and on the edge pairs (`edge`),
counted by wrapping `su2_distance.solve_monotone`'s f.

The inputs are drawn once, as the floats each tree's constructors
receive; each tree builds its own elements and records its own layer
calls and counts.  In each of N rounds (20 by default) every key's batch
runs once per tree, the tree that goes first alternating from key to key
and from round to round; a key's time is its least batch time over the
rounds, divided by its calls.  With BASE, BASE's `src/srdist` is
extracted with `git archive` and imported as `srdist_base` beside this
checkout's, in one process; the line then also holds BASE's times and
counts, the keys whose function BASE lacks (skipped) and, per key,
`compare`'s ratio, quartiles, rounds won and differing outputs.  Exit 1
if any output differs, 2 if BASE cannot be archived or the working tree
cannot time a layer it records.  `oracle_layers.py HEAD` on a clean tree
is a null run: its ratios are each key's noise.

The line ends with a `stamp` of the run: the checkout's git SHA and
whether its tracked files differ from it (`dirty`), Python, numpy,
machine, CPU count, seed and rounds; with BASE, `base` also holds the
SHA that BASE names.  It goes to stdout, or with `--out PATH` to PATH,
which is how a committed `BENCH_<n>.json` trajectory file is written.
"""
import argparse
import functools
import gc
import importlib.util
import json
import math
import operator
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N = 200
# Replayed on each tree's own recorded arguments, which may differ between trees, so their outputs are not compared.
REPLAYED = ("scan_su2", "_brackets", "_least_time", "_solve", "_hit")
# key: (module, function, arguments); the arguments are the tree's elements built from a drawn set, or the drawn floats.
KEYS = {
    "shoot_min_time": ("oracle", "shoot_min_time", "su2"),
    "shoot_min_time_so3": ("oracle", "shoot_min_time_so3", "so3"),
    "shoot_min_time_axis1": ("oracle", "shoot_min_time", "axis1"),
    "shoot_min_time_tiny_b": ("oracle", "shoot_min_time", "tiny_b"),
    "shoot_min_time_so3_tiny_b": ("oracle", "shoot_min_time_so3", "so3_tiny_b"),
    "SU2Element_floats": ("algebra", "SU2Element", "coords"),
    "SO3Element_array": ("algebra", "SO3Element", "arrays"),
    "SO3Element_rows": ("algebra", "SO3Element", "rows"),
    "klein_omega": ("algebra", "klein_omega", "su2"),
    "cover_pair": ("algebra", "cover_pair", "so3"),
    "lift_so3": ("algebra", "lift_so3", "so3"),
    "distance_su2": ("su2_distance", "distance_su2", "su2"),
    "distance_su2_edge": ("su2_distance", "distance_su2", "edge"),
    "distance_so3": ("so3_distance", "distance_so3", "so3"),
    "in_cut_locus_su2_l2": ("cutlocus", "in_cut_locus_su2_l2", "su2"),
    "classify_cut_locus_so3": ("cutlocus", "classify_cut_locus_so3", "so3"),
}
PERFBENCH = {"perfbench_distance_edge": "distance-edge", "perfbench_oracle": "oracle"}


def git(*args: str) -> str | None:
    """The stripped stdout of a git command in the checkout, or None if it fails."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(seed: int, rounds: int) -> dict:
    """The provenance of a run: git SHA and dirty flag (None outside a git checkout), versions, machine, seed, rounds."""
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
            "python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
            "cpu_count": os.cpu_count(), "seed": seed, "rounds": rounds}


def extract(rev: str, into: Path) -> Path:
    """BASE's `src/srdist` extracted under into; returns the package directory."""
    tar = into / "base.tar"
    out = subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar), rev, "src/srdist"], capture_output=True)
    if out.returncode:
        print(f"git archive {rev}: {out.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(tar) as archive:
        archive.extractall(into, filter="data")
    return into / "src" / "srdist"


def load(name: str, package: Path):
    """Import the package directory as the top-level package `name`."""
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def draw(seed: int) -> dict:
    """The inputs by set: the floats an SU2Element or SO3Element constructor receives, or a key's arguments."""
    from srdist.algebra import SU2Element, klein_omega
    from srdist.verify import _TINY_B_EXPONENTS, _pair, _tiny_b_pairs

    rng = np.random.default_rng(seed)
    floats = operator.attrgetter("a_re", "a_im", "b_re", "b_im")

    def haar():  # the floats `algebra.random_su2` passes to SU2Element
        while True:
            v = rng.standard_normal(4)
            n = math.sqrt(v.dot(v))
            if n > 1e-6:
                return tuple((v / n).tolist())

    su2 = [haar() for _ in range(N)]
    so3 = [klein_omega(SU2Element(*haar())).m for _ in range(N)]
    thetas = [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 0.49) for _ in range(N)]
    # Two of perfbench's edge bands: |A| = 1e-11 and 1 - |A| = 1e-8.
    edge = ([_pair(1e-11, math.sqrt((1.0 - 1e-11) * (1.0 + 1e-11)), *rng.uniform(-math.pi, math.pi, 2)) for _ in range(N)]
            + [_pair(1.0 - 1e-8, math.sqrt(1e-8 * (2.0 - 1e-8)), *rng.uniform(-math.pi, math.pi, 2)) for _ in range(N)])
    tiny = [g for k in _TINY_B_EXPONENTS for g in _tiny_b_pairs(k)]
    return {"su2": su2, "so3": so3, "axis1": [(math.cos(t), math.sin(t), 0.0, 0.0) for t in thetas],
            "edge": [floats(g) for g in edge], "tiny_b": [floats(g) for g in tiny],
            "so3_tiny_b": [klein_omega(g).m for g in tiny], "coords": [floats(SU2Element(*q)) for q in su2],
            "rows": [(m,) for m in so3], "arrays": [(np.array(m, dtype=float),) for m in so3]}


def _call(f, args):
    try:
        return f(*args)
    except Exception as exc:  # a failed call is compared, not fatal
        return f"{type(exc).__name__}: {exc}"


def _batch(f, calls: list):
    """The calls f(*a) as a function of no arguments returning their outputs; a batch that raises reruns by `_call`."""
    def run():
        try:
            return [f(*a) for a in calls]
        except Exception:
            return [_call(f, a) for a in calls]

    return run


def _spy(oracle, names: list, shoot, targets: list) -> dict:
    """The arguments of each call of the named oracle layers while shoot runs on the targets."""
    calls = {name: [] for name in names}
    originals = {name: getattr(oracle, name) for name in names}
    for name, f in originals.items():
        setattr(oracle, name, lambda *a, f=f, log=calls[name]: log.append(a) or f(*a))
    try:
        for target in targets:
            _call(shoot, target)
    finally:
        for name, f in originals.items():
            setattr(oracle, name, f)
    return calls


def _evals_per_distance(su2_distance, targets: list) -> float:
    """Arc evaluations per `distance_su2` call on targets; a call that solves nothing counts 0."""
    evals = []
    solve = su2_distance.solve_monotone
    su2_distance.solve_monotone = lambda f, *a: solve(lambda x: evals.append(x) or f(x), *a)
    try:
        for target in targets:
            _call(su2_distance.distance_su2, target)
    finally:
        su2_distance.solve_monotone = solve
    return len(evals) / len(targets)


def tree(api, inputs: dict, pools: dict) -> tuple[dict, dict]:
    """One tree's batches by key, on its own elements, and its counts; a key it cannot time gets no batch."""
    mod = {m: importlib.import_module(f"{api.__name__}.{m}") for m, _, _ in KEYS.values()}
    algebra, oracle, su2_distance = mod["algebra"], mod["oracle"], mod["su2_distance"]
    args = inputs | {k: [(algebra.SU2Element(*q),) for q in inputs[k]] for k in ("su2", "axis1", "edge", "tiny_b")}
    args |= {k: [(algebra.SO3Element(m),) for m in inputs[k]] for k in ("so3", "so3_tiny_b")}
    layers = [name for name in REPLAYED if hasattr(oracle, name)]
    shots = {"su2": oracle.shoot_min_time, "so3": oracle.shoot_min_time_so3,
             "tiny_b": oracle.shoot_min_time, "so3_tiny_b": oracle.shoot_min_time_so3}
    # The tiny-|B| shots are counted apart, so the replays hold the Haar shots' calls only.
    spied = {k: _spy(oracle, layers, shoot, args[k]) for k, shoot in shots.items()}
    args |= {name: spied["su2"][name] + spied["so3"][name] for name in layers}
    counts = {"calls": {name: len(args[name]) for name in layers}}
    if "_solve" in layers:
        counts["solves_per_shot"] = {k: len(spied[k]["_solve"]) / len(args[k]) for k in shots}
    if hasattr(su2_distance, "solve_monotone"):
        counts["solve_evals_per_distance"] = {k: _evals_per_distance(su2_distance, args[s])
                                              for k, s in (("haar", "su2"), ("edge", "edge"))}
    batches = {}
    for key, (module, name, arg) in ({name: ("oracle", name, name) for name in layers} | KEYS).items():
        f = getattr(mod[module], name, None)
        if name == "_brackets":  # consumed, in case it yields
            f = lambda *a, brackets=f: list(brackets(*a))  # noqa: E731
        if f and args[arg]:
            batches[key] = _batch(f, args[arg])
    return batches | {key: _batch(functools.partial(op, api), pool) for key, (op, pool) in pools.items()}, counts


def perfbench_pools(seed: int) -> dict:
    """Per perfbench key, the workload's op and its pool for the seed, repeated whole until it holds at least N calls."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    pools = {}
    for key, name in PERFBENCH.items():
        pool = [(kind, x) for kind, _, x in workloads.make_pool(name, seed)]
        pools[key] = (workloads.WORKLOADS[name].op, pool * -(-N // len(pool)))
    return pools


def interleave(sides: list[dict], rounds: int, clock=time.perf_counter) -> tuple[list[dict], list[dict]]:
    """Each side's batch seconds per round and outputs of round 0, by key, for the keys every side has.

    The side that goes first alternates from key to key and from round to round.
    """
    keys = [k for k in sides[0] if all(k in side for side in sides)]
    seconds, first, order = [{k: [] for k in keys} for _ in sides], [{} for _ in sides], range(len(sides))
    gc.disable()  # as timeit does
    try:
        for r in range(rounds):
            for i, k in enumerate(keys):
                for s in order if (i + r) % 2 == 0 else reversed(order):
                    t0 = clock()
                    out = sides[s][k]()
                    seconds[s][k].append(clock() - t0)
                    if r == 0:
                        first[s][k] = out
    finally:
        gc.enable()
    return seconds, first


def us_per_call(seconds: dict, first: dict) -> dict:
    """A key's least batch time over the rounds, in µs per call."""
    return {k: round(min(t) / len(first[k]) * 1e6, 2) for k, t in seconds.items()}


def compare(seconds: list[dict], first: list[dict]) -> tuple[dict, int]:
    """Per key, BASE (side 1) against the working tree (side 0), and the exit code: 1 if any output differs.

    `ratio` is BASE's time per call over the working tree's and `quartiles` those of the per-round ratios;
    `won` counts the rounds the working tree was faster, and `differ`, but on the replayed layers, the
    calls whose round-0 outputs differ by `repr`.
    """
    rows = {}
    for k, work in seconds[0].items():
        base, n_work, n_base = seconds[1][k], len(first[0][k]), len(first[1][k])
        ratios = [(b / n_base) / (w / n_work) for b, w in zip(base, work)]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        rows[k] = {"ratio": round((min(base) / n_base) / (min(work) / n_work), 4),
                   "quartiles": [round(q1, 4), round(q3, 4)], "won": sum(q > 1.0 for q in ratios)}
        if k not in REPLAYED:
            ours, theirs = first[0][k], first[1][k]
            rows[k]["differ"] = sum(repr(a) != repr(b) for a, b in zip(ours, theirs)) + abs(len(ours) - len(theirs))
    return rows, 1 if any(row.get("differ") for row in rows.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", metavar="BASE", help="git revision to compare the working tree against")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", metavar="PATH", help="write the JSON line to PATH instead of stdout")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    pools = perfbench_pools(args.seed)
    # The extracted copy stays on disk for the run, in case a submodule is imported lazily.
    with tempfile.TemporaryDirectory() as tmp:
        apis = [load("srdist", ROOT / "src" / "srdist")]
        if args.base:
            apis.append(load("srdist_base", extract(args.base, Path(tmp))))
        inputs = draw(args.seed)
        batches, counts = zip(*(tree(api, inputs, pools) for api in apis))
        lacking = [k for k in (*REPLAYED, *KEYS, *PERFBENCH) if k not in batches[0]]
        if lacking:
            print("the working tree cannot time: " + ", ".join(lacking), file=sys.stderr)
            return 2
        seconds, first = interleave(batches, args.rounds)

    result = {"us_per_call": us_per_call(seconds[0], first[0]), **counts[0],
              "targets": {k: len(inputs[k]) for k in ("su2", "so3", "axis1", "tiny_b", "edge")},
              "stamp": stamp(args.seed, args.rounds)}
    code = 0
    if args.base:
        result["base"] = {"rev": args.base, "sha": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
                          "us_per_call": us_per_call(seconds[1], first[1]), **counts[1],
                          "missing": [k for k in batches[0] if k not in batches[1]]}
        result["ab"], code = compare(seconds, first)
        if code:
            print("outputs differ on: " + ", ".join(f"{k} ({row['differ']} of {len(first[0][k])})"
                                                    for k, row in result["ab"].items() if row.get("differ")), file=sys.stderr)
    line = json.dumps(result)
    if args.out:
        Path(args.out).write_text(line + "\n", encoding="utf-8")
    else:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

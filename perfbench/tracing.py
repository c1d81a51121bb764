"""Span tracing of srdist's layers, installed from outside the package.

`Tracer` wraps each layer's entry point (see HOOKS) in every srdist
module that holds a reference to it, so calls made through
`from .x import f` bindings are seen too.  Each span adds its duration
to the span that caused it; a layer's self time is its duration minus
its child spans.  Spans are aggregated per (name, parent name) as they
end, so memory stays flat over long runs.

A hook whose target no longer exists is skipped: it records nothing, and
the metrics built on it read 0.  A count that no longer fits its target's
arguments or result is skipped the same way, and the call goes through.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  One span name may cover several
# entry points.
HOOKS = (
    ("su2_distance.solve", "srdist.su2_distance", "solve_monotone"),
    ("su2_distance.distance", "srdist.su2_distance", "distance_su2"),
    ("so3_distance.distance", "srdist.so3_distance", "distance_so3"),
    ("algebra.su2_element", "srdist.algebra", "SU2Element.__init__"),
    ("algebra.so3_element", "srdist.algebra", "SO3Element.__init__"),
    ("algebra.lift_so3", "srdist.algebra", "lift_so3"),
    ("cutlocus.classify", "srdist.cutlocus", "classify_cut_locus_so3"),
    ("cutlocus.classify", "srdist.cutlocus", "in_cut_locus_su2_l2"),
    ("kernels.scan_su2", "srdist._kernels", "scan_su2"),
    ("kernels.scan_so3", "srdist._kernels", "scan_so3"),
    ("oracle.shoot_su2", "srdist.oracle", "shoot_min_time"),
    ("oracle.shoot_so3", "srdist.oracle", "shoot_min_time_so3"),
)

CASES = ("A_ZERO", "ABS_A_ONE", "BOUNDARY", "SHORT", "LONG")


def _resolve(module: str, path: str):
    """(owner, attribute name, original) for a hook target, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        return None


class Tracer:
    """Installs the hooks while used as a context manager."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        # (name, parent) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ queries

    def calls(self, name: str, parent=...) -> int:
        return sum(v[0] for (n, p), v in self.spans.items() if n == name and parent in (..., p))

    def total(self, name: str, parent=...) -> float:
        return sum(v[1] for (n, p), v in self.spans.items() if n == name and parent in (..., p))

    def self_time(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.spans.items() if n == name)

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}: counts per pass, times per call."""
        c = self.counts

        def per_call(total, calls, scale):
            return total / calls * scale if calls else 0.0

        def mean(span, scale):
            return per_call(self.total(span), self.calls(span), scale)

        solves = self.calls("su2_distance.solve")
        m = {
            "su2_distance.solve.calls": (solves / passes, "count"),
            "su2_distance.solve.evals_per_call": (per_call(c["solve.evals"], solves, 1.0), "count"),
            "su2_distance.solve.us": (mean("su2_distance.solve", 1e6), "us"),
        }
        for group in ("su2_distance", "so3_distance"):
            span = f"{group}.distance"
            m[f"{span}.self_us"] = (per_call(self.self_time(span), self.calls(span), 1e6), "us")
            for case in CASES:
                m[f"{group}.case.{case}.count"] = (c[f"{group}.case.{case}"] / passes, "count")
        for span in ("algebra.su2_element", "algebra.so3_element", "algebra.lift_so3", "cutlocus.classify"):
            m[f"{span}.us"] = (mean(span, 1e6), "us")
        m["algebra.lift_so3.calls"] = (self.calls("algebra.lift_so3") / passes, "count")
        for span in ("kernels.scan_su2", "kernels.scan_so3", "oracle.shoot_su2", "oracle.shoot_so3"):
            m[f"{span}.s"] = (mean(span, 1.0), "s")
        scan_s = self.total("kernels.scan_su2") + self.total("kernels.scan_so3")
        m["kernels.scan.cells"] = (c["scan.cells"] / passes, "count")
        m["kernels.scan.ns_per_cell"] = (per_call(scan_s, c["scan.cells"], 1e9), "ns")
        # The oracle's own work: shoot minus its child spans (scan, beta hint).
        shoots = ("oracle.shoot_su2", "oracle.shoot_so3")
        hints = [(d, s) for s in shoots for d in ("su2_distance.distance", "so3_distance.distance")]
        m["oracle.refine.self_s"] = (
            per_call(sum(map(self.self_time, shoots)), sum(map(self.calls, shoots)), 1.0), "s")
        m["oracle.beta_hint.us"] = (
            per_call(sum(self.total(*h) for h in hints), sum(self.calls(*h) for h in hints), 1e6), "us")
        m["oracle.minimizers.count"] = (c["oracle.minimizers"] / passes, "count")
        return m

    # ------------------------------------------------------- installation

    def __enter__(self):
        for name, module, path in self.hooks:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr, original = target
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # Every srdist module (and the package) that bound the same object.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "srdist" or mod_name.startswith("srdist.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stack, spans, counts = self._stack, self.spans, self.counts
        on_result = _RESULT_COUNTERS.get(name)
        count_args = _ARG_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_args is not None:
                try:
                    args = count_args(counts, args)
                except (TypeError, ValueError):
                    pass
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                agg = spans[(name, parent[0] if parent else None)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if on_result is not None:
                try:
                    on_result(counts, result)
                except (AttributeError, TypeError):
                    pass
            return result

        return wrapper


def _count_evals(counts, args):
    f, *rest = args

    def counted(beta):
        counts["solve.evals"] += 1
        return f(beta)

    return (counted, *rest)


def _count_cells(counts, args):
    _, phis, betas, n_t = args[:4]
    counts["scan.cells"] += len(phis) * len(betas) * int(n_t)
    return args


def _count_case(group):
    def on_result(counts, result):
        counts[f"{group}.case.{result.case.name}"] += 1

    return on_result


def _count_minimizers(counts, result):
    counts["oracle.minimizers"] += len(result.minimizers)


_ARG_COUNTERS = {
    "su2_distance.solve": _count_evals,
    "kernels.scan_su2": _count_cells,
    "kernels.scan_so3": _count_cells,
}
_RESULT_COUNTERS = {
    "su2_distance.distance": _count_case("su2_distance"),
    "so3_distance.distance": _count_case("so3_distance"),
    "oracle.shoot_su2": _count_minimizers,
    "oracle.shoot_so3": _count_minimizers,
}

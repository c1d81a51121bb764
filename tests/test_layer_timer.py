"""The timing loop of `benchmarks/oracle_layers.py`, on two fake trees.

The script is loaded by file path.  Each fake batch logs which side ran
it, moves a fake clock by a set number of seconds and returns set
outputs, so the loop's order, its least-time rule and its output
comparison are checked without git or any srdist timing.
"""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "oracle_layers", Path(__file__).resolve().parents[1] / "benchmarks" / "oracle_layers.py"
)
oracle_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_layers)

ROUNDS = 3


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


def _side(s, clock, log, seconds, outputs):
    """Side s: the batch of key k in round r logs (s, k), takes seconds[k][r] and returns outputs[k][r]."""
    def batch(k):
        rounds = iter(range(ROUNDS))

        def run():
            r = next(rounds)
            log.append((s, k))
            clock.now += seconds[k][r]
            return outputs[k][r]

        return run

    return {k: batch(k) for k in seconds}


def _run(seconds, outputs):
    clock, log = Clock(), []
    sides = [_side(s, clock, log, seconds[s], outputs[s]) for s in (0, 1)]
    return (*oracle_layers.interleave(sides, ROUNDS, clock=clock), log)


SAME = [[1.0, 2.0]] * ROUNDS


def test_first_side_alternates_per_key_and_per_round():
    seconds = {k: [1.0] * ROUNDS for k in ("a", "b", "c")}
    outputs = {k: SAME for k in seconds}
    *_, log = _run([seconds, seconds], [outputs, outputs])
    expected = [(s, k) for r in range(ROUNDS) for i, k in enumerate("abc")
                for s in ((0, 1) if (i + r) % 2 == 0 else (1, 0))]
    assert log == expected


def test_time_is_the_least_over_the_rounds():
    work = {"a": [3.0, 1.0, 2.0]}
    base = {"a": [4.0, 6.0, 3.0]}
    seconds, first, _ = _run([work, base], [{"a": SAME}, {"a": SAME}])
    assert seconds == [work, base]
    # Two calls per batch: 1 s and 3 s per batch are 0.5e6 and 1.5e6 µs per call.
    assert oracle_layers.us_per_call(seconds[0], first[0]) == {"a": 0.5e6}
    assert oracle_layers.us_per_call(seconds[1], first[1]) == {"a": 1.5e6}
    rows, code = oracle_layers.compare(seconds, first)
    assert rows["a"]["ratio"] == 3.0
    assert rows["a"]["won"] == 3
    assert code == 0


def test_outputs_are_compared_from_round_zero_only():
    seconds = {k: [1.0] * ROUNDS for k in ("same", "late", "early", "_solve")}
    work = {k: SAME for k in seconds}
    base = {
        "same": SAME,
        "late": [SAME[0], [9.0, 9.0], [9.0, 9.0]],  # differs after round 0
        "early": [[1.0, 2.5], SAME[1], SAME[2]],  # one of two calls differs in round 0
        "_solve": [[9.0, 9.0]] * ROUNDS,  # a replayed layer: not compared
    }
    seconds, first, _ = _run([seconds, seconds], [work, base])
    rows, code = oracle_layers.compare(seconds, first)
    assert {k: row.get("differ") for k, row in rows.items()} == {"same": 0, "late": 0, "early": 1, "_solve": None}
    assert code == 1


@pytest.mark.parametrize("base_outputs, code", [(SAME, 0), ([[1.0]] * ROUNDS, 1)])
def test_a_missing_output_counts_as_differing(base_outputs, code):
    seconds = {"a": [1.0] * ROUNDS}
    seconds, first, _ = _run([seconds, seconds], [{"a": SAME}, {"a": base_outputs}])
    rows, got = oracle_layers.compare(seconds, first)
    assert (rows["a"]["differ"], got) == (code, code)


@pytest.mark.parametrize("argv", [["--rounds", "0"], ["--seed", "-1"]], ids=["rounds-0", "negative-seed"])
def test_bad_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        oracle_layers.main(argv)
    assert exc.value.code == 2
    assert "error: --" in capsys.readouterr().err

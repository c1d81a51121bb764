"""The README's citations resolve, and its CLI lines run.

The README is an index: it states a contract per entry point and cites,
for each figure, the test, check or layer-timer key that produces it.
`citation_errors` checks five kinds of citation in a Markdown text:

- `tests/<file>.py::<name>[::<name>]` names a test function, or a test
  class and its method, found by reading the file with `ast`;
- a backticked repository path (one with a `/` or a file extension)
  exists;
- a backticked name qualified by `srdist.` or by a submodule of srdist
  (`oracle.REFINED_TOL`) resolves by `getattr`, importing submodules on
  the way;
- a backticked `oracle_layers:<key>` occurs as a string literal in
  `benchmarks/oracle_layers.py`;
- a backticked `BENCH_<n>.json:<dotted.key>` names a committed layer-timer
  file and a path of keys into its JSON object (`ab._brackets.ratio`).
"""
import ast
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import srdist
from srdist import cli

ROOT = Path(__file__).resolve().parents[1]

_TEST = re.compile(r"tests/(\w+)\.py::(\w+(?:::\w+)*)")
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`]+)`")
_PATH = re.compile(r"[\w.\-/]+")
_EXTENSIONS = (".py", ".md", ".json", ".toml", ".yml")
_SUBMODULES = {m.name for m in pkgutil.iter_modules(srdist.__path__)}
_NAME = re.compile(r"(?:srdist|{})(?:\.\w+)+".format("|".join(sorted(_SUBMODULES))))
_LAYER_KEY = re.compile(r"oracle_layers:(\w+)")
_BENCH_KEY = re.compile(r"(BENCH_\d+\.json):(\w+(?:\.\w+)*)")


def _test_exists(file: str, names: list[str]) -> bool:
    path = ROOT / "tests" / f"{file}.py"
    if not path.is_file():
        return False
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return node.name.startswith("test" if isinstance(node, ast.FunctionDef) else "Test")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] != "srdist":
        parts.insert(0, "srdist")
    obj = srdist
    for i in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[i])
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[: i + 1]))
            except ModuleNotFoundError:
                return False
    return True


def _layer_keys() -> set[str]:
    tree = ast.parse((ROOT / "benchmarks" / "oracle_layers.py").read_text())
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _bench_key_exists(file: str, dotted: str) -> bool:
    path = ROOT / file
    if not path.is_file():
        return False
    obj = json.loads(path.read_text(encoding="utf-8"))
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return False
        obj = obj[key]
    return True


def citation_errors(text: str) -> list[str]:
    """One message per citation in text that does not resolve."""
    errors = [
        f"no test {m.group(0)}" for m in _TEST.finditer(text) if not _test_exists(m.group(1), m.group(2).split("::"))
    ]
    for span in _SPAN.findall(_FENCE.sub("", text)):
        if _PATH.fullmatch(span) and ("/" in span or span.endswith(_EXTENSIONS)):
            if not (ROOT / span).exists():
                errors.append(f"no path {span}")
        elif m := _NAME.match(span):
            if not _resolves(m.group(0)):
                errors.append(f"no name {m.group(0)}")
        elif (m := _LAYER_KEY.fullmatch(span)) and m.group(1) not in _layer_keys():
            errors.append(f"no oracle_layers key {m.group(1)}")
        elif (m := _BENCH_KEY.fullmatch(span)) and not _bench_key_exists(m.group(1), m.group(2)):
            errors.append(f"no BENCH key {span}")
    return errors


def test_readme_citations_resolve():
    assert citation_errors((ROOT / "README.md").read_text()) == []


def test_each_fabricated_citation_is_reported():
    text = """
    Held by tests/test_oracle.py::TestAxis1Targets::test_su2 and
    tests/test_oracle.py::TestAxis1Targets::test_nowhere; see
    `src/srdist/oracle.py` and `src/srdist/nowhere.py`, `oracle.REFINED_TOL`
    and `oracle.NOWHERE`, `oracle_layers:solves_per_shot` and
    `oracle_layers:nowhere`, `BENCH_42.json:ab._brackets.ratio`,
    `BENCH_42.json:ab._brackets.nowhere` and `BENCH_1.json:stamp`.
    """
    assert citation_errors(text) == [
        "no test tests/test_oracle.py::TestAxis1Targets::test_nowhere",
        "no path src/srdist/nowhere.py",
        "no name oracle.NOWHERE",
        "no oracle_layers key nowhere",
        "no BENCH key BENCH_42.json:ab._brackets.nowhere",
        "no BENCH key BENCH_1.json:stamp",
    ]


def _cli_lines() -> list[str]:
    """The `srdist ...` lines of the sh block under the README's `## CLI` heading."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    return [line for line in block.splitlines() if line.startswith("srdist ")]


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_lines_run(capsys, line):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out

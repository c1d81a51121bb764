import json
import math
import subprocess
import sys

import pytest

from srdist import ShootNoMatchError, verify
from srdist.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_su2_text(capsys):
    code, out, _ = run_cli(
        capsys,
        "dist", "su2", "--a-re", "0.6", "--a-im", "0", "--b-re", "0.8", "--b-im", "0",
    )
    assert code == 0
    lines = dict(l.split(" = ") for l in out.strip().splitlines())
    assert float(lines["t"]) == pytest.approx(2 * math.asin(0.8), abs=1e-12)
    assert lines["case"] == "Case4_Short"
    assert float(lines["beta"]) == pytest.approx(0.0, abs=1e-12)


def test_dist_su2_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "dist", "su2", "--a-re", "0", "--a-im", "0", "--b-re", "1", "--b-im", "0",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "su2"
    assert payload["command"] == "dist"
    rec = payload["records"][0]
    assert rec["t"] == pytest.approx(math.pi, abs=1e-15)
    assert rec["case"] == "Case1_Azero"


def test_dist_so3(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "so3", "--matrix", "1,0,0,0,-1,0,0,0,-1", "--json"
    )
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["t"] == pytest.approx(math.pi * math.sqrt(3.0), abs=1e-12)
    assert rec["case"] == "Case2_AbsAone"


def test_dist_so3_near_involution(capsys):
    # A half turn about axis 2 short of pi by 2e-5: the lift must not
    # divide by the cancelled sqrt(1 + trace).
    code, out, _ = run_cli(
        capsys, "dist", "so3", "--json",
        "--matrix=-0.9999999998,0,1.9999999998920157e-05,0,1,0,"
        "-1.9999999998920157e-05,0,-0.9999999998",
    )
    assert code == 0
    assert json.loads(out)["records"][0]["t"] == pytest.approx(math.pi - 2e-5, abs=1e-9)


def test_dist_rejects_non_unit(capsys):
    code, _, err = run_cli(
        capsys,
        "dist", "su2", "--a-re", "2", "--a-im", "0", "--b-re", "0", "--b-im", "0",
    )
    assert code == 2
    assert "error" in err


def test_bad_matrix_exit_2(capsys):
    code, _, err = run_cli(capsys, "dist", "so3", "--matrix", "1,0,0")
    assert code == 2
    assert "9 comma-separated" in err


def test_non_numeric_matrix_entry_exit_2(capsys):
    code, out, err = run_cli(capsys, "dist", "so3", "--matrix", "1,0,0,0,x,0,0,0,1")
    assert code == 2
    assert out == ""
    assert err == "error: bad matrix entry: could not convert string to float: 'x'\n"


def test_missing_args_exit_2(capsys):
    assert run_cli(capsys, "dist", "su2")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_unwritable_out_exit_2(tmp_path, capsys):
    out_file = tmp_path / "missing" / "geo.csv"
    code, out, err = run_cli(
        capsys,
        "geodesic", "--group", "su2", "--phi0", "0", "--beta", "0",
        "--t-max", "1", "--steps", "2", "--out", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(out_file) in err


def test_geodesic_csv_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "geo.csv"
    code, _, _ = run_cli(
        capsys,
        "geodesic", "--group", "su2", "--phi0", "0.3", "--beta", "1.5",
        "--t-max", "2.0", "--steps", "8", "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_bytes().decode()
    lines = text.strip().split("\n")
    assert lines[0] == "t,a_re,a_im,b_re,b_im"
    assert len(lines) == 10
    # repr round-trip: re-parsing and re-printing reproduces the bytes
    for line in lines[1:]:
        rebuilt = ",".join(repr(float(v)) for v in line.split(","))
        assert rebuilt == line


def test_geodesic_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "geodesic", "--group", "so3", "--phi0", "0", "--beta", "0",
        "--t-max", str(math.pi), "--steps", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "geodesic"
    assert payload["params"]["steps"] == 2
    last = payload["records"][-1]
    assert last["m11"] == pytest.approx(-1.0, abs=1e-12)
    assert last["m22"] == pytest.approx(1.0, abs=1e-12)


def test_geodesic_bad_steps(capsys):
    code, _, _ = run_cli(
        capsys,
        "geodesic", "--group", "su2", "--phi0", "0", "--beta", "0",
        "--t-max", "1", "--steps", "0",
    )
    assert code == 2


@pytest.mark.parametrize("t_max", ["nan", "-nan", "inf", "-inf", "0", "-1"])
def test_geodesic_rejects_bad_t_max(capsys, t_max):
    code, out, err = run_cli(
        capsys,
        "geodesic", "--group", "su2", "--phi0", "0", "--beta", "0",
        f"--t-max={t_max}", "--steps", "2",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --t-max ")


def test_geodesic_time_overflow_names_it(capsys):
    # t*sqrt(1 + beta^2) overflows at the last step: the error says so.
    code, out, err = run_cli(
        capsys,
        "geodesic", "--group", "su2", "--phi0", "0", "--beta", "10",
        "--t-max", "1e308", "--steps", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: geodesic parameter t = 1e+308 overflows t*sqrt(1 + beta^2), beta = 10.0\n"


def test_sphere_samples_lie_on_sphere(capsys):
    code, out, err = run_cli(
        capsys,
        "sphere", "--group", "su2", "--radius", "1.5", "--samples", "40",
        "--seed", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["kept"] + payload["params"]["discarded"] == 40
    for rec in payload["records"]:
        assert abs(rec["r"] - 1.5) <= 1e-6


def test_sphere_radius_beyond_diameter(capsys):
    code, _, _ = run_cli(
        capsys,
        "sphere", "--group", "su2", "--radius", "7.0", "--samples", "5",
    )
    assert code == 2


@pytest.mark.parametrize("radius", ["nan", "-nan", "inf", "-inf", "0", "-1", "5e-324"])
def test_sphere_rejects_bad_radius(capsys, radius):
    code, out, err = run_cli(
        capsys, "sphere", "--group", "su2", f"--radius={radius}", "--samples", "5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --radius ")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sphere_rejects_non_positive_samples(capsys, samples):
    code, out, err = run_cli(
        capsys, "sphere", "--group", "su2", "--radius", "1.5", f"--samples={samples}",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --samples must be positive\n"


def test_sphere_tiny_radius(capsys):
    # (2*pi/R)^2 overflows for R below about 4.7e-154; the beta bound must not.
    # Both samples are drawn and judged.  Their |beta| ~ 1/R makes arg(A)
    # of the endpoint of order R^2, which underflows to 0, so the float
    # endpoint lies at distance 2|B| < R and neither is kept.
    code, out, err = run_cli(capsys, "sphere", "--group", "su2", "--radius", "1e-200", "--samples", "2")
    assert code == 0
    assert out.splitlines() == ["group,radius,r,phi0,beta,a_re,a_im,b_re,b_im"]
    assert err.strip() == "kept 0 / discarded 2"


def test_sphere_tolerance_is_relative(capsys):
    # An absolute 1e-6 would keep every sample at R = 1e-200, whatever its distance.
    code, out, _ = run_cli(
        capsys, "sphere", "--group", "so3", "--radius", "1e-200", "--samples", "4",
        "--seed", "0", "--format", "json",
    )
    assert code == 0
    for rec in json.loads(out)["records"]:
        assert abs(rec["r"] - 1e-200) <= 1e-6 * 1e-200


def test_cutlocus_matrix(capsys):
    code, out, _ = run_cli(capsys, "cutlocus", "--matrix=-1,0,0,0,1,0,0,0,-1")
    assert code == 0
    assert out.splitlines()[0] == "Sym"
    code, out, _ = run_cli(capsys, "cutlocus", "--su2", "0.6,0,0.8,0")
    assert out.strip() == "NotCut"
    # --su2 prints the same tag and witness as --matrix of the rotation it covers
    for su2, matrix, expected in (
        ("0,0,1,0", "-1,0,0,0,1,0,0,0,-1", ["Sym", "|Re A| = 0.000e+00"]),
        ("0.6,0.8,0,0", "1,0,0,0,-0.28,-0.96,0,0.96,-0.28", ["Loc", "|B| = 0.000e+00"]),
    ):
        assert run_cli(capsys, "cutlocus", "--su2", su2)[1].splitlines() == expected
        assert run_cli(capsys, "cutlocus", f"--matrix={matrix}")[1].splitlines() == expected


def test_cutlocus_requires_input(capsys):
    assert run_cli(capsys, "cutlocus")[0] == 2


def test_cutlocus_rejects_both_inputs(capsys):
    code, out, err = run_cli(
        capsys, "cutlocus", "--matrix=-1,0,0,0,1,0,0,0,-1", "--su2", "0.6,0,0.8,0"
    )
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "br-counterexample", "--n", "10"
    )
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_oracle_uses_requested_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--n", "12")
    assert code == 0
    assert "(12 targets)" in out


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("suite", ["all", "oracle", "lemmas"])
def test_verify_rejects_non_positive_count(capsys, suite, n):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, f"--n={n}")
    assert code == 2
    assert out == ""
    assert err == "error: --n must be positive\n"


def test_verify_all_passes_one_line_per_record(capsys, monkeypatch):
    recorded, run_suites = [], verify.run_suites

    def recording_run_suites(*args):
        recorded.extend(run_suites(*args))
        return recorded

    monkeypatch.setattr(verify, "run_suites", recording_run_suites)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "20", "--seed", "0")
    assert code == 0
    assert {suite for suite, _ in recorded} == set(verify.SUITES)
    assert out.splitlines() == [
        f"[PASS] {suite}: {check.name} - {check.detail}" for suite, check in recorded
    ]


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    failing = lambda rng, n: [verify.CheckResult("x", 1.0, 0.0)]
    monkeypatch.setitem(verify.SUITES, "always-fails", failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "always-fails")
    assert code == 1
    assert out.startswith("[FAIL] always-fails: x")


def test_verify_oracle_reports_a_failed_shot(capsys, monkeypatch):
    # A shot that finds no root fails one record of its own; the other
    # records still print, and the exit code says a check failed.
    calls, shoot = [], verify.shoot_min_time

    def third_shot_fails(target):
        calls.append(target)
        if len(calls) == 3:
            raise ShootNoMatchError("no root")
        return shoot(target)

    monkeypatch.setattr(verify, "shoot_min_time", third_shot_fails)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--n", "5")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("[PASS] oracle: ") for line in lines[:4])
    assert lines[4] == "[FAIL] oracle: oracle shots with no root at the target - 1 (tol 0)"


def test_entry_point_subprocess(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "srdist.cli", "dist", "su2",
         "--a-re", "1", "--a-im", "0", "--b-re", "0", "--b-im", "0"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert "t = 0.0" in proc.stdout


def test_package_runs_as_module(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "srdist", "verify", "--suite", "oracle", "--n", "5"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("[PASS] oracle: ") for line in lines)

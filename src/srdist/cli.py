"""Command-line interface.

Subcommands: dist, geodesic, sphere, cutlocus, verify.  Exit codes:
0 success, 1 verification failure, 2 usage, input or output-file error.
All numbers are printed in shortest round-trip decimal form (<= 17
significant digits), so emitted files diff identically across platforms.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from . import verify as verify_mod
from .algebra import InvalidElementError, SO3Element, SU2Element
from .cutlocus import classify_cut_locus_so3, classify_pair
from .geodesics import GeodesicParams, geodesic_point, geodesic_point_so3
from .so3_distance import SO3_DIAMETER_BOUND, distance_so3
from .su2_distance import distance_su2

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_opt(x: Optional[float]) -> str:
    return "non-unique" if x is None else _fmt(x)


def _parse_floats(text: str, count: int, usage: str, item: str) -> list[float]:
    """`count` comma-separated reals; `usage` on a wrong count, "bad <item>: ..." on a non-real."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise UsageError(usage)
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad {item}: {exc}") from exc


def _parse_matrix(text: str) -> SO3Element:
    vals = _parse_floats(text, 9, "--matrix expects 9 comma-separated reals (row-major)", "matrix entry")
    return SO3Element((vals[0:3], vals[3:6], vals[6:9]))


def _su2_endpoint(p: GeodesicParams, t: float) -> tuple[SU2Element, list[float]]:
    g = geodesic_point(p, t)
    return g, [g.a_re, g.a_im, g.b_re, g.b_im]


def _so3_endpoint(p: GeodesicParams, t: float) -> tuple[SO3Element, list[float]]:
    c = geodesic_point_so3(p, t)
    return c, [v for row in c.m for v in row]


# Per group: the element's columns, a geodesic's endpoint as (element,
# its values in those columns), and the distance of an element.
_GROUPS = {
    "su2": (["a_re", "a_im", "b_re", "b_im"], _su2_endpoint, distance_su2),
    "so3": ([f"m{i}{j}" for i in range(1, 4) for j in range(1, 4)], _so3_endpoint, distance_so3),
}


def _json(args, params: dict, records: list[dict]) -> str:
    payload = {"group": args.group, "command": args.command, "params": params, "records": records}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(args, header: list[str], rows: list[list], params: dict) -> None:
    if args.format == "json":
        text = _json(args, params, [dict(zip(header, row)) for row in rows])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dist(args) -> int:
    if args.group == "su2":
        res = distance_su2(SU2Element(args.a_re, args.a_im, args.b_re, args.b_im))
    else:
        res = distance_so3(_parse_matrix(args.matrix))
    if args.json:
        params = {k: v for k, v in vars(args).items() if k not in ("func", "json")}
        record = {"t": res.t, "case": res.case.value, "beta": res.beta, "phi0": res.phi0}
        sys.stdout.write(_json(args, params, [record]))
    else:
        print(f"t = {_fmt(res.t)}")
        print(f"case = {res.case.value}")
        print(f"beta = {_fmt_opt(res.beta)}")
        print(f"phi0 = {_fmt_opt(res.phi0)}")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    if args.steps <= 0:
        raise UsageError("--steps must be positive")
    if not 0 < args.t_max < math.inf:  # NaN included
        raise UsageError("--t-max must be finite and positive")
    p = GeodesicParams(args.phi0, args.beta)
    columns, endpoint, _ = _GROUPS[args.group]
    times = (args.t_max * i / args.steps for i in range(args.steps + 1))
    rows = [[t] + endpoint(p, t)[1] for t in times]
    params = {"phi0": args.phi0, "beta": args.beta, "t_max": args.t_max, "steps": args.steps}
    _emit(args, ["t"] + columns, rows, params)
    return EXIT_OK


def cmd_sphere(args) -> int:
    if not args.radius > 0:  # NaN included
        raise UsageError("--radius must be positive")
    diameter = TWO_PI if args.group == "su2" else SO3_DIAMETER_BOUND
    if args.radius > diameter + 1e-9:
        raise UsageError(
            f"--radius {args.radius} exceeds the {args.group} diameter bound {diameter:.9f}"
        )
    if args.samples <= 0:
        raise UsageError("--samples must be positive")
    # Geodesics of momentum beta stop minimizing by 2*pi/sqrt(1+beta^2), so only
    # |beta| <= sqrt(x^2 - 1), x = 2*pi/R, can realize distance R (x^2 may overflow).
    x = TWO_PI / args.radius
    beta_adm = x * math.sqrt(max(0.0, (1.0 - 1.0 / x) * (1.0 + 1.0 / x)))
    if not math.isfinite(2.0 * beta_adm):
        raise UsageError(f"--radius {args.radius} is too small to sample")
    rng = np.random.default_rng(args.seed)
    columns, endpoint, distance = _GROUPS[args.group]
    rows = []
    kept = discarded = 0
    for _ in range(args.samples):
        phi0 = rng.uniform(0.0, TWO_PI)
        beta = rng.uniform(-beta_adm, beta_adm)
        element, values = endpoint(GeodesicParams(phi0, beta), args.radius)
        d = distance(element).t
        if abs(d - args.radius) <= 1e-6 * args.radius:
            kept += 1
            rows.append([args.group, args.radius, d, phi0, beta] + values)
        else:
            discarded += 1
    params = {"radius": args.radius, "samples": args.samples, "seed": args.seed,
              "kept": kept, "discarded": discarded}
    _emit(args, ["group", "radius", "r", "phi0", "beta"] + columns, rows, params)
    print(f"kept {kept} / discarded {discarded}", file=sys.stderr)
    return EXIT_OK


def cmd_cutlocus(args) -> int:
    if args.matrix is not None:
        cls = classify_cut_locus_so3(_parse_matrix(args.matrix))
    else:
        vals = _parse_floats(args.su2, 4, "--su2 expects a_re,a_im,b_re,b_im", "component")
        g = SU2Element(*vals)
        cls = classify_pair(g.a_re, g.a_im, g.b_re, g.b_im)
    print(cls.tag.value)
    if cls.witness:
        print(cls.witness)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be positive")
    names = (
        list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    )
    results = verify_mod.run_suites(names, args.n, args.seed)
    all_ok = True
    for suite, check in results:
        status = "PASS" if check.passed else "FAIL"
        all_ok &= check.passed
        print(f"[{status}] {suite}: {check.name} - {check.detail}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdist",
        description="Exact sub-Riemannian distances, geodesics and cut loci on SU(2) and SO(3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance from the identity")
    dist_sub = p_dist.add_subparsers(dest="group", required=True)
    p_su2 = dist_sub.add_parser("su2")
    p_su2.add_argument("--a-re", type=float, required=True)
    p_su2.add_argument("--a-im", type=float, required=True)
    p_su2.add_argument("--b-re", type=float, required=True)
    p_su2.add_argument("--b-im", type=float, required=True)
    p_su2.add_argument("--json", action="store_true")
    p_su2.set_defaults(func=cmd_dist)
    p_so3 = dist_sub.add_parser("so3")
    p_so3.add_argument("--matrix", type=str, required=True, help="m11,...,m33 row-major")
    p_so3.add_argument("--json", action="store_true")
    p_so3.set_defaults(func=cmd_dist)

    p_geo = sub.add_parser("geodesic", help="sample a geodesic from the identity")
    p_geo.add_argument("--group", choices=["su2", "so3"], required=True)
    p_geo.add_argument("--phi0", type=float, required=True)
    p_geo.add_argument("--beta", type=float, required=True)
    p_geo.add_argument("--t-max", type=float, required=True)
    p_geo.add_argument("--steps", type=int, required=True)
    p_geo.add_argument("--format", choices=["csv", "json"], default="csv")
    p_geo.add_argument("--out", type=str, default=None)
    p_geo.set_defaults(func=cmd_geodesic)

    p_sph = sub.add_parser("sphere", help="sample the metric sphere of a given radius")
    p_sph.add_argument("--group", choices=["su2", "so3"], required=True)
    p_sph.add_argument("--radius", type=float, required=True)
    p_sph.add_argument("--samples", type=int, required=True)
    p_sph.add_argument("--seed", type=int, default=0)
    p_sph.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sph.add_argument("--out", type=str, default=None)
    p_sph.set_defaults(func=cmd_sphere)

    p_cut = sub.add_parser("cutlocus", help="classify cut-locus membership")
    target = p_cut.add_mutually_exclusive_group(required=True)
    target.add_argument("--matrix", type=str, help="m11,...,m33 row-major")
    target.add_argument("--su2", type=str, help="a_re,a_im,b_re,b_im")
    p_cut.set_defaults(func=cmd_cutlocus)

    p_ver = sub.add_parser("verify", help="run self-check suites")
    p_ver.add_argument(
        "--suite",
        choices=["all"] + sorted(verify_mod.SUITES),
        default="all",
    )
    p_ver.add_argument("--n", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, InvalidElementError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

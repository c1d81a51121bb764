"""Command-line interface.

Subcommands: dist, geodesic, sphere, cutlocus, verify.

One reader: `dist` and `cutlocus` name their element by exactly one of
`--su2 a_re,a_im,b_re,b_im` (a unit pair of SU(2)) and `--matrix
m11,...,m33` (a rotation, row-major), and `_read_element` parses either.

One writer: `dist`, `geodesic`, `sphere` and `cutlocus` write their
records through `_emit`, to stdout or to `--out FILE`.  `--format csv`
(the default) writes a header, then one row per record; `--format json`
writes the one payload `{group, command, params, records}`.  A value that
is not unique (`dist`'s beta or phi0) or absent (`cutlocus`'s witness off
the cut locus) is an empty CSV field or a JSON null.  `verify` prints one
`[PASS]`/`[FAIL]` line per check.

A value that starts with `-` must be joined to its option by `=`, as in
`--su2=-0.6,0,0.8,0` or `--beta=-1e-3`: argparse reads a separate token
that starts with `-` as an option unless it is a plain negative number
such as `-1` or `-0.5`.

Exit codes: 0 success, 1 verification failure, 2 usage, input or
output-file error.  All numbers are printed in shortest round-trip decimal
form (<= 17 significant digits), so emitted files diff identically across
platforms.
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
from .algebra import SO3Element, SU2Element
from .cutlocus import classify_cut_locus_so3, classify_pair
from .geodesics import GeodesicParams, geodesic_point, geodesic_point_so3
from .so3_distance import SO3_DIAMETER_BOUND, distance_so3
from .su2_distance import distance_su2

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_floats(text: str, count: int, usage: str, item: str) -> list[float]:
    """`count` comma-separated reals; `usage` on a wrong count, "bad <item>: ..." on a non-real."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise UsageError(usage)
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad {item}: {exc}") from exc


def _read_element(args) -> tuple[str, SU2Element | SO3Element]:
    """The group and the element named by exactly one of --su2 and --matrix."""
    if args.su2 is not None:
        return "su2", SU2Element(*_parse_floats(args.su2, 4, "--su2 expects a_re,a_im,b_re,b_im", "component"))
    vals = _parse_floats(args.matrix, 9, "--matrix expects 9 comma-separated reals (row-major)", "matrix entry")
    return "so3", SO3Element((vals[0:3], vals[3:6], vals[6:9]))


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


def _emit(args, group: str, header: list[str], rows: list[list], params: dict) -> None:
    if args.format == "json":
        records = [dict(zip(header, row)) for row in rows]
        payload = {"group": group, "command": args.command, "params": params, "records": records}
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
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
    """One record: the distance t, the case, and beta and phi0 of a minimizer where it is unique."""
    group, element = _read_element(args)
    _, _, distance = _GROUPS[group]
    res = distance(element)
    rows = [[res.t, res.case.value, res.beta, res.phi0]]
    _emit(args, group, ["t", "case", "beta", "phi0"], rows, {"su2": args.su2, "matrix": args.matrix})
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
    _emit(args, args.group, ["t"] + columns, rows, params)
    return EXIT_OK


def cmd_sphere(args) -> int:
    """Endpoints at time --radius of random geodesics, kept when their distance is within relative 1e-6 of it.

    At small radii fewer samples pass; the run still exits 0 and reports
    `kept k / discarded m` on stderr.
    """
    if not args.radius > 0:  # NaN included
        raise UsageError("--radius must be positive")
    diameter = math.tau if args.group == "su2" else SO3_DIAMETER_BOUND
    if args.radius > diameter + 1e-9:
        raise UsageError(
            f"--radius {args.radius} exceeds the {args.group} diameter bound {diameter:.9f}"
        )
    if args.samples <= 0:
        raise UsageError("--samples must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    # Geodesics of momentum beta stop minimizing by 2*pi/sqrt(1+beta^2), so only
    # |beta| <= sqrt(x^2 - 1), x = 2*pi/R, can realize distance R (x^2 may overflow).
    x = math.tau / args.radius
    beta_adm = x * math.sqrt(max(0.0, (1.0 - 1.0 / x) * (1.0 + 1.0 / x)))
    if not math.isfinite(2.0 * beta_adm):
        raise UsageError(f"--radius {args.radius} is too small to sample")
    rng = np.random.default_rng(args.seed)
    columns, endpoint, distance = _GROUPS[args.group]
    rows = []
    kept = discarded = 0
    for _ in range(args.samples):
        phi0 = rng.uniform(0.0, math.tau)
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
    _emit(args, args.group, ["group", "radius", "r", "phi0", "beta"] + columns, rows, params)
    print(f"kept {kept} / discarded {discarded}", file=sys.stderr)
    return EXIT_OK


def cmd_cutlocus(args) -> int:
    """One record: the stratum's tag, and the witness of Sym, Loc or the identity."""
    group, element = _read_element(args)
    if group == "so3":
        cls = classify_cut_locus_so3(element)
    else:
        cls = classify_pair(element.a_re, element.a_im, element.b_re, element.b_im)
    rows = [[cls.tag.value, cls.witness]]
    _emit(args, group, ["tag", "witness"], rows, {"su2": args.su2, "matrix": args.matrix})
    return EXIT_OK


def cmd_verify(args) -> int:
    """One `[PASS]`/`[FAIL]` line per `verify.CheckResult`, with its suite, name and detail."""
    if args.n < 1:
        raise UsageError("--n must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
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

    # Options shared by subcommands, each defined once.
    element = argparse.ArgumentParser(add_help=False)
    target = element.add_mutually_exclusive_group(required=True)
    target.add_argument("--su2", help="a_re,a_im,b_re,b_im")
    target.add_argument("--matrix", help="m11,...,m33 row-major")
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--group", choices=list(_GROUPS), required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["csv", "json"], default="csv")
    output.add_argument("--out")

    p_dist = sub.add_parser("dist", parents=[element, output], help="distance from the identity")
    p_dist.set_defaults(func=cmd_dist)

    p_geo = sub.add_parser("geodesic", parents=[group, output], help="sample a geodesic from the identity")
    p_geo.add_argument("--phi0", type=float, required=True)
    p_geo.add_argument("--beta", type=float, required=True)
    p_geo.add_argument("--t-max", type=float, required=True)
    p_geo.add_argument("--steps", type=int, required=True)
    p_geo.set_defaults(func=cmd_geodesic)

    p_sph = sub.add_parser("sphere", parents=[group, output], help="sample the metric sphere of a given radius")
    p_sph.add_argument("--radius", type=float, required=True)
    p_sph.add_argument("--samples", type=int, required=True)
    p_sph.add_argument("--seed", type=int, default=0)
    p_sph.set_defaults(func=cmd_sphere)

    p_cut = sub.add_parser("cutlocus", parents=[element, output], help="classify cut-locus membership")
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
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs, operations and output checks of the two workloads.

Every workload is a pool of items `(kind, stratum, payload)`.  The
payload is plain data (a 4-tuple of floats for SU(2), a 3x3 array for
SO(3)); the operation builds the library's element from it and calls the
public API, so element validation is part of each timed op.  The library
is passed in as a module (`api`) and looked up at call time, so the
traced run sees the same calls through its hooks.

The checks are independent of the timed loop and each returns True when
the output is right:

* SU(2) distances with (phi0, beta): the geodesic `geodesic_point_exp`
  at time t reaches the target within GEODESIC_TOL.
* SO(3) distances: the direct case analysis and the lift-minimum route
  agree within ROUTE_TOL.
* Edge strata: the first REFERENCE_PER_STRATUM items of every stratum
  are compared with the mpmath reference within REFERENCE_TOL; axis-1
  rotations must classify as Loc and half turns as Sym.
* `oracle`: |t_min - distance| <= ORACLE_TOL; on the half turns of the
  defect probe, at least two minimizers.

The timed pools hold only inputs on which the program is right, so
every failed op is a regression.  The strata where the program has known
failures (KNOWN_DEFECTS) and the half turns run in the defect probes of
the traced run instead, which count failures per stratum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GEODESIC_TOL = 1e-9
ROUTE_TOL = 1e-9
ORACLE_TOL = 2e-2
# One tolerance fits every band: the float inputs pin the distance down
# to about 1e-10 even at 1 - |A| = 1e-12 (where renormalizing the pair
# moves |B| by that much), and the package states 1e-9 agreement between
# its routes.  Current float errors are 1e-15 in the interior.
REFERENCE_TOL = 1e-9
REFERENCE_PER_STRATUM = 4

EDGE_POOL_PER_STRATUM = 128
# Targets per kind.  Each is shot about six times in a 50 s run, so its
# fastest shot is a steady figure; see ORACLE_TARGET_SEED.
ORACLE_TARGETS = 8
# The oracle's targets do not depend on the run's seed, which only orders
# them: one target in about fifty takes ten times as long to refine, so a
# seeded draw of the few targets a run can repeat would move the mean by
# a third from seed to seed.
ORACLE_TARGET_SEED = 0
# Half turns per defect probe of the traced run.
INVOLUTION_PROBE = 16
# The involution grid of acceptance criterion 8, used for every SO(3)
# target; SU(2) targets use the default grid, as criterion 3 does.
ORACLE_SO3_GRID = dict(n_phi=128, n_beta=128, beta_max=8.0, n_t=256)


@dataclass(frozen=True)
class Workload:
    generate: Callable[[np.random.Generator], list]
    op: Callable  # op(api, kind, payload) -> output
    # A cheap op of the same entry points, for the set-up probe.
    probe: Callable
    # check(api, rank, item, output) -> bool; rank is the item's position
    # among the pool's items of its stratum.
    check: Callable
    # Items per pass of the traced run; its counts are reported per pass.
    trace_pass: int
    # The calibration kernel shaped like the ops (see calibrate.py).
    kernel: str


# ---------------------------------------------------------------- inputs


def klein(q) -> np.ndarray:
    """Rotation matrix covered by the unit pair q = (a_re, a_im, b_re, b_im)."""
    a1, a2, b1, b2 = q
    return np.array(
        [
            [a1 * a1 + a2 * a2 - b1 * b1 - b2 * b2, 2 * (a2 * b1 - b2 * a1), 2 * (a2 * b2 + b1 * a1)],
            [2 * (a2 * b1 + b2 * a1), a1 * a1 - a2 * a2 + b1 * b1 - b2 * b2, 2 * (b1 * b2 - a1 * a2)],
            [2 * (a2 * b2 - b1 * a1), 2 * (b2 * b1 + a2 * a1), a1 * a1 - a2 * a2 - b1 * b1 + b2 * b2],
        ]
    )


def _haar_pair(rng) -> tuple:
    while True:
        v = rng.standard_normal(4)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return tuple(float(x) for x in v / n)


def _pair_with(rng, abs_a: float, abs_b: float) -> tuple:
    """Unit pair with the given |A|, |B| and uniformly random phases."""
    alpha, gamma = rng.uniform(-math.pi, math.pi, 2)
    return (
        abs_a * math.cos(alpha),
        abs_a * math.sin(alpha),
        abs_b * math.cos(gamma),
        abs_b * math.sin(gamma),
    )


def _half_turn(rng) -> np.ndarray:
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    return 2.0 * np.outer(n, n) - np.eye(3)


def _small_abs_a(k):
    a = 10.0**-k
    return lambda rng: _pair_with(rng, a, math.sqrt((1.0 - a) * (1.0 + a)))


def _abs_a_near_one(k):
    d = 10.0**-k
    return lambda rng: _pair_with(rng, 1.0 - d, math.sqrt(d * (2.0 - d)))


def _eps_case_band(rng):
    # theta within 2e-9 of the branch-3 boundary pi*(1-|A|)/2, i.e. beta
    # near the domain endpoint b*.
    abs_a = rng.uniform(0.1, 0.9)
    theta = math.pi * (1.0 - abs_a) / 2.0 + rng.uniform(-2e-9, 2e-9)
    theta *= 1.0 if rng.random() < 0.5 else -1.0
    gamma = rng.uniform(-math.pi, math.pi)
    abs_b = math.sqrt(1.0 - abs_a * abs_a)
    return (
        abs_a * math.cos(theta),
        abs_a * math.sin(theta),
        abs_b * math.cos(gamma),
        abs_b * math.sin(gamma),
    )


def _near_involution(k):
    small = _small_abs_a(k)
    return lambda rng: klein(small(rng))


def _axis1_rotation(rng):
    psi = rng.uniform(0.1, math.pi - 0.1) * (1.0 if rng.random() < 0.5 else -1.0)
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# (stratum, kind, generator); every stratum gets the same number of items.
EDGE_STRATA = (
    [(f"abs_a_1e-{k}", "su2", _small_abs_a(k)) for k in range(2, 13)]
    + [(f"one_minus_abs_a_1e-{k}", "su2", _abs_a_near_one(k)) for k in range(2, 13)]
    + [("eps_case_band", "su2", _eps_case_band)]
    + [(f"near_involution_1e-{k}", "so3", _near_involution(k)) for k in range(3, 10)]
    + [("axis1_loc", "so3", _axis1_rotation), ("involution_sym", "so3", _half_turn)]
    # The common case, as the tests, `srdist verify` and `srdist sphere` draw it.
    + [("haar_su2", "su2", _haar_pair), ("haar_so3", "so3", lambda rng: klein(_haar_pair(rng)))]
)

# Strata with failures at the commit that added the benchmark (seeds
# 1-300, 128 inputs each; perfbench/README.md lists how each shows).
# Some fail only on a few seeds: `abs_a_1e-4` first on seed 21 (its
# geodesic missed by 6e-9) and `near_involution_1e-3` only on seeds
# 61-300 (routes 2.9e-9 apart); `abs_a_1e-3` failed on none, but its
# geodesic missed by 9.6e-10 against the 1e-9 tolerance.  A stratum
# leaves this set, and joins the timed pool, once a change fixes it.
KNOWN_DEFECTS = frozenset(
    [f"abs_a_1e-{k}" for k in range(3, 10)]
    + ["one_minus_abs_a_1e-12", "eps_case_band", "involution_sym"]
    + [f"near_involution_1e-{k}" for k in range(3, 10)]
)
TIMED_STRATA = tuple(s for s in EDGE_STRATA if s[0] not in KNOWN_DEFECTS)


def _strata_pool(rng, strata) -> list:
    per_stratum = [
        [(kind, name, gen(rng)) for _ in range(EDGE_POOL_PER_STRATUM)]
        for name, kind, gen in strata
    ]
    # Round-robin, so every prefix of the pool weights the strata equally,
    # and its first positions hold the first items of every stratum.
    return [item for row in zip(*per_stratum) for item in row]


def _edge_pool(rng) -> list:
    return _strata_pool(rng, TIMED_STRATA)


def edge_probe(seed: int) -> list:
    """Every edge stratum, known defects included, for the traced run's probe."""
    return _strata_pool(np.random.default_rng(seed), EDGE_STRATA)


def _kronecker(rng, dims: int, count: int) -> np.ndarray:
    """`count` points of the additive recurrence with the generalized golden ratio
    in [0, 1)^dims, shifted by a seeded random offset.

    Every prefix is spread evenly over the cube, so the few oracle targets
    and probe half turns cover the group evenly instead of by chance.
    """
    g = 2.0
    for _ in range(64):  # root of g^(dims+1) = g + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = g ** -np.arange(1, dims + 1)
    return (rng.random(dims) + np.arange(count)[:, None] * alpha) % 1.0


def _haar_from_cube(u) -> tuple:
    """Shoemake's map: a uniform point of the cube to a Haar-uniform unit pair."""
    u1, u2, u3 = u
    r1, r2 = math.sqrt(1.0 - u1), math.sqrt(u1)
    return (r1 * math.sin(2 * math.pi * u2), r1 * math.cos(2 * math.pi * u2),
            r2 * math.sin(2 * math.pi * u3), r2 * math.cos(2 * math.pi * u3))


def _oracle_pool(rng) -> list:
    fixed = np.random.default_rng(ORACLE_TARGET_SEED)
    su2 = [("su2", "haar", _haar_from_cube(u)) for u in _kronecker(fixed, 3, ORACLE_TARGETS)]
    so3 = [("so3", "haar", klein(_haar_from_cube(u))) for u in _kronecker(fixed, 3, ORACLE_TARGETS)]
    su2 = [su2[i] for i in rng.permutation(ORACLE_TARGETS)]
    so3 = [so3[i] for i in rng.permutation(ORACLE_TARGETS)]
    return [item for pair in zip(su2, so3) for item in pair]


def involution_probe(seed: int) -> list:
    """Seeded half turns with area-uniform axes, for the traced run's probe."""
    rng = np.random.default_rng(seed)
    items = []
    for v1, v2 in _kronecker(rng, 2, INVOLUTION_PROBE):
        z, az = 1.0 - 2.0 * v1, 2.0 * math.pi * v2
        rho = math.sqrt(1.0 - z * z)
        n = np.array([rho * math.cos(az), rho * math.sin(az), z])
        items.append(("so3", "involution", 2.0 * np.outer(n, n) - np.eye(3)))
    return items


# ------------------------------------------------------------ operations


def _edge_op(api, kind, payload):
    if kind == "su2":
        g = api.SU2Element(*payload)
        return api.distance_su2(g), api.in_cut_locus_su2_l2(g)
    c = api.SO3Element(payload)
    return api.distance_so3(c), api.classify_cut_locus_so3(c).tag


def _shoot(api, kind, payload, grid):
    if kind == "su2":
        return api.shoot_min_time(api.SU2Element(*payload), grid)
    return api.shoot_min_time_so3(api.SO3Element(payload), grid)


def _oracle_op(api, kind, payload):
    grid = api.GridSpec() if kind == "su2" else api.GridSpec(**ORACLE_SO3_GRID)
    return _shoot(api, kind, payload, grid)


def _oracle_probe(api, kind, payload):
    return _shoot(api, kind, payload, api.GridSpec(64, 64, 8.0, 64, refine_steps=1))


# ---------------------------------------------------------------- checks


def _geodesic_reaches(api, q, res) -> bool:
    if res.beta is None or res.phi0 is None:
        return True
    g = api.SU2Element(*q)
    e = api.geodesic_point_exp(api.GeodesicParams(res.phi0, res.beta), res.t)
    dev = max(
        abs(e.a_re - g.a_re), abs(e.a_im - g.a_im), abs(e.b_re - g.b_re), abs(e.b_im - g.b_im)
    )
    return dev <= GEODESIC_TOL


def _routes_agree(api, m, res) -> bool:
    return abs(res.t - api.distance_so3_via_lifts(api.SO3Element(m))) <= ROUTE_TOL


def _check_distance(api, item, res) -> bool:
    kind, _, payload = item
    if kind == "su2":
        return _geodesic_reaches(api, payload, res)
    return _routes_agree(api, payload, res)


def _check_edge(api, rank, item, out) -> bool:
    kind, stratum, payload = item
    res, tag = out
    if not _check_distance(api, item, res):
        return False
    if stratum == "axis1_loc" and tag.name != "LOC":
        return False
    if stratum == "involution_sym" and tag.name != "SYM":
        return False
    if rank < REFERENCE_PER_STRATUM:
        import reference

        ref = reference.su2_distance(payload) if kind == "su2" else reference.so3_distance(payload)
        return abs(res.t - ref) <= REFERENCE_TOL
    return True


def check_oracle(api, rank, item, res) -> bool:
    kind, stratum, payload = item
    if kind == "su2":
        dist = api.distance_su2(api.SU2Element(*payload)).t
    else:
        dist = api.distance_so3(api.SO3Element(payload)).t
        if stratum == "involution" and len(res.minimizers) < 2:
            return False
    return abs(res.t_min - dist) <= ORACLE_TOL


WORKLOADS = {
    "distance-edge": Workload(
        _edge_pool, _edge_op, _edge_op, _check_edge,
        trace_pass=EDGE_POOL_PER_STRATUM * len(TIMED_STRATA),
        kernel="python",
    ),
    "oracle": Workload(_oracle_pool, _oracle_op, _oracle_probe, check_oracle, trace_pass=4,
                       kernel="numpy"),
}


# Defect probes of the traced run: (metric prefix, items(seed), op, check).
# Each runs once, untimed, and reports failed inputs per stratum as
# `<prefix>.<stratum>.failed`.
PROBES = (
    ("edge", edge_probe, _edge_op, _check_edge),
    ("oracle", involution_probe, _oracle_op, check_oracle),
)


def make_pool(name: str, seed: int) -> list:
    """The workload's input pool; the same seed gives the same pool."""
    return WORKLOADS[name].generate(np.random.default_rng(seed))

import itertools
import math

import numpy as np
import pytest

from srdist import so3_distance
from srdist.algebra import (
    InvalidElementError,
    SO3Element,
    SU2Element,
    klein_omega,
    lift_so3,
    random_so3,
    so3_mul,
)
from srdist.geodesics import GeodesicParams, geodesic_point_so3
from srdist.so3_distance import (
    SO3_DIAMETER_BOUND,
    distance_so3,
    distance_so3_pair,
    distance_so3_via_lifts,
    lift_distance_results,
)
from srdist.su2_distance import DistanceCase, distance_su2

TWO_PI = 2.0 * math.pi


def axis1_rotation(psi):
    c, s = math.cos(psi), math.sin(psi)
    return SO3Element(np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]]))


def test_identity():
    res = distance_so3(SO3Element.identity())
    assert res.t == 0.0


def test_half_turn_orthogonal_axis():
    res = distance_so3(SO3Element(np.diag([-1.0, 1.0, -1.0])))
    assert res.t == pytest.approx(math.pi, abs=1e-15)
    assert res.case is DistanceCase.A_ZERO
    res = distance_so3(SO3Element(np.diag([-1.0, -1.0, 1.0])))
    assert res.t == pytest.approx(math.pi, abs=1e-15)


def test_half_turn_axis1_is_diameter():
    res = distance_so3(SO3Element(np.diag([1.0, -1.0, -1.0])))
    assert res.t == pytest.approx(math.pi * math.sqrt(3.0), abs=1e-12)
    assert res.case is DistanceCase.ABS_A_ONE
    assert res.t == pytest.approx(SO3_DIAMETER_BOUND, abs=1e-12)


def test_quarter_turn_axis1():
    res = distance_so3(axis1_rotation(math.pi / 2))
    assert res.t == pytest.approx(math.pi * math.sqrt(7.0) / 2.0, abs=1e-12)
    assert res.case is DistanceCase.ABS_A_ONE


def test_axis1_rotations_monotone_in_angle():
    angles = np.linspace(0.05, math.pi, 40)
    dists = [distance_so3(axis1_rotation(a)).t for a in angles]
    assert all(x < y for x, y in zip(dists, dists[1:]))
    assert dists[-1] == pytest.approx(SO3_DIAMETER_BOUND, abs=1e-9)


def test_submetry_agreement():
    # full 500-sample run at 1e-9 is in the acceptance suite
    rng = np.random.default_rng(31)
    for _ in range(200):
        c = random_so3(rng)
        assert abs(distance_so3(c).t - distance_so3_via_lifts(c)) < 1e-9


def test_winning_lift_selection():
    rng = np.random.default_rng(32)
    for _ in range(200):
        c = random_so3(rng)
        direct = distance_so3(c)
        r1, r2 = lift_distance_results(c)
        winner = r1 if r1.t <= r2.t else r2
        assert direct.t == pytest.approx(winner.t, abs=1e-9)
        if direct.beta is not None and winner.beta is not None:
            assert direct.beta == pytest.approx(winner.beta, abs=1e-6)


def test_geodesic_parameters_reproduce_rotation():
    rng = np.random.default_rng(33)
    for _ in range(100):
        c = random_so3(rng)
        res = distance_so3(c)
        if res.beta is None or res.phi0 is None:
            continue
        end = geodesic_point_so3(GeodesicParams(res.phi0, res.beta), res.t)
        assert np.max(np.abs(np.subtract(end.m, c.m))) < 1e-8


def test_axis1_conjugation_invariance():
    # rotations about axis 1 are isometries fixing the identity
    rng = np.random.default_rng(34)
    for _ in range(100):
        c = random_so3(rng)
        psi = rng.uniform(0, TWO_PI)
        r = axis1_rotation(psi)
        conj = so3_mul(so3_mul(r, c), r.transpose())
        assert abs(distance_so3(conj).t - distance_so3(c).t) < 1e-9


def test_transpose_symmetry():
    rng = np.random.default_rng(35)
    for _ in range(200):
        c = random_so3(rng)
        assert abs(distance_so3(c.transpose()).t - distance_so3(c).t) < 1e-9


def test_diameter_bound_holds():
    rng = np.random.default_rng(36)
    for _ in range(500):
        assert distance_so3(random_so3(rng)).t <= SO3_DIAMETER_BOUND + 1e-9


def test_pair_distance():
    rng = np.random.default_rng(37)
    c = random_so3(rng)
    assert distance_so3_pair(c, c) == 0.0
    assert distance_so3_pair(SO3Element.identity(), c) == pytest.approx(
        distance_so3(c).t, abs=1e-12
    )
    for _ in range(100):
        a, b, d = (random_so3(rng) for _ in range(3))
        assert distance_so3_pair(a, d) <= (
            distance_so3_pair(a, b) + distance_so3_pair(b, d) + 1e-9
        )


def test_so3_never_exceeds_lift_distance():
    # projecting a geodesic cannot lengthen it
    rng = np.random.default_rng(38)
    from srdist.algebra import random_su2

    for _ in range(200):
        g = random_su2(rng)
        assert distance_so3(klein_omega(g)).t <= distance_su2(g).t + 1e-9


@pytest.mark.parametrize("abs_a", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
def test_near_involutions_lift_and_distance(abs_a):
    # Rotations within about 2|A| of a half turn about an axis orthogonal
    # to axis 1, where sqrt(1 + trace) cancels.
    rng = np.random.default_rng(17)
    for _ in range(200):
        a_phase, b_phase = rng.uniform(0.0, TWO_PI, 2)
        b = math.sqrt(1.0 - abs_a * abs_a)
        c = klein_omega(SU2Element(
            abs_a * math.cos(a_phase), abs_a * math.sin(a_phase),
            b * math.cos(b_phase), b * math.sin(b_phase),
        ))
        lift, _ = lift_so3(c)
        assert np.max(np.abs(np.subtract(klein_omega(lift).m, c.m))) <= 1e-12
        t = distance_so3(c).t
        assert 0.0 <= t <= SO3_DIAMETER_BOUND
        assert abs(t - distance_so3_via_lifts(c)) <= 1e-9


def _pair_with_abs_a(rng, abs_a):
    a_phase, b_phase = rng.uniform(0.0, TWO_PI, 2)
    b = math.sqrt((1.0 - abs_a) * (1.0 + abs_a))
    return SU2Element(
        abs_a * math.cos(a_phase), abs_a * math.sin(a_phase),
        b * math.cos(b_phase), b * math.sin(b_phase),
    )


def test_routes_agree_on_noisy_rotations():
    # Entry noise of 1e-10 moves the matrix off SO(3) by less than the
    # construction tolerance; both routes must still read the same distance.
    # At 1 - |A| = 1e-11 the noise moves |B| by up to 1e-10, a large share
    # of its 4.5e-6, and the routes read it from different entries.
    rng = np.random.default_rng(39)
    samplers = [random_so3] + [
        lambda rng, a=abs_a: klein_omega(_pair_with_abs_a(rng, a))
        for abs_a in (1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-11)
    ]
    checked = 0
    for sample in samplers:
        for _ in range(100):
            m = sample(rng).m + rng.uniform(-1e-10, 1e-10, (3, 3))
            try:
                c = SO3Element(m)
            except InvalidElementError:
                continue
            checked += 1
            assert abs(distance_so3(c).t - distance_so3_via_lifts(c)) <= 1e-9
    assert checked >= 300


def test_direct_route_is_independent_of_lifts(monkeypatch):
    boundary = klein_omega(SU2Element(
        0.5 * math.cos(math.pi / 4), 0.5 * math.sin(math.pi / 4), math.sqrt(0.75), 0.0
    ))
    rng = np.random.default_rng(40)
    haar = [random_so3(rng) for _ in range(50)]
    via_lifts = [distance_so3_via_lifts(c) for c in haar]

    def forbidden(*args):
        raise AssertionError("the direct route must not use the lift route")

    monkeypatch.setattr(so3_distance, "lift_so3", forbidden)
    monkeypatch.setattr(so3_distance, "distance_su2", forbidden)

    assert distance_so3(SO3Element.identity()).t == 0.0
    assert distance_so3(SO3Element(np.diag([1.0, -1.0, -1.0]))).t == pytest.approx(
        math.pi * math.sqrt(3.0), abs=1e-15
    )
    assert distance_so3(SO3Element(np.diag([-1.0, 1.0, -1.0]))).t == math.pi
    assert distance_so3(axis1_rotation(math.pi / 2)).t == pytest.approx(
        math.pi * math.sqrt(7.0) / 2.0, abs=1e-15
    )
    res = distance_so3(boundary)
    assert res.case is DistanceCase.BOUNDARY
    assert res.t == pytest.approx(math.pi * math.sqrt(0.75), abs=1e-15)
    end = geodesic_point_so3(GeodesicParams(res.phi0, res.beta), res.t)
    assert np.max(np.abs(np.subtract(end.m, boundary.m))) < 1e-12
    for c, t in zip(haar, via_lifts):
        assert abs(distance_so3(c).t - t) <= 1e-12


def test_signed_zeros_keep_beta_sign():
    # The half turn about axis 1 with every sign pattern of its zero
    # entries: the "+ 0.0" of `algebra.cover_pair` fixes the sign of beta
    # whatever the zeros' signs.
    expected = distance_so3(SO3Element(np.diag([1.0, -1.0, -1.0])))
    assert expected.t == pytest.approx(math.pi * math.sqrt(3.0), abs=1e-15)
    off_diagonal = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    for zeros in itertools.product([0.0, -0.0], repeat=6):
        m = np.diag([1.0, -1.0, -1.0])
        for (i, j), z in zip(off_diagonal, zeros):
            m[i, j] = z
        assert distance_so3(SO3Element(m)) == expected

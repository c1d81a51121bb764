import math

import numpy as np
import pytest

from srdist.algebra import SO3Element, SU2Element, cover_pair, klein_omega, random_so3
from srdist.cutlocus import (
    MEMBERSHIP_TOL,
    CutTag,
    classify_cut_locus_so3,
    conjugate_locus_so3,
    in_cut_locus_su2_l2,
)
from srdist.verify import _half_turn, _loc_band_pair
from test_so3_distance import axis1_rotation


def test_identity_not_cut():
    res = classify_cut_locus_so3(SO3Element.identity())
    assert res.tag is CutTag.NOT_CUT
    assert res.witness == "identity"


def test_half_turns_are_sym():
    rng = np.random.default_rng(41)
    for _ in range(100):
        res = classify_cut_locus_so3(_half_turn(rng))
        assert res.tag is CutTag.SYM
        assert res.witness.startswith("|Re A| = ")
        assert float(res.witness.removeprefix("|Re A| = ")) <= MEMBERSHIP_TOL


def test_axis1_rotation_is_loc():
    for psi in (0.3, 1.0, 2.8, -1.2):
        res = classify_cut_locus_so3(axis1_rotation(psi))
        assert res.tag is CutTag.LOC
        # the covering pair of an axis-1 rotation has B = 0 exactly
        assert res.witness == "|B| = 0.000e+00"


def test_axis1_half_turn_prefers_sym():
    # diag(1, -1, -1) sits in both strata; the involution label wins
    res = classify_cut_locus_so3(SO3Element(np.diag([1.0, -1.0, -1.0])))
    assert res.tag is CutTag.SYM


def test_generic_rotation_not_cut():
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(200):
        c = random_so3(rng)
        if classify_cut_locus_so3(c).tag is CutTag.NOT_CUT:
            hits += 1
    # random rotations almost surely miss the measure-zero strata
    assert hits == 200


def test_cover_predicate_loc_branch():
    g = SU2Element(math.cos(0.4), math.sin(0.4), 0.0, 0.0)
    assert in_cut_locus_su2_l2(g) is CutTag.LOC
    assert in_cut_locus_su2_l2(SU2Element.identity()) is CutTag.NOT_CUT
    assert in_cut_locus_su2_l2(SU2Element(-1.0, 0.0, 0.0, 0.0)) is CutTag.NOT_CUT


def test_conjugate_locus():
    assert not conjugate_locus_so3(SO3Element.identity())
    assert conjugate_locus_so3(axis1_rotation(1.1))
    assert conjugate_locus_so3(SO3Element(np.diag([1.0, -1.0, -1.0])))
    assert not conjugate_locus_so3(SO3Element(np.diag([-1.0, 1.0, -1.0])))
    rng = np.random.default_rng(45)
    for _ in range(100):
        assert not conjugate_locus_so3(random_so3(rng))


def test_one_loc_rule():
    # conjugate_locus_so3 is the cut tag's Loc rule with Sym set aside, on
    # both sides of MEMBERSHIP_TOL.  |B| is read with math.hypot, as the
    # rule reads it: abs() of a complex may round otherwise at the tolerance.
    rng = np.random.default_rng(46)
    pairs = [_loc_band_pair(rng, abs_b) for abs_b in (0.0, 1e-12, 5e-10, 8e-10, 2e-9) for _ in range(20)]
    # |B| at MEMBERSHIP_TOL: math.hypot gives the tolerance, abs(B) one ulp above it.
    pairs.append(SU2Element(-0.5232535752072743, -0.8521770332699687, -3.7176313766342647e-10, 9.283276196874918e-10))
    sides = set()
    for c in map(klein_omega, pairs):
        _, _, b_re, b_im = cover_pair(c)
        sides.add(math.hypot(b_re, b_im) <= MEMBERSHIP_TOL)
        assert conjugate_locus_so3(c) == (classify_cut_locus_so3(c).tag is CutTag.LOC)
    assert sides == {True, False}
    half_turn = SO3Element(np.diag([1.0, -1.0, -1.0]))
    assert conjugate_locus_so3(half_turn)
    assert classify_cut_locus_so3(half_turn).tag is CutTag.SYM


def band_pair(stratum, dist):
    """Unit pair at distance dist from Sym (|Re A| = dist) or Loc (|B| = dist), off the other stratum."""
    r = math.sqrt(1.0 - dist * dist)
    if stratum is CutTag.SYM:
        return SU2Element(dist, 0.48 * r, 0.6 * r, 0.64 * r)
    return SU2Element(0.6 * r, 0.8 * r, 0.28 * dist, 0.96 * dist)


@pytest.mark.parametrize("dist", [1e-12, 5e-10, 8e-10, 2e-9, 1e-8])
@pytest.mark.parametrize("stratum", [CutTag.SYM, CutTag.LOC], ids=lambda t: t.value)
def test_membership_tolerance_band(stratum, dist):
    # Both predicates read the covering pair, so they tag each side of
    # MEMBERSHIP_TOL alike, and the witness is the distance to the stratum.
    g = band_pair(stratum, dist)
    expected = stratum if dist <= MEMBERSHIP_TOL else CutTag.NOT_CUT
    assert in_cut_locus_su2_l2(g) is expected
    assert in_cut_locus_su2_l2(g.negate()) is expected
    res = classify_cut_locus_so3(klein_omega(g))
    assert res.tag is expected
    if expected is not CutTag.NOT_CUT:
        assert abs(float(res.witness.split(" = ")[1]) - dist) <= 1e-15

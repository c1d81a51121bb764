"""Cut-locus classification on SO(3) and the matching SU(2) predicates.

The cut locus of the identity splits into two strata:

  Sym: involutions, i.e. M != E with M^2 = E (half turns about any axis);
       on the double cover these are the elements with Re(A) = 0.
  Loc: nontrivial rotations about axis 1, i.e. block-diag(1, R(angle));
       on the double cover, B = 0 with Im(A) != 0.

The Loc stratum coincides with the conjugate locus.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .algebra import SO3Element, SU2Element, identity_residual, mat3_mul

# Max-norm residual tolerance for stratum membership; inputs typically
# come out of covering-map chains carrying ~1e-12 noise.
MEMBERSHIP_TOL = 1e-9


class CutTag(enum.Enum):
    NOT_CUT = "NotCut"
    SYM = "Sym"
    LOC = "Loc"


@dataclass(frozen=True)
class CutLocusClass:
    tag: CutTag
    witness: Optional[str] = None


def _axis1_residual(rows) -> Optional[float]:
    """Max-norm residual from the axis-1 rotations block-diag(1, R); None at the identity."""
    if identity_residual(rows) <= MEMBERSHIP_TOL:
        return None
    (c11, c12, c13), (c21, _, _), (c31, _, _) = rows
    return max(abs(c11 - 1.0), abs(c12), abs(c13), abs(c21), abs(c31))


def classify_cut_locus_so3(c: SO3Element) -> CutLocusClass:
    """Stratum of a rotation: Sym before Loc, identity is NotCut.

    The half turn about axis 1 satisfies both descriptions; Sym wins, so
    its multiple minimizing geodesics stay visible in the classification.
    """
    rows = c.m.tolist()
    axis_res = _axis1_residual(rows)
    if axis_res is None:
        return CutLocusClass(CutTag.NOT_CUT, "identity")
    invol_res = identity_residual(mat3_mul(rows, rows))
    if invol_res <= MEMBERSHIP_TOL:
        return CutLocusClass(CutTag.SYM, f"max |M^2 - E| = {invol_res:.3e}")
    if axis_res <= MEMBERSHIP_TOL:
        return CutLocusClass(CutTag.LOC, f"axis-1 block residual = {axis_res:.3e}")
    return CutLocusClass(CutTag.NOT_CUT)


def in_cut_locus_su2_l2(g: SU2Element) -> CutTag:
    """Cut-locus predicate on the double cover for the order-2 lens quotient.

    Sym reduces to Re(A) = 0 (the remaining equation is the unit-norm
    identity, reading the B term as |B|^2); Loc is B = 0 with Im(A) != 0.
    """
    if abs(g.a_re) <= MEMBERSHIP_TOL:
        return CutTag.SYM
    if (
        abs(g.b_re) <= MEMBERSHIP_TOL
        and abs(g.b_im) <= MEMBERSHIP_TOL
        and abs(g.a_im) > MEMBERSHIP_TOL
    ):
        return CutTag.LOC
    return CutTag.NOT_CUT


def conjugate_locus_so3(c: SO3Element) -> bool:
    """True iff c is a nontrivial rotation about axis 1 (the conjugate locus)."""
    axis_res = _axis1_residual(c.m.tolist())
    return axis_res is not None and axis_res <= MEMBERSHIP_TOL

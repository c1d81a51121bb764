"""Cut-locus classification on SO(3) and on its double cover SU(2).

The cut locus of the identity in SO(3) has two strata, stated on a unit
covering pair (A, B) of the rotation:

  Sym: Re A = 0, the half turns about any axis (involutions);
  Loc: B = 0 with Im A != 0, the nontrivial rotations about axis 1,
       which are also the conjugate locus.

One rule (`_tag`) with one tolerance, MEMBERSHIP_TOL, decides both
groups: Sym when |Re A| <= tol, else Loc when |B| <= tol < |Im A|
(`_on_loc`, alone `conjugate_locus_so3`), else NotCut.  Sym goes first,
so the half turn about axis 1 keeps its two minimizing geodesics
visible.  The rule reads absolute values only, so g and -g get one tag;
a rotation is read as the four floats of its `algebra.cover_pair`.  The
witness is the distance to the stratum ("|Re A| = ...", "|B| = ..."),
or "identity" where |B| and |Im A| are both within tol.  The half turn
about axis 1 is on the conjugate locus while its tag is Sym.

The tag and the oracle's minimizer count disagree in one band: a
rotation whose lift has |Re A| from about 3e-13 (2.5e-13 to 5e-13,
depending on the rotation) up to MEMBERSHIP_TOL is tagged Sym, but its
two lifts arrive about 4|Re A| apart, beyond the oracle's time tie of
1e-12, so one minimizer is listed.  `verify.check_minimizers` checks
the tag and the count on both sides of the band.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .algebra import SO3Element, SU2Element, cover_pair

# Membership tolerance on |Re A| and |B|; inputs typically come out of
# covering-map chains carrying ~1e-12 noise.
MEMBERSHIP_TOL = 1e-9


class CutTag(enum.Enum):
    NOT_CUT = "NotCut"
    SYM = "Sym"
    LOC = "Loc"


# The members as plain module names: a member read through the enum class
# costs about 0.10 us against 0.02 us for a plain class attribute, and
# every classification reads one or two.
_NOT_CUT, _SYM, _LOC = CutTag.NOT_CUT, CutTag.SYM, CutTag.LOC


@dataclass(frozen=True, init=False)
class CutLocusClass:
    tag: CutTag
    witness: Optional[str] = None

    def __init__(self, tag: CutTag, witness: Optional[str] = None):
        d = self.__dict__
        d["tag"] = tag
        d["witness"] = witness


def _on_loc(a_im: float, b_re: float, b_im: float) -> bool:
    """|B| <= tol < |Im A|: the Loc rule, Sym aside; the |Re B| test spares the hypot."""
    return abs(b_re) <= MEMBERSHIP_TOL and math.hypot(b_re, b_im) <= MEMBERSHIP_TOL < abs(a_im)


def _tag(a_re: float, a_im: float, b_re: float, b_im: float) -> CutTag:
    """The stratum of the unit pair (a_re + i a_im, b_re + i b_im)."""
    if abs(a_re) <= MEMBERSHIP_TOL:
        return _SYM
    return _LOC if _on_loc(a_im, b_re, b_im) else _NOT_CUT


def classify_pair(a_re: float, a_im: float, b_re: float, b_im: float) -> CutLocusClass:
    """The stratum of a unit pair and its witness (see the module docstring)."""
    tag, abs_b = _tag(a_re, a_im, b_re, b_im), math.hypot(b_re, b_im)
    if tag is _SYM:
        return CutLocusClass(tag, f"|Re A| = {abs(a_re):.3e}")
    if tag is _LOC:
        return CutLocusClass(tag, f"|B| = {abs_b:.3e}")
    return CutLocusClass(tag, "identity" if abs_b <= MEMBERSHIP_TOL else None)


def classify_cut_locus_so3(c: SO3Element) -> CutLocusClass:
    """Stratum of a rotation, read on its covering pair."""
    return classify_pair(*cover_pair(c))


def in_cut_locus_su2_l2(g: SU2Element) -> CutTag:
    """Stratum of the rotation that g covers: the order-2 lens quotient SU(2)/{+-1}."""
    return _tag(g.a_re, g.a_im, g.b_re, g.b_im)


def conjugate_locus_so3(c: SO3Element) -> bool:
    """True iff c is a nontrivial rotation about axis 1 (the conjugate locus): `_tag`'s Loc rule, Sym aside."""
    return _on_loc(*cover_pair(c)[1:])

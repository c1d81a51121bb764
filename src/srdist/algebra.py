"""Group and Lie-algebra arithmetic for SU(2) and SO(3).

An SU(2) element is stored as the complex pair (A, B) of the matrix

    [[ A,        B      ],
     [ -conj(B), conj(A)]],    |A|^2 + |B|^2 = 1.

The Klein map sends (A, B) to a rotation of R^3, an `SO3Element` held as
rows of floats that compares and hashes by value.  It is a 2-to-1 group
homomorphism: (A, B) and (-A, -B) cover the same rotation.
`cover_pair` inverts it, reading the canonical lift (Re A >= 0) off
identities linear in the matrix entries; `lift_so3` returns that lift and
its negation.  Both element types store Python floats under one
real-number rule (`_real_floats`), and neither imports numpy.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Construction-time validation tolerance; SU(2) elements are renormalized
# after validation so invariants survive long computation chains.
CONSTRUCTION_TOL = 1e-9

class InvalidElementError(ValueError):
    """Input violates a group invariant (non-unit pair, non-rotation matrix)."""


def _real_floats(vals: tuple, what: str) -> tuple:
    """vals as Python floats, or InvalidElementError naming `what` and the cause.

    The real-number rule of both element types, for input other than
    finite Python floats.  The sum of squares probes the types: it raises
    TypeError on a str, bytes or None entry, and is complex when an entry
    is.  float() would drop a numpy complex's imaginary part with only a
    warning; numpy registers its complex scalars as numbers.Complex.
    """
    try:
        norm2 = sum(v * v for v in vals)
        if isinstance(norm2, numbers.Complex) and not isinstance(norm2, numbers.Real):
            raise TypeError(f"must be real number, not {type(norm2).__name__}")
        floats = tuple(map(float, vals))
    except TypeError as exc:
        raise InvalidElementError(f"{what} must be real numbers: {exc}") from None
    except OverflowError as exc:  # an int beyond float range
        raise InvalidElementError(f"{what} overflow float arithmetic: {exc}") from None
    if not all(map(math.isfinite, floats)):
        raise InvalidElementError(f"{what} must be finite")
    return floats


@dataclass(frozen=True)
class SU2Element:
    """Unit pair (A, B) with A = a_re + i*a_im, B = b_re + i*b_im."""

    a_re: float
    a_im: float
    b_re: float
    b_im: float

    def __post_init__(self):
        a_re, a_im, b_re, b_im = self.a_re, self.a_im, self.b_re, self.b_im
        floats = type(a_re) is type(a_im) is type(b_re) is type(b_im) is float
        if floats:
            norm2 = a_re * a_re + a_im * a_im + b_re * b_re + b_im * b_im
        if not floats or not math.isfinite(norm2):
            a_re, a_im, b_re, b_im = _real_floats((a_re, a_im, b_re, b_im), "SU(2) components")
            # The norm of the floats that are stored: in float32 arithmetic a
            # pair far off unit norm can round to norm 1.
            norm2 = a_re * a_re + a_im * a_im + b_re * b_re + b_im * b_im
        norm = math.sqrt(norm2)
        if abs(norm - 1.0) > CONSTRUCTION_TOL:
            raise InvalidElementError(
                f"unit-norm violation: |A|^2+|B|^2 deviates by {abs(norm * norm - 1.0):.3e}"
            )
        # Store Python floats on every path: an int, bool or numpy scalar
        # of norm exactly 1 is converted too (dividing by 1.0 is exact).
        if norm != 1.0 or not floats:
            object.__setattr__(self, "a_re", a_re / norm)
            object.__setattr__(self, "a_im", a_im / norm)
            object.__setattr__(self, "b_re", b_re / norm)
            object.__setattr__(self, "b_im", b_im / norm)

    @property
    def a(self) -> complex:
        return complex(self.a_re, self.a_im)

    @property
    def b(self) -> complex:
        return complex(self.b_re, self.b_im)

    @classmethod
    def from_complex(cls, a: complex, b: complex) -> "SU2Element":
        return cls(a.real, a.imag, b.real, b.imag)

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls(1.0, 0.0, 0.0, 0.0)

    def negate(self) -> "SU2Element":
        """(-A, -B), exactly (`_unit_pair`)."""
        return _unit_pair(-self.a_re, -self.a_im, -self.b_re, -self.b_im)

    def as_matrix(self) -> np.ndarray:
        import numpy as np

        a, b = self.a, self.b
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)


def _unit_pair(a_re: float, a_im: float, b_re: float, b_im: float) -> SU2Element:
    """The element of float components already divided by their norm, built exactly.

    They are not renormalized again: a second division by their rounded
    norm would move some components by an ulp.  A sign flip of such
    components keeps them so, to the bit.
    """
    g = object.__new__(SU2Element)
    object.__setattr__(g, "a_re", a_re)
    object.__setattr__(g, "a_im", a_im)
    object.__setattr__(g, "b_re", b_re)
    object.__setattr__(g, "b_im", b_im)
    return g


def mat3_mul(x, y) -> list:
    """Product of two 3x3 matrices given as rows, in scalar float arithmetic."""
    cols = tuple(zip(*y))
    return [[a0 * b0 + a1 * b1 + a2 * b2 for b0, b1, b2 in cols] for a0, a1, a2 in x]


def orthogonality_residual(rows) -> float:
    """max |M^T M - I| over the entries of a 3x3 matrix given as rows.

    M^T M is symmetric, so only its six distinct entries are formed, each
    summed in `mat3_mul`'s order: the residual is that of
    `mat3_mul(zip(*rows), rows)`, to the bit.
    """
    (c11, c12, c13), (c21, c22, c23), (c31, c32, c33) = rows
    return max(
        abs(c11 * c11 + c21 * c21 + c31 * c31 - 1.0),
        abs(c11 * c12 + c21 * c22 + c31 * c32),
        abs(c11 * c13 + c21 * c23 + c31 * c33),
        abs(c12 * c12 + c22 * c22 + c32 * c32 - 1.0),
        abs(c12 * c13 + c22 * c23 + c32 * c33),
        abs(c13 * c13 + c23 * c23 + c33 * c33 - 1.0),
    )


@dataclass(frozen=True)
class SO3Element:
    """3x3 rotation matrix (orthogonal, determinant 1) from any 3x3 array-like of reals.

    `m` is read through its `.tolist()` when it has one (a numpy array),
    otherwise as three rows of three entries, which are held to the
    real-number rule of `SU2Element` (`_real_floats`).  It is stored as
    rows of Python floats, so elements compare and hash by value.
    """

    m: tuple

    def __post_init__(self):
        m = self.m
        try:
            r1, r2, r3 = m.tolist() if hasattr(m, "tolist") else m
            (c11, c12, c13), (c21, c22, c23), (c31, c32, c33) = r1, r2, r3
        except (TypeError, ValueError) as exc:
            raise InvalidElementError(f"rotation matrix must be 3x3: {exc}") from None
        # Floats with a finite sum are finite; any other input goes through the rule.
        if not (
            type(c11) is type(c12) is type(c13) is type(c21) is type(c22) is type(c23)
            is type(c31) is type(c32) is type(c33) is float
            and math.isfinite(c11 + c12 + c13 + c21 + c22 + c23 + c31 + c32 + c33)
        ):
            if any(isinstance(r, (bytes, bytearray)) for r in (r1, r2, r3)):  # it unpacks into ints
                raise InvalidElementError("rotation matrix entries must be real numbers, not a 'bytes' row")
            c11, c12, c13, c21, c22, c23, c31, c32, c33 = _real_floats(
                (c11, c12, c13, c21, c22, c23, c31, c32, c33), "rotation matrix entries"
            )
        rows = (c11, c12, c13), (c21, c22, c23), (c31, c32, c33)
        ortho_res = orthogonality_residual(rows)
        if ortho_res > CONSTRUCTION_TOL:
            raise InvalidElementError(
                f"orthogonality violation: max |M^T M - I| = {ortho_res:.3e}"
            )
        det = c11 * (c22 * c33 - c23 * c32) - c12 * (c21 * c33 - c23 * c31) + c13 * (
            c21 * c32 - c22 * c31
        )
        det_res = abs(det - 1.0)
        if det_res > CONSTRUCTION_TOL:
            raise InvalidElementError(f"determinant violation: |det - 1| = {det_res:.3e}")
        object.__setattr__(self, "m", rows)

    @classmethod
    def identity(cls) -> "SO3Element":
        return cls(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def transpose(self) -> "SO3Element":
        return SO3Element(tuple(zip(*self.m)))


@dataclass(frozen=True)
class AlgebraVector:
    """Coefficients in the orthogonal-plus-vertical Lie algebra basis."""

    x: float
    y: float
    z: float


def su2_mul(g: SU2Element, h: SU2Element) -> SU2Element:
    """Group product of two SU(2) elements in (A, B) form."""
    a = g.a * h.a - g.b * h.b.conjugate()
    b = g.a * h.b + g.b * h.a.conjugate()
    return SU2Element.from_complex(a, b)


def su2_inv(g: SU2Element) -> SU2Element:
    """Inverse (conjugate transpose): (A, B) -> (conj(A), -B), exactly (`_unit_pair`)."""
    return _unit_pair(g.a_re, -g.a_im, -g.b_re, -g.b_im)


def su2_exp(v: AlgebraVector, t: float) -> SU2Element:
    """Exponential of t*(x*p1 + y*p2 + z*k) in closed form.

    The generator matrix squares to -(w/2)^2 * I with w = |(x, y, z)|, so

        exp = cos(t*w/2) * I + sin(t*w/2)/(w/2) * generator,

    which in (A, B) coordinates reads
    A = cos(t*w/2) + i*z*sin(t*w/2)/w, B = (x + i*y)*sin(t*w/2)/w.
    """
    w = math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)
    if w == 0.0:
        return SU2Element.identity()
    c = math.cos(t * w / 2.0)
    s = math.sin(t * w / 2.0) / w
    return SU2Element(c, v.z * s, v.x * s, v.y * s)


def so3_mul(c1: SO3Element, c2: SO3Element) -> SO3Element:
    return SO3Element(mat3_mul(c1.m, c2.m))


def klein_entries(a1: float, a2: float, b1: float, b2: float) -> tuple:
    """Row-major entries of the rotation covering the unit pair (a1 + i a2, b1 + i b2).

    Every entry is quadratic in (A1, A2, B1, B2), hence invariant under
    the simultaneous sign flip (A, B) -> (-A, -B).
    """
    a11, a22, a12 = a1 * a1, a2 * a2, a1 * a2
    b11, b22, b12 = b1 * b1, b2 * b2, b1 * b2
    return (
        a11 + a22 - b11 - b22,
        2.0 * (a2 * b1 - a1 * b2),
        2.0 * (a2 * b2 + a1 * b1),
        2.0 * (a2 * b1 + a1 * b2),
        a11 - a22 + b11 - b22,
        2.0 * (b12 - a12),
        2.0 * (a2 * b2 - a1 * b1),
        2.0 * (b12 + a12),
        a11 - a22 - b11 + b22,
    )


def klein_omega(g: SU2Element) -> SO3Element:
    """Covering epimorphism SU(2) -> SO(3) (entries from `klein_entries`)."""
    m = klein_entries(g.a_re, g.a_im, g.b_re, g.b_im)
    return SO3Element((m[0:3], m[3:6], m[6:9]))


def cover_pair(c: SO3Element) -> tuple[complex, complex]:
    """Unit covering pair (A, B) of the rotation c, with Re A >= 0.

    Three covering identities are linear in the entries:

        A^2       = (c22 + c33 + i(c32 - c23))/2
        B^2       = (c22 - c33 + i(c32 + c23))/2
        A conj(B) = (c13 + i c12)/2

    When c11 = |A|^2 - |B|^2 >= 0, A is the principal root of A^2 and B
    follows from A conj(B); otherwise B is a root of B^2 and A follows.
    Each path divides only by the larger of |A| and |B|, so no digits are
    lost near half turns (Re A = 0) or axis-1 rotations (B = 0; entries
    c12 = c13 = 0 give B = 0 exactly).

    At Re A = 0 (half turns) the rule picks, when c11 >= 0, the lift
    with Im A > 0, and otherwise the one whose B is the principal root of
    B^2, unless the A it gives rounds to Re A < 0.  `lift_so3` and both
    SO(3) distance routes read this one inverse of the covering map.
    """
    (c11, c12, c13), (_, c22, c23), (_, c32, c33) = c.m
    a_conj_b = complex(0.5 * c13, 0.5 * c12)
    # "+ 0.0" turns a signed zero into +0, so that the root of a negative
    # real square is +i|.| whatever the sign of its zero imaginary part.
    if c11 >= 0.0:
        a = cmath.sqrt(complex(0.5 * (c22 + c33), 0.5 * (c32 - c23) + 0.0))
        b = (a_conj_b / a).conjugate()
    else:
        b = cmath.sqrt(complex(0.5 * (c22 - c33), 0.5 * (c32 + c23) + 0.0))
        a = a_conj_b * b / (b.real * b.real + b.imag * b.imag)
        if a.real < 0.0:
            a, b = -a, -b
    # Normalizing keeps the pair on the unit sphere when the entries are
    # noisy, so that |A| and k^2 = |B|^2 come from the same pair.
    norm = math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    return a / norm, b / norm


def lift_so3(c: SO3Element) -> tuple[SU2Element, SU2Element]:
    """Both SU(2) preimages of a rotation: `cover_pair`'s canonical lift, then its negation.

    Both are built exactly (`_unit_pair`), so the lift is `cover_pair`'s
    pair to the bit, also at Re A = 0, and the negation is exact.
    """
    a, b = cover_pair(c)
    lift = _unit_pair(a.real, a.imag, b.real, b.imag)
    return lift, lift.negate()


def random_su2(rng: np.random.Generator) -> SU2Element:
    """Random SU(2) element from a normalized 4-dimensional Gaussian."""
    while True:
        v = rng.standard_normal(4)
        n = math.sqrt(v.dot(v))  # np.linalg.norm(v), to the bit
        if n > 1e-6:
            return SU2Element(*(v / n).tolist())


def random_so3(rng: np.random.Generator) -> SO3Element:
    """Random rotation as the image of a random unit quaternion."""
    return klein_omega(random_su2(rng))

"""Quaternion scalars, imaginary units and slice-plane embeddings.

Quaternions are kept as plain float 4-tuples (w, x, y, z) wrapped in a small
immutable class.  The unit sphere of imaginary units (pure quaternions with
q*q = -1) gets its own constructor so invalid units are rejected early; each
unit I spans the complex slice {x + y*I}.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, ZeroDivisor
from .tolerances import TOL, UNIT_TOL

# int and float first: isinstance against the numbers ABC is the slow path
_REAL = (int, float, numbers.Real)


class Quaternion:
    """Element of the quaternion algebra H with components w + x*i + y*j + z*k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other) -> "Quaternion":
        other = as_quaternion(other)
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        other = as_quaternion(other)
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other) -> "Quaternion":
        return as_quaternion(other) - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return hamilton_product(self, other)
        if isinstance(other, _REAL):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return hamilton_product(self, as_quaternion(other))

    def __rmul__(self, other) -> "Quaternion":
        if isinstance(other, _REAL):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return hamilton_product(as_quaternion(other), self)

    def __truediv__(self, other) -> "Quaternion":
        if isinstance(other, _REAL):
            return self * (1.0 / float(other))
        return self * quat_inverse(as_quaternion(other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Quaternion, int, float)):
            return NotImplemented
        other = as_quaternion(other)
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"

    # -- structure --------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def real(self) -> float:
        return self.w

    def imag_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        return quat_inverse(self)

    # -- serialization ----------------------------------------------------

    def to_list(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_list(cls, data: Sequence[float]) -> "Quaternion":
        if len(data) != 4:
            raise ValueError(f"quaternion JSON must be a 4-array, got {len(data)} entries")
        return cls(*data)


class ImaginaryUnit(Quaternion):
    """Point of the unit 2-sphere {q : q*q = -1}, i.e. a pure unit quaternion.

    Inputs within UNIT_TOL of unit length are renormalised; anything further
    off is rejected rather than silently scaled.
    """

    __slots__ = ()

    def __init__(self, x: float, y: float, z: float):
        n = math.sqrt(x * x + y * y + z * z)
        if not abs(n - 1.0) <= UNIT_TOL:  # written so that NaN fails too
            raise ValueError(f"imaginary unit must have norm 1 (got {n!r})")
        super().__init__(0.0, x / n, y / n, z / n)

    def __repr__(self) -> str:
        return f"ImaginaryUnit({self.x:g}, {self.y:g}, {self.z:g})"

    def to_list(self) -> list[float]:
        return [self.x, self.y, self.z]

    @classmethod
    def from_list(cls, data: Sequence[float]) -> "ImaginaryUnit":
        if len(data) != 3:
            raise ValueError(f"imaginary unit JSON must be a 3-array, got {len(data)} entries")
        return cls(*data)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "ImaginaryUnit":
        if abs(q.w) > UNIT_TOL:
            raise ValueError(f"quaternion {q!r} has a real part; not an imaginary unit")
        return cls(q.x, q.y, q.z)


ONE = Quaternion(1.0)
ZERO = Quaternion(0.0)
I = ImaginaryUnit(1.0, 0.0, 0.0)
J = ImaginaryUnit(0.0, 1.0, 0.0)
K = ImaginaryUnit(0.0, 0.0, 1.0)


def as_quaternion(value) -> Quaternion:
    """Coerce reals and 4-sequences to Quaternion; pass quaternions through."""
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, _REAL):
        return Quaternion(value)
    if isinstance(value, complex):
        raise TypeError("complex numbers embed via embed_slice(z, I), not implicitly")
    return Quaternion.from_list(list(value))


def quaternion_rows(values) -> np.ndarray:
    """A new C-ordered (n, 4) float64 array of (w, x, y, z) rows: a copy of an (n, 4) array, else one row per
    quaternion-like, read as `as_quaternion` reads it.  Any other array shape is a ShapeMismatch."""
    if not isinstance(values, np.ndarray):
        values = [(q.w, q.x, q.y, q.z) for q in map(as_quaternion, values)] or np.empty((0, 4))
    rows = np.array(values, dtype=np.float64, order="C")
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ShapeMismatch(f"quaternions need (w, x, y, z) rows, got an array of shape {rows.shape}")
    return rows


def row_norm2(row) -> float:
    """`Quaternion.norm2` of one (w, x, y, z) row: w*w + x*x + y*y + z*z, in that order.

    Give it Python floats (an array's `tolist()` rows), which overflow to inf
    silently as `Quaternion` does; numpy scalars would warn.
    """
    w, x, y, z = row
    return w * w + x * x + y * y + z * z


def hamilton_product(a: Quaternion, b: Quaternion) -> Quaternion:
    """Noncommutative product of H; associative and bilinear over the reals."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def hamilton_components(a: tuple, b: tuple) -> tuple:
    """`hamilton_product` on (w, x, y, z) tuples of floats or numpy arrays.

    The same float expressions in the same order, so arrays of components
    multiply entry by entry bit for bit like the scalar product.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_inverse(q: Quaternion) -> Quaternion:
    """Two-sided inverse conj(q)/|q|^2.

    Raises ZeroDivisor when |q| <= TOL.
    """
    n2 = q.norm2()
    if math.sqrt(n2) <= TOL:
        raise ZeroDivisor(f"cannot invert quaternion with norm {math.sqrt(n2):g}")
    return Quaternion(q.w / n2, -q.x / n2, -q.y / n2, -q.z / n2)


def inverse_components(q: tuple) -> tuple:
    """`quat_inverse` on (w, x, y, z) numpy arrays, entry by entry bit for bit.

    Raises ZeroDivisor, for the first entry in order, when any |q| <= TOL.
    """
    w, x, y, z = q
    n2 = w * w + x * x + y * y + z * z
    norm = np.sqrt(n2)
    small = norm <= TOL
    if small.any():
        raise ZeroDivisor(f"cannot invert quaternion with norm {float(norm[np.argmax(small)]):g}")
    return w / n2, -x / n2, -y / n2, -z / n2


def embed_slice(z: complex, unit: Quaternion) -> Quaternion:
    """Embed x + y*i of C into the slice plane through `unit`: x + y*unit."""
    z = complex(z)
    return Quaternion(
        z.real + z.imag * unit.w,
        z.imag * unit.x,
        z.imag * unit.y,
        z.imag * unit.z,
    )


def random_imaginary_unit(rng: np.random.Generator) -> ImaginaryUnit:
    """Uniform sample of the unit 2-sphere via a normalised Gaussian triple."""
    while True:
        v = rng.standard_normal(3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:  # redraw a Gaussian triple too short to normalise accurately
            return ImaginaryUnit(v[0] / n, v[1] / n, v[2] / n)


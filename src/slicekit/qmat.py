"""Dense matrix algebra over the quaternions, kept as two complex blocks.

A = A1 + A2*j holds w + x*i + y*j + z*k as (w + x*i) + (y + z*i)*j.  Since
j*c = conj(c)*j for complex c, products, conjugate transposes and sums are
numpy operations on the blocks; `Quaternion` entries are built only on read.
Rank and inversion go through the complex adjoint [[A1, A2], [-conj(A2),
conj(A1)]], which sidesteps pivot ordering over a noncommutative ring.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, Singular
from .quat import Quaternion, as_quaternion
from .tolerances import RANK_CUTOFF

_TERMS_PER_BLOCK = 1 << 13  # entry products formed at once by a stacked `apply_column`: bounds its temporaries


def _pairs(quaternions: Sequence[Quaternion]) -> np.ndarray:
    """(n, 2) complex array of the pairs (w + x*i, y + z*i), bit for bit."""
    return np.array([(q.w, q.x, q.y, q.z) for q in quaternions], dtype=float).view(complex)


def _quaternions(pairs: np.ndarray) -> tuple[Quaternion, ...]:
    """Quaternions from a C-contiguous (..., 2) array of such pairs, in row-major order, bit for bit."""
    return tuple(Quaternion(*c) for c in pairs.view(float).reshape(-1, 4).tolist())


class QuaternionMatrix:
    """Dense matrix with Quaternion entries, stored as the complex blocks (a1, a2)."""

    __slots__ = ("a1", "a2")

    def __init__(self, rows: int, cols: int, entries: Sequence[Quaternion]):
        if rows <= 0 or cols <= 0:
            raise ShapeMismatch(f"matrix dimensions must be positive, got {rows}x{cols}")
        entries = [as_quaternion(e) for e in entries]
        if len(entries) != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        pairs = _pairs(entries).reshape(rows, cols, 2)
        self.a1, self.a2 = pairs[..., 0], pairs[..., 1]

    @classmethod
    def _of(cls, a1: np.ndarray, a2: np.ndarray) -> "QuaternionMatrix":
        out = cls.__new__(cls)
        out.a1, out.a2 = a1, a2
        return out

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Quaternion]]) -> "QuaternionMatrix":
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatch("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "QuaternionMatrix":
        return cls.diagonal([Quaternion(1.0)] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuaternionMatrix":
        return cls(rows, cols, [Quaternion()] * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[Quaternion]) -> "QuaternionMatrix":
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else Quaternion() for i in range(n) for j in range(n)])

    rows = property(lambda self: self.a1.shape[0])
    cols = property(lambda self: self.a1.shape[1])

    @property
    def entries(self) -> tuple[Quaternion, ...]:
        return _quaternions(np.stack([self.a1, self.a2], axis=-1))

    def __getitem__(self, idx: tuple[int, int]) -> Quaternion:
        return _quaternions(np.array([self.a1[idx], self.a2[idx]]))[0]

    def row(self, i: int) -> tuple[Quaternion, ...]:
        return _quaternions(np.stack([self.a1[i], self.a2[i]], axis=-1))

    def __add__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        if self.a1.shape != other.a1.shape:
            raise ShapeMismatch("matrix addition requires equal shapes")
        return QuaternionMatrix._of(self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        if self.a1.shape != other.a1.shape:
            raise ShapeMismatch("matrix subtraction requires equal shapes")
        return QuaternionMatrix._of(self.a1 - other.a1, self.a2 - other.a2)

    def scale(self, factor: float) -> "QuaternionMatrix":
        # component by component, as Quaternion scaling: a complex product would turn -0.0 into 0.0
        pairs = (np.stack([self.a1, self.a2], axis=-1).view(float) * factor).view(complex)
        return QuaternionMatrix._of(pairs[..., 0], pairs[..., 1])

    def conj_transpose(self) -> "QuaternionMatrix":
        return QuaternionMatrix._of(self.a1.conj().T, -self.a2.T)

    def apply_column(self, column: Sequence[Quaternion] | np.ndarray) -> tuple[Quaternion, ...] | np.ndarray:
        """Matrix times column vector, entries multiplied in matrix-then-vector order.

        A stack of P columns, given as a (P, cols, 4) float array of (w, x, y, z)
        components, gives the (P, rows, 4) array of the P products, each bit for
        bit the product of its column alone.
        """
        stacked = isinstance(column, np.ndarray)
        c = np.ascontiguousarray(column, dtype=float).view(complex) if stacked else _pairs(column)[None]
        if c.shape[1:] != (self.cols, 2):
            raise ShapeMismatch(f"column of length {c.shape[1]} against {self.rows}x{self.cols}")
        # (a1 + a2*j)(c1 + c2*j) = a1*(c1, c2) + a2*(-conj(c2), conj(c1)), as (first, second) block
        swapped = c[:, :, ::-1].conj()
        swapped[:, :, 0] = -swapped[:, :, 0]
        block = max(1, _TERMS_PER_BLOCK // self.a1.size)  # columns whose terms are formed at once
        sums = []
        for start in range(0, max(len(c), 1), block):
            part, flipped = c[start : start + block, None], swapped[start : start + block, None]
            terms = self.a1[:, :, None] * part + self.a2[:, :, None] * flipped
            # summed left to right from +0.0 like an entrywise loop, so exact terms (eta stacks) give the same bits
            sums.append(np.add.accumulate(terms, axis=2)[:, :, -1] + 0.0)
        out = sums[0] if len(sums) == 1 else np.concatenate(sums)
        return out.view(float) if stacked else _quaternions(out[0])

    def max_norm(self) -> float:
        """Largest entry norm; NaN when any entry holds a NaN."""
        norm2 = self.a1.real**2 + self.a1.imag**2 + self.a2.real**2 + self.a2.imag**2
        return float(np.sqrt(norm2).max())

    def __repr__(self) -> str:
        return f"QuaternionMatrix({self.rows}x{self.cols})"


def qmat_mul(a: QuaternionMatrix, b: QuaternionMatrix) -> QuaternionMatrix:
    """Row-column product; Hamilton factors keep left-to-right order."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return QuaternionMatrix._of(a.a1 @ b.a1 - a.a2 @ b.a2.conj(), a.a1 @ b.a2 + a.a2 @ b.a1.conj())


def complex_adjoint(a: QuaternionMatrix) -> np.ndarray:
    """Complex (2m x 2n) adjoint [[A1, A2], [-conj(A2), conj(A1)]]: a homomorphism, so rank and inverses transfer."""
    m, n = a.a1.shape
    out = np.empty((2 * m, 2 * n), dtype=complex)
    out[:m, :n] = a.a1
    out[:m, n:] = a.a2
    out[m:, :n] = -a.a2.conj()
    out[m:, n:] = a.a1.conj()
    return out


def _rank(s: np.ndarray) -> int:
    """Quaternionic rank from the adjoint's singular values `s` (descending): the complex rank halved."""
    return int(np.count_nonzero(s > RANK_CUTOFF * s[0])) // 2 if s[0] > 0.0 else 0


def qmat_rank(a: QuaternionMatrix) -> int:
    """Quaternionic rank, i.e. complex rank of the adjoint halved."""
    return _rank(np.linalg.svd(complex_adjoint(a), compute_uv=False))


def qmat_inverse(a: QuaternionMatrix) -> QuaternionMatrix:
    """Two-sided inverse via the complex adjoint.

    Below full rank raises Singular with its `rank`, the `margin` s_min / s_max
    of the adjoint's singular values and the `tolerance` RANK_CUTOFF.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("only square matrices can be inverted")
    adjoint = complex_adjoint(a)
    s = np.linalg.svd(adjoint, compute_uv=False)
    rank = _rank(s)
    if rank < a.rows:
        margin = float(s[-1] / s[0]) if s[0] > 0.0 else 0.0
        message = f"matrix of rank {rank} < {a.rows} has no inverse"
        raise Singular(message, rank=rank, margin=margin, tolerance=RANK_CUTOFF)
    # the top block row of the adjoint's inverse is [A1, A2] of the quaternionic inverse
    return QuaternionMatrix._of(*np.split(np.linalg.inv(adjoint)[: a.rows], 2, axis=1))

"""Dense matrix algebra over the quaternions.

Rank and inversion go through the complex adjoint representation
A = A1 + A2*j  ->  [[A1, A2], [-conj(A2), conj(A1)]], which doubles the
dimension but sidesteps pivot ordering over a noncommutative ring.  Matrices
here are small (at most 2**N square for N <= 4), so clarity wins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, Singular
from .quat import Quaternion, as_quaternion
from .tolerances import RANK_CUTOFF


class QuaternionMatrix:
    """Row-major dense matrix with Quaternion entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Quaternion]):
        if rows <= 0 or cols <= 0:
            raise ShapeMismatch(f"matrix dimensions must be positive, got {rows}x{cols}")
        entries = tuple(as_quaternion(e) for e in entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Quaternion]]) -> "QuaternionMatrix":
        nrows = len(rows)
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatch("ragged rows")
        return cls(nrows, ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "QuaternionMatrix":
        return cls(n, n, [Quaternion(1.0 if i == j else 0.0) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuaternionMatrix":
        return cls(rows, cols, [Quaternion()] * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[Quaternion]) -> "QuaternionMatrix":
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else Quaternion() for i in range(n) for j in range(n)])

    def __getitem__(self, idx: tuple[int, int]) -> Quaternion:
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Quaternion, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __add__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix addition requires equal shapes")
        return QuaternionMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix subtraction requires equal shapes")
        return QuaternionMatrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __matmul__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return qmat_mul(self, other)

    def scale(self, factor: float) -> "QuaternionMatrix":
        return QuaternionMatrix(self.rows, self.cols, [e * factor for e in self.entries])

    def conj_transpose(self) -> "QuaternionMatrix":
        out = [self[i, j].conjugate() for j in range(self.cols) for i in range(self.rows)]
        return QuaternionMatrix(self.cols, self.rows, out)

    def apply_column(self, column: Sequence[Quaternion]) -> tuple[Quaternion, ...]:
        """Matrix times column vector, entries multiplied in matrix-then-vector order."""
        if len(column) != self.cols:
            raise ShapeMismatch(f"column of length {len(column)} against {self.rows}x{self.cols}")
        out = []
        for i in range(self.rows):
            acc = Quaternion()
            for k in range(self.cols):
                acc = acc + self[i, k] * column[k]
            out.append(acc)
        return tuple(out)

    def max_norm(self) -> float:
        return max(e.norm() for e in self.entries)

    def __repr__(self) -> str:
        return f"QuaternionMatrix({self.rows}x{self.cols})"


def qmat_mul(a: QuaternionMatrix, b: QuaternionMatrix) -> QuaternionMatrix:
    """Row-column product; Hamilton factors keep left-to-right order."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Quaternion()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return QuaternionMatrix(a.rows, b.cols, out)


def complex_adjoint(a: QuaternionMatrix) -> np.ndarray:
    """Complex (2m x 2n) adjoint of a quaternion matrix.

    Writing each entry as (w + x*i) + (y + z*i)*j, the block layout is
    [[A1, A2], [-conj(A2), conj(A1)]].  The map is an algebra homomorphism, so
    rank and inverses transfer back and forth.
    """
    a1 = np.empty((a.rows, a.cols), dtype=complex)
    a2 = np.empty((a.rows, a.cols), dtype=complex)
    for i in range(a.rows):
        for j in range(a.cols):
            q = a[i, j]
            a1[i, j] = complex(q.w, q.x)
            a2[i, j] = complex(q.y, q.z)
    top = np.hstack([a1, a2])
    bottom = np.hstack([-a2.conj(), a1.conj()])
    return np.vstack([top, bottom])


def _from_adjoint_blocks(adj: np.ndarray, rows: int, cols: int) -> QuaternionMatrix:
    a1 = adj[:rows, :cols]
    a2 = adj[:rows, cols:]
    entries = []
    for i in range(rows):
        for j in range(cols):
            entries.append(Quaternion(a1[i, j].real, a1[i, j].imag, a2[i, j].real, a2[i, j].imag))
    return QuaternionMatrix(rows, cols, entries)


def qmat_rank(a: QuaternionMatrix) -> int:
    """Quaternionic rank, i.e. complex rank of the adjoint halved."""
    s = np.linalg.svd(complex_adjoint(a), compute_uv=False)
    if s[0] == 0.0:
        return 0
    complex_rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return complex_rank // 2


def qmat_inverse(a: QuaternionMatrix) -> QuaternionMatrix:
    """Two-sided inverse via the complex adjoint; raises Singular below full rank."""
    if a.rows != a.cols:
        raise ShapeMismatch("only square matrices can be inverted")
    if qmat_rank(a) < a.rows:
        raise Singular(f"matrix of rank {qmat_rank(a)} < {a.rows} has no inverse")
    adj_inv = np.linalg.inv(complex_adjoint(a))
    return _from_adjoint_blocks(adj_inv, a.rows, a.cols)


def left_linearly_independent(vectors: Sequence[Sequence[Quaternion]]) -> bool:
    """True iff no nontrivial left combination sum(q_i * v_i) vanishes.

    Equivalent to the stacked matrix having rank equal to the vector count.
    """
    if not vectors:
        return True
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1:
        raise ShapeMismatch("vectors must share one length")
    stacked = QuaternionMatrix.from_rows([list(v) for v in vectors])
    return qmat_rank(stacked) == len(vectors)

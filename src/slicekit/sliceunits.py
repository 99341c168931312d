"""Combinatorial matrix constructions over the sphere of imaginary units.

A slice-unit matrix J assigns one imaginary unit to each of 2**N rows and N
columns.  Each row expands through the unit-product map into a row of 2**N
quaternions, and stacking those rows yields the square matrix whose
invertibility governs the representation formula.  The mirrored +-I stack
eta_N(I) is the canonical choice: scaled by 2**(-N/2) it is unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from orjson import dumps, loads

from .errors import IndexOutOfRange, NotIndependent, ShapeMismatch
from .paths import _json_number
from .qmat import QuaternionMatrix, _rank, complex_adjoint, qmat_rank
from .quat import ImaginaryUnit, Quaternion, hamilton_components, random_imaginary_unit

_ONE = (1.0, 0.0, 0.0, 0.0)  # components of Quaternion(1.0), which starts every unit product


def unit_product(units: Sequence[Quaternion], m: int) -> Quaternion:
    """Product prod_{l=N..1} (I_l * I_{l-1})**m_l with I_0 = 1.

    The exponents (m_N ... m_1)_2 are the binary digits of m - 1, so m = 1
    always yields 1 and m = 2**N pairs every neighbouring factor.
    """
    n = len(units)
    if not 1 <= m <= 1 << n:
        raise IndexOutOfRange(f"index {m} outside 1..{1 << n}")
    bits = m - 1
    out = Quaternion(1.0)
    for l in range(n, 0, -1):
        if (bits >> (l - 1)) & 1:
            lower = units[l - 2] if l >= 2 else Quaternion(1.0)
            out = out * (units[l - 1] * lower)
    return out


def _zeta_components(units: Sequence[Quaternion]) -> list[tuple[float, float, float, float]]:
    """All unit products of `units` as (w, x, y, z) tuples, bit for bit `unit_product(units, m)` for m = 1..2**N.

    Runs `unit_product`'s loop for every m at once: the pass for l = N..1 keeps
    each product so far (m_l = 0) and follows it by itself times I_l * I_{l-1}
    (m_l = 1), so list index m - 1 spells (m_N ... m_1)_2 and each product has
    the same factors in the same order.  It forms 2**N - 1 products, not about
    N * 2**(N-1).
    """
    components = [(u.w, u.x, u.y, u.z) for u in units]
    out = [_ONE]
    for l in range(len(units), 0, -1):
        pair = hamilton_components(components[l - 1], components[l - 2] if l >= 2 else _ONE)
        out = [q for o in out for q in (o, hamilton_components(o, pair))]
    return out


def zeta(units: Sequence[Quaternion]) -> tuple[Quaternion, ...]:
    """Row vector (P(1), P(2), ..., P(2**N)) of all unit products."""
    if len(units) < 1:
        raise ShapeMismatch("zeta needs at least one unit")
    return tuple(Quaternion(*q) for q in _zeta_components(units))


@dataclass(frozen=True)
class SliceUnitMatrix:
    """2**N x N grid of imaginary units with row and truncation access."""

    N: int
    entries: tuple[tuple[Quaternion, ...], ...]

    def __post_init__(self):
        if len(self.entries) != 1 << self.N or any(len(r) != self.N for r in self.entries):
            raise ShapeMismatch(f"slice-unit matrix of order {self.N} must be {1 << self.N}x{self.N}")

    def row(self, i: int) -> tuple[Quaternion, ...]:
        """Row i in 1-based indexing, a tuple of N units."""
        return self.entries[i - 1]

    @property
    def rows(self) -> tuple[tuple[Quaternion, ...], ...]:
        return self.entries

    def truncation(self, l: int) -> "SliceUnitMatrix":
        """First 2**l rows and first l columns."""
        if not 1 <= l <= self.N:
            raise IndexOutOfRange(f"truncation level {l} outside 1..{self.N}")
        return SliceUnitMatrix(l, tuple(r[:l] for r in self.entries[: 1 << l]))

    def permute_rows(self, perm: Sequence[int]) -> "SliceUnitMatrix":
        """Reorder rows by a permutation of 1..2**N (new row i = old row perm[i-1])."""
        if sorted(perm) != list(range(1, (1 << self.N) + 1)):
            raise ShapeMismatch("not a permutation of 1..2**N")
        return SliceUnitMatrix(self.N, tuple(self.entries[p - 1] for p in perm))

    def last_column(self) -> tuple[Quaternion, ...]:
        return tuple(r[-1] for r in self.entries)

    def to_json(self) -> str:
        rows = [[[u.x, u.y, u.z] for u in row] for row in self.entries]
        return dumps({"N": self.N, "rows": rows}).decode()

    @classmethod
    def from_json(cls, text: str | bytes) -> "SliceUnitMatrix":
        data = loads(text)
        n, rows = (data.get("N"), data.get("rows")) if isinstance(data, dict) else (None, None)
        shaped = type(n) is int and n >= 1 and isinstance(rows, list) and rows
        # every row holds N units, so 1 << N is no larger than the input
        if not (shaped and all(isinstance(row, list) and len(row) == n for row in rows) and len(rows) == 1 << n):
            raise ValueError('slice-unit matrix JSON must be {"N": n >= 1, "rows": [...]}: 2**n rows of n units')
        return cls(n, tuple(tuple(unit_from_json(u) for u in row) for row in rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Quaternion]]) -> "SliceUnitMatrix":
        n = len(rows[0])
        return cls(n, tuple(tuple(r) for r in rows))


def unit_from_json(value) -> ImaginaryUnit:
    """An imaginary unit from a JSON array [x, y, z] of finite numbers; anything else is a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"a unit must be a JSON array [x, y, z], got {value!r}")
    return ImaginaryUnit.from_list([float(_json_number(c)) for c in value])


def eta_row(n: int, m: int, unit: Quaternion) -> tuple[Quaternion, ...]:
    """Signed constant row ((-1)**m_N * I, ..., (-1)**m_1 * I)."""
    if not 1 <= m <= 1 << n:
        raise IndexOutOfRange(f"row index {m} outside 1..{1 << n}")
    bits = m - 1
    return tuple(-unit if (bits >> (l - 1)) & 1 else unit for l in range(n, 0, -1))


def eta(n: int, unit: Quaternion) -> SliceUnitMatrix:
    """Stack of all 2**n signed rows built from a single unit."""
    if n < 1:
        raise ShapeMismatch("eta needs n >= 1")
    return SliceUnitMatrix(n, tuple(eta_row(n, m, unit) for m in range(1, (1 << n) + 1)))


def slice_matrix(j: SliceUnitMatrix) -> QuaternionMatrix:
    """Square matrix M(J) whose row i is zeta of row i of J.

    Truncations are its leading blocks: zeta(row[:l]) is bit for bit the first
    2**l entries of zeta(row), so `slice_matrix(j.truncation(l))` is the top
    left 2**l x 2**l block of `slice_matrix(j)`.
    """
    pairs = np.array([_zeta_components(row) for row in j.entries], dtype=float).view(complex)
    return QuaternionMatrix._of(pairs[..., 0], pairs[..., 1])


def _leading_columns(adjoint: np.ndarray, width: int) -> np.ndarray:
    """Columns 0..width-1 and 2**N..2**N+width-1 of the adjoint of M(J): those of M(J)'s first `width` columns."""
    size = len(adjoint) // 2
    return np.concatenate([adjoint[:, :width], adjoint[:, size : size + width]], axis=1)


def _rows_rank(columns: np.ndarray, rows: Sequence[int]) -> int:
    """`qmat_rank` of the given rows of M(J) (0-based) cut to the columns of `_leading_columns`.

    The adjoint of that block is, entry for entry, rows R and R + 2**N of
    `columns`, so its singular values and its rank are the same.
    """
    rows = np.asarray(rows)
    return _rank(np.linalg.svd(columns[np.concatenate([rows, rows + len(columns) // 2])], compute_uv=False))


def eta_inverse(j: SliceUnitMatrix) -> QuaternionMatrix:
    """Inverse of the slice matrix of an eta stack via its unitarity.

    2**(-N/2) * M is unitary, so M**-1 = 2**(-N) * conj(M)^T.  Only valid for
    matrices of eta shape; general inverses go through the complex adjoint.
    """
    m = slice_matrix(j)
    return m.conj_transpose().scale(2.0 ** (-j.N))


def is_left_slice_linearly_independent(j: SliceUnitMatrix) -> bool:
    """True iff the expanded zeta rows admit no nontrivial left combination."""
    return qmat_rank(slice_matrix(j)) == (1 << j.N)


def has_full_slice_rank(j: SliceUnitMatrix) -> bool:
    """True iff every truncation's slice matrix, a leading block of M(J), is invertible."""
    adjoint = complex_adjoint(slice_matrix(j))
    return all(_rows_rank(_leading_columns(adjoint, 1 << l), range(1 << l)) == 1 << l for l in range(1, j.N + 1))


def full_slice_rank_permutation(j: SliceUnitMatrix) -> tuple[int, ...]:
    """Row permutation making a left slice-linearly independent J full slice-rank.

    Mirrors the inductive argument: at level l the current front block of
    2**(l+1) rows has independent (l+1)-column zeta rows; among them 2**l rows
    with independent l-column zeta rows exist, and moving those to the front
    preserves every higher level.  Rows are scanned in ascending position and
    accepted when they raise the rank, so the output is deterministic.  The
    l-column zeta rows of a trial are rows of M(J) cut to 2**l columns, and
    the adjoint of M(J), formed once, gives every trial's adjoint as a subset.
    """
    adjoint = complex_adjoint(slice_matrix(j))
    if _rank(np.linalg.svd(adjoint, compute_uv=False)) != 1 << j.N:
        raise NotIndependent("rows are left slice-linearly dependent; no permutation can help")
    order = list(range(1, (1 << j.N) + 1))
    for level in range(j.N - 1, 0, -1):
        candidates = order[: 1 << (level + 1)]
        columns = _leading_columns(adjoint, 1 << level)
        selected: list[int] = []
        for row_idx in candidates:
            if len(selected) == 1 << level:
                break
            trial = selected + [row_idx]
            if _rows_rank(columns, [r - 1 for r in trial]) == len(trial):
                selected.append(row_idx)
        if len(selected) != 1 << level:  # cannot happen for independent input
            raise NotIndependent(f"could not select {1 << level} independent rows at level {level}")
        rest = [r for r in candidates if r not in selected]
        order = selected + rest + order[1 << (level + 1) :]
    return tuple(order)


def slice_diag(j: SliceUnitMatrix) -> QuaternionMatrix:
    """Diagonal of last-column units; intertwines the slice matrix and sigma.

    For J = eta_N(I) (and in fact for any J):  diag * M(J) = M(J) * sigma_N
    with sigma_N = `stemtensor.sigma_matrix(N)`,
    because multiplying a zeta row on the left by its last unit permutes the
    unit products exactly as sigma permutes the basis.
    """
    return QuaternionMatrix.diagonal(list(j.last_column()))


_MAX_DRAWS = 64  # draws before random_slice_unit_matrix gives up; a random grid is independent almost surely


def random_slice_unit_matrix(n: int, rng: np.random.Generator) -> SliceUnitMatrix:
    """Random unit grid, redrawn until left slice-linearly independent."""
    for _ in range(_MAX_DRAWS):
        rows = tuple(
            tuple(random_imaginary_unit(rng) for _ in range(n)) for _ in range(1 << n)
        )
        candidate = SliceUnitMatrix(n, rows)
        if is_left_slice_linearly_independent(candidate):
            return candidate
    raise NotIndependent(f"no independent sample found in {_MAX_DRAWS} draws")

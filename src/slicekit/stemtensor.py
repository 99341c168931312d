"""Stem columns, the tensor algebra C^(x)N (x) H, and the star product.

A stem value is a column of 2**N quaternions.  The basis isomorphism onto the
tensor algebra is the identity on entries: entry m is the H coefficient of
the basis element b(m), so one `StemValue` serves as stem value, tensor
element and invariant vector alike, stored as the (2**N, 4) float64 array of
the batched stem evaluator, the grid and the validators.  The N complex slots
commute with everything and the single H slot keeps quaternion order, so
multiplication reduces to structure constants on the basis

    b(m) = prod_{l=N..1} (i_l * i_{l-1})**m_l,   (m_N ... m_1)_2 = m - 1,

with i_l the slot-l imaginary and i_0 = 1.  Expanding the product, b(m)
carries an i in slot l exactly when bits l and l+1 of m-1 differ, and a sign
(-1)**(number of adjacent 1-1 bit pairs).  Multiplying two basis elements
XORs the bit patterns; the resulting sign law is validated against an
independent Kronecker matrix representation (see `oracle_star`).

`star_vector` has two paths that agree bit for bit: a per-term loop, and
`star_kernel`, which forms one term per live pair in one numpy pass and adds
the terms in the loop's order.  The kernel runs from `ARRAY_KERNEL_PAIRS`
(256) live term pairs on; the measured crossover lies near 130-190 pairs, so
the small products of `check --suite all` stay on the loop.
`calculus.star_product` shares the kernel and the constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, ShapeMismatch
from .quat import Quaternion, hamilton_components, quaternion_rows, row_norm2


def _bit(value: int, position: int) -> int:
    """Bit `position` (1-based from the least significant) of `value`."""
    return (value >> (position - 1)) & 1


@lru_cache(maxsize=None)
def _slot_pattern(n: int, m: int) -> int:
    """Bitmask of slots carrying an i in basis element m (1..2**n)."""
    if not 1 <= m <= 1 << n:
        raise IndexOutOfRange(f"basis index {m} outside 1..{1 << n}")
    bits = m - 1
    pattern = 0
    for slot in range(1, n + 1):
        if _bit(bits, slot) ^ _bit(bits, slot + 1):
            pattern |= 1 << (slot - 1)
    return pattern


@lru_cache(maxsize=None)
def _basis_sign(n: int, m: int) -> int:
    """Sign of basis element m relative to the bare slot pattern."""
    bits = m - 1
    pairs = sum(1 for slot in range(1, n) if _bit(bits, slot) and _bit(bits, slot + 1))
    return -1 if pairs % 2 else 1


def basis_product(n: int, a: int, b: int) -> tuple[int, int]:
    """Indices multiply by XOR of (index - 1); returns (c, sign).

    b(a) * b(b) = sign * b(c) with c - 1 = (a - 1) XOR (b - 1).  The sign
    collects each operand's pattern sign, the result's, and a -1 per slot
    where both operands carry an i (i * i = -1 slotwise).
    """
    c = ((a - 1) ^ (b - 1)) + 1
    overlap = _slot_pattern(n, a) & _slot_pattern(n, b)
    sign = _basis_sign(n, a) * _basis_sign(n, b) * _basis_sign(n, c)
    if bin(overlap).count("1") % 2:
        sign = -sign
    return c, sign


def nan_max(values: list[float]) -> float:
    """max(values), but NaN when any value is NaN.

    The builtin keeps a NaN only in first place (NaN > x is false), so a NaN
    residual would otherwise vanish into a passing worst case.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


@np.errstate(all="ignore")
def max_norms(values: np.ndarray) -> list[float]:
    """The largest entry norm of every column of a (..., 2**N, 4) array, flattened, in one array pass: the
    value `StemValue.max_norm` gives one column, in `Quaternion.norm`'s float operations, a NaN kept as
    `nan_max` keeps it."""
    squares = values * values  # w*w, x*x, y*y and z*z, summed in that order
    return np.sqrt(squares[..., 0] + squares[..., 1] + squares[..., 2] + squares[..., 3]).max(axis=-1).ravel().tolist()


@dataclass(frozen=True, eq=False)
class StemValue:
    """2**N quaternions in one column, the read-only (2**N, 4) float64 array `components` of their (w, x, y, z).

    The constructor also takes 2**N quaternion-likes, and `entries` builds `Quaternion`s on read.  Arithmetic is
    entrywise, bit for bit that of `Quaternion`, and overflows silently; -0.0 == 0.0 and NaN is unequal.
    """

    N: int
    components: np.ndarray

    def __post_init__(self):
        components = quaternion_rows(self.components)  # a copy: no caller holds a writeable alias
        if components.shape != (1 << self.N, 4):
            raise ShapeMismatch(f"stem value of order {self.N} needs {1 << self.N} entries")
        components.setflags(write=False)
        object.__setattr__(self, "components", components)

    @classmethod
    def _of(cls, n: int, components: np.ndarray) -> "StemValue":
        """The value of a new C-ordered (2**n, 4) float64 array made inside slicekit: no copy and no check."""
        value = object.__new__(cls)
        components.setflags(write=False)
        object.__setattr__(value, "N", n)
        object.__setattr__(value, "components", components)
        return value

    @property
    def entries(self) -> tuple[Quaternion, ...]:
        """The entries as `Quaternion`s, built from `components` on every read."""
        return tuple(Quaternion(*q) for q in self.components.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, StemValue) and self.N == other.N and np.array_equal(self.components, other.components)

    @np.errstate(all="ignore")
    def __add__(self, other: "StemValue") -> "StemValue":
        if self.N != other.N:
            raise ShapeMismatch("stem values of different order")
        return StemValue._of(self.N, self.components + other.components)

    @np.errstate(all="ignore")
    def __sub__(self, other: "StemValue") -> "StemValue":
        if self.N != other.N:
            raise ShapeMismatch("stem values of different order")
        return StemValue._of(self.N, self.components - other.components)

    @np.errstate(all="ignore")
    def scale(self, factor: float) -> "StemValue":
        """Every entry times the real `factor`."""
        return StemValue._of(self.N, self.components * factor)

    def star(self, other: "StemValue") -> "StemValue":
        return star_vector(self, other)

    def max_norm(self) -> float:
        """Largest entry norm, in `Quaternion.norm`'s float operations; NaN when any entry holds a NaN."""
        return nan_max([math.sqrt(row_norm2(row)) for row in self.components.tolist()])

    @classmethod
    def basis(cls, n: int, index: int) -> "StemValue":
        """Standard column e_{N,index} with a single 1."""
        if not 1 <= index <= 1 << n:
            raise IndexOutOfRange(f"basis index {index} outside 1..{1 << n}")
        column = np.zeros((1 << n, 4))
        column[index - 1, 0] = 1.0
        return cls._of(n, column)

    @classmethod
    def padded(cls, lower: "StemValue") -> "StemValue":
        """(a^T, 0)^T: embed an order-N value in order N+1 by zero padding."""
        return cls._of(lower.N + 1, np.concatenate([lower.components, np.zeros_like(lower.components)]))


def slot_imaginary(n: int, slot: int) -> StemValue:
    """The slot-`slot` imaginary as a stem value, e.g. slot N for z**(N)."""
    if not 1 <= slot <= n:
        raise IndexOutOfRange(f"slot {slot} outside 1..{n}")
    m = 1 << slot  # bits 1..slot of m - 1 set: bits l and l + 1 differ at l = slot alone, so the pattern is {slot}
    column = np.zeros((1 << n, 4))
    column[m - 1, 0] = _basis_sign(n, m)
    return StemValue._of(n, column)


#: live term pairs from which `star_vector` and `calculus.star_product` run `star_kernel` in place of
#: their loops: live entries of a times live entries of b, or live coefficients of f times all of g.
#: Below it the fixed cost of the array pass (some 30 numpy calls) outweighs the per-term loop.
#: Measured crossover (CPython 3.11, numpy 2.4, one core of a 2-CPU VM, best of 9 x 300 calls),
#: loop against array: star_vector with 16 x 8 / 16 x 12 / 16 x 16 live entries at N = 4
#: 111 / 152 / 201 us against 112 / 123 / 126 us, with a sparse b at N = 6 (64 x 2 / 64 x 4)
#: 169 / 234 us against 182 / 151 us, and 64 x 64 about 2.1 ms against 0.42 ms;
#: star_product at lengths 10 x 10 / 12 x 12 / 16 x 16 99 / 134 / 220 us against 93 / 103 / 120 us,
#: 2 x 64 / 64 x 2 150 / 221 us against 135 / 164 us, and 4000 x 1 6.4 ms against 3.3 ms.
#: The kernel wins on every measured shape from about 190 pairs on; 256 keeps every product of
#: `check --suite all` (at most 81) on the loops.
ARRAY_KERNEL_PAIRS = 256


@lru_cache(maxsize=None)
def _product_table(n: int) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """`basis_product` for every pair: row ma - 1 holds (c - 1, sign < 0) per mb."""
    size = 1 << n
    return tuple(
        tuple((c - 1, sign < 0) for c, sign in (basis_product(n, ma, mb) for mb in range(1, size + 1)))
        for ma in range(1, size + 1)
    )


@lru_cache(maxsize=None)
def _product_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_product_table` as arrays indexed [ma - 1, mb - 1]: the output c - 1 and the sign as +-1.0."""
    table = np.array(_product_table(n))
    outputs, sign = table[..., 0].astype(np.intp), np.where(table[..., 1], -1.0, 1.0)
    outputs.flags.writeable = sign.flags.writeable = False
    return outputs, sign


def star_kernel(
    left: np.ndarray, right: np.ndarray, out: np.ndarray, size: int, sign: np.ndarray | None = None
) -> np.ndarray:
    """Array form of the star loops: output c sums sign[r, j] * left[r] * right[j] over the pairs with out[r, j] == c.

    `left` and `right` are (rows, 4) and (cols, 4) arrays of quaternion
    components; `out` and `sign` have one row per entry of `left` and one
    column per entry of `right`, so the work is one term per pair; `sign`
    (+-1.0) defaults to +1.  Every term is `hamilton_components` of its two
    entries, and `np.bincount`, which adds its weights one after another onto
    +0.0, sums them in row-major order, the loops' order: each output equals
    the loops bit for bit, signed zeros, inf and NaN included (x - w is
    x + (-w), and x * -1.0 is -x).  Overflow stays silent, as in the loops.
    Returns the (size, 4) array of the outputs.
    """
    rows, cols = out.shape
    # both operands as whole (4, rows, cols) arrays: flat loops beat broadcast ones
    left = np.repeat(left.T[:, :, None], cols, axis=2)
    right = np.repeat(right.T[:, None, :], rows, axis=1)
    with np.errstate(all="ignore"):
        terms = hamilton_components(left, right)
        if sign is not None:
            terms = [part * sign for part in terms]
        sums = [np.bincount(out.ravel(), part.ravel(), size) for part in terms]
    return np.stack(sums, axis=-1)


def star_vector(a: StemValue, b: StemValue) -> StemValue:
    """Star product: bilinear extension of the basis law, H entries keep order a, b.

    Sums run over the live entries (w*w + x*x + y*y + z*z != 0.0) of `a`, then
    of `b`, in index order; each term is the Hamilton product of the two entries
    (same float expressions as `hamilton_product`), added or subtracted by the
    sign of `basis_product`.  From `ARRAY_KERNEL_PAIRS` live pairs on,
    `star_kernel` forms the same sums in one array pass.
    """
    if a.N != b.N:
        raise ShapeMismatch("stem values of different order")
    left, right = (
        [(m, w, x, y, z) for m, (w, x, y, z) in enumerate(rows) if w * w + x * x + y * y + z * z != 0.0]
        for rows in (a.components.tolist(), b.components.tolist())
    )
    if len(left) * len(right) >= ARRAY_KERNEL_PAIRS:
        live_a, live_b = [m for m, *_ in left], [m for m, *_ in right]
        cells = np.add.outer(np.array(live_a) << a.N, live_b)  # flat positions in the 2**N x 2**N tables
        outputs, sign = (part.take(cells) for part in _product_arrays(a.N))
        return StemValue._of(a.N, star_kernel(a.components[live_a], b.components[live_b], outputs, 1 << a.N, sign))
    table = _product_table(a.N)
    acc = [[0.0, 0.0, 0.0, 0.0] for _ in range(1 << a.N)]
    for ma, aw, ax, ay, az in left:
        row = table[ma]
        for mb, bw, bx, by, bz in right:
            w = aw * bw - ax * bx - ay * by - az * bz
            x = aw * bx + ax * bw + ay * bz - az * by
            y = aw * by - ax * bz + ay * bw + az * bx
            z = aw * bz + ax * by - ay * bx + az * bw
            c, negative = row[mb]
            out = acc[c]
            if negative:
                out[0] -= w
                out[1] -= x
                out[2] -= y
                out[3] -= z
            else:
                out[0] += w
                out[1] += x
                out[2] += y
                out[3] += z
    return StemValue._of(a.N, np.array(acc))


@lru_cache(maxsize=None)
def sigma_matrix(n: int) -> np.ndarray:
    """Real 2**n square matrix with slot-N imaginary action on the basis.

    Its column m holds the expansion of i_{slot N} * b(m); entries are exactly
    0 or +-1, one nonzero per row and column, and the square is -identity.
    """
    size = 1 << n
    sigma = np.zeros((size, size), dtype=np.int64)
    top_sign = _basis_sign(n, size)  # i_{slot N} = top_sign * b(2**n)
    for m in range(1, size + 1):
        c, sign = basis_product(n, size, m)
        sigma[c - 1, m - 1] = top_sign * sign
    return sigma


@np.errstate(all="ignore")
def apply_real_matrix(mat: np.ndarray, value: StemValue) -> StemValue:
    """Real square matrix acting on a stem value (reals commute with H)."""
    size = 1 << value.N
    if mat.shape != (size, size):
        raise ShapeMismatch(f"{mat.shape} matrix against a stem value of {size} entries")
    return StemValue._of(value.N, mat.astype(float) @ value.components)


# -- independent Kronecker representation (oracle) --------------------------

_C_ONE = np.eye(2)
_C_I = np.array([[0.0, -1.0], [1.0, 0.0]])


#: L(q), the matrix of p -> q*p in the basis (1, i, j, k), is [[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x],
#: [z, -y, x, w]]: the components (w, x, y, z) at _LEFT_INDEX times _LEFT_SIGN
_LEFT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])


@lru_cache(maxsize=None)
def _pattern_matrix(n: int, m: int) -> np.ndarray:
    """Signed Kronecker product of the slot matrices of basis element m."""
    out = np.array([[float(_basis_sign(n, m))]])
    pattern = _slot_pattern(n, m)
    for slot in range(1, n + 1):
        out = np.kron(out, _C_I if pattern & (1 << (slot - 1)) else _C_ONE)
    return out


@lru_cache(maxsize=None)
def _kron_scatter(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(block row, block col, m - 1, sign) of every nonzero of the pattern matrices, one array each."""
    parts = []
    for m in range(1, (1 << n) + 1):
        pattern = _pattern_matrix(n, m)
        rows, cols = np.nonzero(pattern)
        parts.append((rows, cols, np.full(len(rows), m - 1), pattern[rows, cols]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def kron_matrix(a: StemValue) -> np.ndarray:
    """Faithful real-matrix image of a stem value, size 4 * 2**N square: sum_m kron(P_m, L(a_m)).

    P_m, the pattern matrix of b(m), is a signed permutation whose nonzeros
    sit where block row XOR block column spells the slot pattern of m; the
    patterns are the Gray code of m - 1, so distinct m have disjoint supports
    and each 4x4 block receives at most one term +-L(a_m).  Those are
    scattered into place at once; `+ 0.0` turns -0.0 into 0.0, as summing
    the terms onto a zero matrix did.  Entries with a_m.norm2() == 0 are
    skipped, so their blocks stay 0.0, and a non-finite a_m reaches only its
    own blocks.
    """
    size = 1 << a.N
    w, x, y, z = a.components.T
    rows, cols, ms, signs = _kron_scatter(a.N)
    live = (w * w + x * x + y * y + z * z != 0.0)[ms]
    ms = ms[live]
    out = np.zeros((size, 4, size, 4))
    # sign * L(a_m) for every term at once; products of +-1 are exact
    out[rows[live], :, cols[live], :] = (signs[live, None, None] * _LEFT_SIGN) * a.components[ms][:, _LEFT_INDEX] + 0.0
    return out.reshape(4 * size, 4 * size)


def tensor_from_kron(n: int, mat: np.ndarray) -> StemValue:
    """Invert `kron_matrix`: the entries are read off the image of 1, the first column.

    Column 0 of kron(P_m, L(a_m)) is P_m[:, 0] (x) a_m, and the signed
    permutation P_m has the one nonzero of its column 0 at block row r_m,
    with sign s_m; so block row r_m of the first column holds s_m * a_m.
    """
    rows, cols, ms, signs = _kron_scatter(n)
    first = cols == 0
    entries = np.empty((1 << n, 4))
    entries[ms[first]] = signs[first, None] * mat[:, 0].reshape(-1, 4)[rows[first]]
    return StemValue._of(n, entries)


def oracle_star(a: StemValue, b: StemValue) -> StemValue:
    """Star product computed entirely in the Kronecker representation.

    Independent of `basis_product`; used to cross-check the sign law.
    """
    if a.N != b.N:
        raise ShapeMismatch("stem values of different order")
    return tensor_from_kron(a.N, kron_matrix(a) @ kron_matrix(b))

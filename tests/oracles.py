"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's complex-adjoint and structure-constant
code paths: left-linear independence is decided by the smallest singular
value of the real linear system over the combination coefficients, and slice
derivatives by finite differences on a single slice.

The two per-term star loops are references of another kind: they do the same
arithmetic as the library's table-driven kernels, one `Quaternion` product
and sum per term, so the kernels must match them bit for bit.

The two per-entry matrix loops multiply `Quaternion` entries one Hamilton
product at a time, never touching the complex blocks that `qmat` computes
with, so they check the block formulas independently.
"""

import numpy as np

from slicekit.calculus import SliceRegularPoly
from slicekit.qmat import QuaternionMatrix
from slicekit.quat import Quaternion, embed_slice
from slicekit.stemtensor import StemValue, basis_product


def _right_mult_matrix(v: Quaternion) -> np.ndarray:
    """4x4 real matrix of q -> q * v acting on q's components."""
    columns = []
    for e in (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)):
        prod = e * v
        columns.append([prod.w, prod.x, prod.y, prod.z])
    return np.array(columns).T


def left_combination_min_singular(vectors) -> float:
    """Smallest singular value of sum(q_i * v_i) = 0 as a real system.

    Positive (well away from zero) means the vectors are left linearly
    independent; numerically zero means a nontrivial combination exists.
    """
    k = len(vectors)
    n = len(vectors[0])
    system = np.zeros((4 * n, 4 * k))
    for i, vec in enumerate(vectors):
        for comp in range(n):
            system[4 * comp : 4 * comp + 4, 4 * i : 4 * i + 4] = _right_mult_matrix(vec[comp])
    return float(np.linalg.svd(system, compute_uv=False)[-1])


def numeric_slice_derivative(f, z0: complex, unit, order: int = 1, h: float = 1e-4) -> Quaternion:
    """Finite-difference slice derivative of f at z0 on the given slice.

    f takes a quaternion; differentiation runs along the real direction of
    the slice, which equals the slice derivative for slice regular f.
    """
    stencils = {
        1: ((-0.5, -1), (0.5, 1)),
        2: ((1.0, -1), (-2.0, 0), (1.0, 1)),
    }
    acc = Quaternion()
    for weight, step in stencils[order]:
        point = embed_slice(z0 + step * h, unit)
        acc = acc + f(point) * (weight / h**order)
    return acc


def per_term_star_vector(a: StemValue, b: StemValue) -> StemValue:
    """Star product summed term by term: nonzero entries of a, then of b, in index order."""
    out = [Quaternion() for _ in range(1 << a.N)]
    for ma, ca in enumerate(a.entries, start=1):
        if ca.norm2() == 0.0:
            continue
        for mb, cb in enumerate(b.entries, start=1):
            if cb.norm2() == 0.0:
                continue
            c, sign = basis_product(a.N, ma, mb)
            term = ca * cb
            out[c - 1] = out[c - 1] + (term if sign > 0 else -term)
    return StemValue(a.N, tuple(out))


def per_term_star_product(f: SliceRegularPoly, g: SliceRegularPoly) -> SliceRegularPoly:
    """Coefficient convolution summed term by term, zero a_i skipped, i increasing."""
    a, b = f.coefficients, g.coefficients
    out = [Quaternion() for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if ai.norm2() == 0.0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return SliceRegularPoly(tuple(out))


def per_entry_qmat_mul(a: QuaternionMatrix, b: QuaternionMatrix) -> QuaternionMatrix:
    """Row-column product, one Hamilton product and sum per term, k increasing."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Quaternion()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return QuaternionMatrix(a.rows, b.cols, out)


def per_entry_apply_column(a: QuaternionMatrix, column) -> tuple[Quaternion, ...]:
    """Matrix times column, entries multiplied in matrix-then-vector order, k increasing."""
    out = []
    for i in range(a.rows):
        acc = Quaternion()
        for k in range(a.cols):
            acc = acc + a[i, k] * column[k]
        out.append(acc)
    return tuple(out)


def sparse_quaternions(count: int, rng: np.random.Generator) -> list[Quaternion]:
    """Random entries, some exactly zero (with signed zeros) and some whose norm2 underflows to 0."""
    out = []
    for _ in range(count):
        roll = rng.uniform()
        if roll < 0.25:
            out.append(Quaternion(*(rng.choice([0.0, -0.0]) for _ in range(4))))
        elif roll < 0.3:
            out.append(Quaternion(*rng.uniform(-1e-170, 1e-170, 4)))
        else:
            out.append(Quaternion(*rng.uniform(-1, 1, 4)))
    return out


def bits(quaternions) -> list[tuple[str, ...]]:
    """Exact components, signed zeros told apart (0.0 == -0.0 would hide them)."""
    return [(q.w.hex(), q.x.hex(), q.y.hex(), q.z.hex()) for q in quaternions]

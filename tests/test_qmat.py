import math

import numpy as np
import pytest

from slicekit.errors import ShapeMismatch, Singular
from slicekit.qmat import (
    QuaternionMatrix,
    complex_adjoint,
    qmat_inverse,
    qmat_mul,
    qmat_rank,
)
from slicekit.quat import Quaternion
from slicekit.sliceunits import eta, eta_inverse, slice_matrix
from slicekit.tolerances import RANK_CUTOFF

from oracles import (
    bits,
    block_apply_column,
    block_complex_adjoint,
    left_combination_min_singular,
    left_linearly_independent,
    per_entry_apply_column,
    per_entry_qmat_mul,
    sparse_quaternions,
)

ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def _random_matrix(rng, n, cols=None):
    cols = n if cols is None else cols
    return QuaternionMatrix(n, cols, [Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(n * cols)])


def _apply_one(m, column) -> list[Quaternion]:
    """`apply_column` of one column of quaternions, passed as a stack of one and read back as `Quaternion`s."""
    return [Quaternion(*q) for q in m.apply_column(np.array([q.to_list() for q in column])[None])[0].tolist()]


def _frobenius(entries) -> float:
    return math.sqrt(sum(q.norm2() for q in entries))


# matrices whose Hamilton products are exact: entries 0 and the signed coordinate units
COORDINATE_UNITS = (ONE, I, J, K, -ONE, -I, -J, -K)


def _exact_matrices():
    for n in (1, 2, 3):
        for unit in (I, J, K):
            yield slice_matrix(eta(n, unit))
        yield QuaternionMatrix.identity(1 << n)
        yield QuaternionMatrix.diagonal([COORDINATE_UNITS[(3 * m + n) % 8] for m in range(1 << n)])


def test_mul_identity():
    a = QuaternionMatrix.from_rows([[I, J], [K, ONE]])
    assert (qmat_mul(QuaternionMatrix.identity(2), a) - a).max_norm() == 0.0


def test_mul_unitary_pair():
    # 1/2 * [[1,I],[1,-I]] [[1,1],[-I,I]] is the identity
    m = QuaternionMatrix.from_rows([[ONE, I], [ONE, -I]])
    w = QuaternionMatrix.from_rows([[ONE, ONE], [-I, I]]).scale(0.5)
    assert (qmat_mul(m, w) - QuaternionMatrix.identity(2)).max_norm() < 1e-15


def test_mul_order_preserved():
    lhs = qmat_mul(QuaternionMatrix.diagonal([I, J]), QuaternionMatrix.diagonal([J, I]))
    assert (lhs - QuaternionMatrix.diagonal([K, -K])).max_norm() == 0.0


def test_mul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        qmat_mul(QuaternionMatrix.identity(2), QuaternionMatrix.identity(3))


def test_adjoint_of_j():
    adj = complex_adjoint(QuaternionMatrix(1, 1, [J]))
    assert np.allclose(adj, np.array([[0, 1], [-1, 0]], dtype=complex))


def test_adjoint_identity():
    assert np.allclose(complex_adjoint(QuaternionMatrix.identity(2)), np.eye(4))


def test_adjoint_homomorphism():
    ai = complex_adjoint(QuaternionMatrix(1, 1, [I]))
    aj = complex_adjoint(QuaternionMatrix(1, 1, [J]))
    ak = complex_adjoint(QuaternionMatrix(1, 1, [K]))
    assert np.allclose(ai @ aj, ak)


def test_adjoint_homomorphism_random(rng):
    # the product comes from the per-entry Hamilton loop, not from the blocks
    for _ in range(25):
        a = _random_matrix(rng, 3)
        b = _random_matrix(rng, 3)
        assert np.allclose(
            complex_adjoint(per_entry_qmat_mul(a, b)), complex_adjoint(a) @ complex_adjoint(b), atol=1e-12
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_block_kernels_match_per_entry_reference(rng, n):
    for _ in range(5):
        inner, cols = (int(k) for k in rng.integers(1, 9, 2))
        a = _random_matrix(rng, n, inner)
        b = _random_matrix(rng, inner, cols)
        column = [Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(inner)]
        bound = 1e-14 * _frobenius(a.entries)
        assert (qmat_mul(a, b) - per_entry_qmat_mul(a, b)).max_norm() <= bound * _frobenius(b.entries)
        deviation = max((x - y).norm() for x, y in zip(_apply_one(a, column), per_entry_apply_column(a, column)))
        assert deviation <= bound * _frobenius(column)


def test_block_kernels_exact_on_eta_identity_and_unit_diagonals(rng):
    for m in _exact_matrices():
        for other in (m, m.conj_transpose(), QuaternionMatrix.identity(m.rows)):
            assert qmat_mul(m, other).entries == per_entry_qmat_mul(m, other).entries
        for column in (sparse_quaternions(m.cols, rng), [Quaternion(-0.0)] * m.cols):
            assert bits(_apply_one(m, column)) == bits(per_entry_apply_column(m, column))


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 5), (5, 2), (4, 4), (8, 3)])
def test_complex_adjoint_matches_block_assembly_bit_for_bit(rng, shape):
    count = shape[0] * shape[1]
    for entries in (sparse_quaternions(count, rng), [Quaternion(-0.0, 0.0, -0.0, -0.0)] * count):
        m = QuaternionMatrix(*shape, entries)
        adjoint = complex_adjoint(m)
        reference = block_complex_adjoint(m)
        assert adjoint.shape == reference.shape == (2 * shape[0], 2 * shape[1])
        assert adjoint.dtype == reference.dtype
        assert adjoint.tobytes() == reference.tobytes()


def test_entries_round_trip_bit_exact(rng):
    for rows, cols in ((1, 1), (2, 3), (4, 4), (8, 5)):
        entries = sparse_quaternions(rows * cols, rng)
        m = QuaternionMatrix(rows, cols, entries)
        assert bits(m.entries) == bits(entries)
        assert bits(m.row(rows - 1)) == bits(entries[(rows - 1) * cols :])
        assert bits([m[rows - 1, cols - 1]]) == bits(entries[-1:])
        conjugates = [entries[i * cols + j].conjugate() for j in range(cols) for i in range(rows)]
        assert bits(m.conj_transpose().entries) == bits(conjugates)


def test_max_norm_keeps_nan_anywhere():
    assert math.isnan(QuaternionMatrix.from_rows([[ONE, Quaternion(math.nan)]]).max_norm())
    assert math.isnan(QuaternionMatrix.from_rows([[Quaternion(0, 0, 0, math.nan), ONE]]).max_norm())
    assert QuaternionMatrix.from_rows([[ONE, -2 * K]]).max_norm() == 2.0


def test_rank_examples(unit_i):
    assert qmat_rank(QuaternionMatrix.zeros(2, 2)) == 0
    assert qmat_rank(QuaternionMatrix.from_rows([[ONE, I], [ONE, I]])) == 1
    assert qmat_rank(slice_matrix(eta(2, unit_i))) == 4


def test_rank_permutation_invariant(rng):
    a = _random_matrix(rng, 3)
    rows = [list(a.row(r)) for r in range(3)]
    shuffled = QuaternionMatrix.from_rows([rows[2], rows[0], rows[1]])
    cols = QuaternionMatrix.from_rows([[r[1], r[2], r[0]] for r in rows])
    assert qmat_rank(a) == qmat_rank(shuffled) == qmat_rank(cols)


def test_inverse_identity():
    inv = qmat_inverse(QuaternionMatrix.identity(4))
    assert (inv - QuaternionMatrix.identity(4)).max_norm() < 1e-14


def test_inverse_matches_published_eta2(unit_i):
    m = slice_matrix(eta(2, unit_i))
    inv = qmat_inverse(m)
    i = unit_i
    expected = QuaternionMatrix.from_rows(
        [
            [ONE, ONE, ONE, ONE],
            [-i, -i, i, i],
            [-ONE, ONE, ONE, -ONE],
            [i, -i, i, -i],
        ]
    ).scale(0.25)
    assert (inv - expected).max_norm() < 1e-12


def test_inverse_singular():
    with pytest.raises(Singular) as info:
        qmat_inverse(QuaternionMatrix.from_rows([[ONE, I], [ONE, I]]))
    assert info.value.rank == 1
    assert info.value.tolerance == RANK_CUTOFF
    assert 0.0 <= info.value.margin <= RANK_CUTOFF
    with pytest.raises(ShapeMismatch):
        qmat_inverse(QuaternionMatrix.zeros(2, 3))


def test_inverse_random_4x4(rng):
    for _ in range(100):
        a = _random_matrix(rng, 4)
        if qmat_rank(a) < 4:
            continue
        inv = qmat_inverse(a)
        assert (qmat_mul(a, inv) - QuaternionMatrix.identity(4)).max_norm() < 1e-9
        assert (qmat_mul(inv, a) - QuaternionMatrix.identity(4)).max_norm() < 1e-9


def test_invertible_iff_full_rank(rng):
    for _ in range(200):
        n = int(rng.integers(2, 4))
        a = _random_matrix(rng, n)
        full = qmat_rank(a) == n
        try:
            qmat_inverse(a)
            inverted = True
        except Singular:
            inverted = False
        assert full == inverted
    for _ in range(20):
        a = _random_matrix(rng, 3)
        rows = [list(a.row(r)) for r in range(3)]
        rows[2] = [q * 0.5 for q in rows[0]]  # forced dependency
        singular = QuaternionMatrix.from_rows(rows)
        assert qmat_rank(singular) < 3
        with pytest.raises(Singular):
            qmat_inverse(singular)


class TestLeftIndependence:
    def test_standard_basis(self):
        assert left_linearly_independent([(ONE, Quaternion()), (Quaternion(), ONE)])

    def test_identical_rows_dependent(self):
        vectors = [(ONE, I), (ONE, I)]
        assert left_combination_min_singular(vectors) < 1e-12
        assert not left_linearly_independent(vectors)

    def test_oracle_adjudicated_pair(self):
        # (1,i),(j,k) admits a RIGHT combination but no left one; the
        # brute-force oracle fixes the expected value at independent
        vectors = [(ONE, I), (J, K)]
        assert left_combination_min_singular(vectors) > 0.5
        assert left_linearly_independent(vectors)

    def test_dependent_pair(self):
        vectors = [(ONE, I), (J, -K)]
        assert left_combination_min_singular(vectors) < 1e-12
        assert not left_linearly_independent(vectors)

    def test_eta_rows_independent(self, unit_i):
        rows = [list(zeta_row) for zeta_row in _eta_zeta_rows(unit_i)]
        assert left_linearly_independent(rows)

    def test_oracle_agrees_with_adjoint_rank(self, rng):
        for _ in range(50):
            vectors = [
                tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(2)) for _ in range(2)
            ]
            by_rank = left_linearly_independent(vectors)
            by_oracle = left_combination_min_singular(vectors) > 1e-8
            assert by_rank == by_oracle

    def test_ragged_input(self):
        with pytest.raises(ShapeMismatch):
            left_linearly_independent([(ONE,), (ONE, I)])


def _eta_zeta_rows(unit):
    m = slice_matrix(eta(2, unit))
    return [m.row(r) for r in range(4)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_columns_match_single_columns_and_block_reference(rng, n):
    size = 1 << n
    matrices = [_random_matrix(rng, size), _random_matrix(rng, 3, size), eta_inverse(eta(n, I)), *_exact_matrices()]
    for m in matrices:
        columns = [sparse_quaternions(m.cols, rng) for _ in range(6)]
        out = m.apply_column(np.array([[q.to_list() for q in col] for col in columns]))
        assert out.shape == (6, m.rows, 4)
        for row, col in zip(out, columns):
            single = _apply_one(m, col)
            assert bits([Quaternion(*q) for q in row.tolist()]) == bits(single)
            assert bits(single) == bits(block_apply_column(m, col))
    with pytest.raises(ShapeMismatch):
        _random_matrix(rng, 2, 3).apply_column(np.zeros((5, 2, 4)))

import numpy as np
import pytest

from oracles import (
    bits,
    per_entry_slice_matrix,
    per_entry_zeta,
    per_level_has_full_slice_rank,
    per_trial_full_slice_rank_permutation,
)
from slicekit.errors import IndexOutOfRange, NotIndependent
from slicekit.qmat import QuaternionMatrix, qmat_mul, qmat_rank
from slicekit.quat import Quaternion, random_imaginary_unit
from slicekit.sliceunits import (
    SliceUnitMatrix,
    eta,
    full_slice_rank_permutation,
    has_full_slice_rank,
    is_left_slice_linearly_independent,
    random_slice_unit_matrix,
    slice_diag,
    slice_matrix,
    unit_product,
    zeta,
)
from slicekit.stemtensor import StemValue, apply_real_matrix, sigma_matrix

ONE = Quaternion(1)


def _unchecked_unit_matrix(n: int, rng) -> SliceUnitMatrix:
    """Random unit grid drawn as random_slice_unit_matrix draws it, without the independence test."""
    return SliceUnitMatrix(n, tuple(tuple(random_imaginary_unit(rng) for _ in range(n)) for _ in range(1 << n)))


class TestUnitProduct:
    def test_first_index_is_one(self, rng):
        units = [random_imaginary_unit(rng) for _ in range(3)]
        assert unit_product(units, 1) == ONE

    def test_published_two_unit_values(self, unit_i, unit_j):
        k1, k2 = unit_i, unit_j
        assert (unit_product((k1, k2), 3) - k2 * k1).norm() == 0.0
        assert (unit_product((k1, k2), 4) - (-k2)).norm() == 0.0

    def test_out_of_range(self, unit_i):
        with pytest.raises(IndexOutOfRange):
            unit_product((unit_i,), 3)


class TestZeta:
    def test_single_unit(self, unit_i):
        assert zeta((unit_i,)) == (ONE, unit_i)

    def test_mixed_sign_rows(self, unit_i):
        i = unit_i
        assert zeta((i, -i)) == (ONE, i, ONE, i)
        assert zeta((-i, -i)) == (ONE, -i, Quaternion(-1), i)

    def test_general_row(self, unit_i, unit_j):
        assert zeta((unit_i, unit_j)) == (ONE, unit_i, unit_j * unit_i, -unit_j)


class TestEta:
    def test_order_one(self, unit_i):
        assert eta(1, unit_i).rows == ((unit_i,), (-unit_i,))

    def test_order_two_rows(self, unit_i):
        i = unit_i
        expected = ((i, i), (i, -i), (-i, i), (-i, -i))
        assert eta(2, i).rows == expected
        assert eta(2, i).row(2) == (i, -i)

    def test_slice_matrix_order_one(self, unit_i):
        m = slice_matrix(eta(1, unit_i))
        expected = QuaternionMatrix.from_rows([[ONE, unit_i], [ONE, -unit_i]])
        assert (m - expected).max_norm() == 0.0

    def test_slice_matrix_order_two_matches_publication(self, unit_i):
        i = unit_i
        m = slice_matrix(eta(2, i))
        expected = QuaternionMatrix.from_rows(
            [
                [ONE, i, -ONE, -i],
                [ONE, i, ONE, i],
                [ONE, -i, ONE, -i],
                [ONE, -i, -ONE, i],
            ]
        )
        assert (m - expected).max_norm() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scaled_stack_is_unitary(self, n, rng):
        for _ in range(50):
            unit = random_imaginary_unit(rng)
            m = slice_matrix(eta(n, unit)).scale(2.0 ** (-n / 2))
            residual = qmat_mul(m, m.conj_transpose()) - QuaternionMatrix.identity(1 << n)
            assert residual.max_norm() < 1e-10


class TestIndependence:
    def test_eta_is_independent(self, unit_i):
        assert is_left_slice_linearly_independent(eta(2, unit_i))

    def test_duplicate_rows_dependent(self, unit_i):
        i = unit_i
        j = SliceUnitMatrix(1, ((i,), (i,)))
        assert not is_left_slice_linearly_independent(j)

    def test_random_against_rank(self, rng):
        for _ in range(20):
            j = _unchecked_unit_matrix(2, rng)
            assert is_left_slice_linearly_independent(j) == (qmat_rank(slice_matrix(j)) == 4)

    def test_invariant_under_row_permutation(self, rng, unit_i):
        j = eta(2, unit_i)
        for _ in range(10):
            perm = list(rng.permutation(4) + 1)
            assert is_left_slice_linearly_independent(j.permute_rows(perm))


class TestFullSliceRank:
    def test_eta_one(self, unit_i):
        assert has_full_slice_rank(eta(1, unit_i))

    def test_eta_two_fails_at_level_one(self, unit_i):
        # first two rows share the same level-1 truncation
        assert not has_full_slice_rank(eta(2, unit_i))

    def test_swapping_middle_rows_fixes_eta_two(self, unit_i):
        swapped = eta(2, unit_i).permute_rows([1, 3, 2, 4])
        assert has_full_slice_rank(swapped)


class TestPermutationAlgorithm:
    def test_identity_when_already_full(self, unit_i):
        assert full_slice_rank_permutation(eta(1, unit_i)) == (1, 2)

    def test_eta_two_selects_alternating_rows(self, unit_i):
        perm = full_slice_rank_permutation(eta(2, unit_i))
        assert perm == (1, 3, 2, 4)
        assert has_full_slice_rank(eta(2, unit_i).permute_rows(perm))

    @pytest.mark.parametrize("n,shuffles", [(2, 50), (3, 50)])
    def test_random_shuffles(self, n, shuffles, rng):
        base = eta(n, random_imaginary_unit(rng))
        for _ in range(shuffles):
            shuffled = base.permute_rows(list(rng.permutation(1 << n) + 1))
            perm = full_slice_rank_permutation(shuffled)
            assert has_full_slice_rank(shuffled.permute_rows(perm))

    def test_arbitrary_random_unit_grids(self, rng):
        # generic unit grids are independent almost surely but far from the
        # mirrored eta shape; the selection must still succeed
        for n in (2, 3):
            for _ in range(10):
                j = random_slice_unit_matrix(n, rng)
                perm = full_slice_rank_permutation(j)
                assert has_full_slice_rank(j.permute_rows(perm))

    def test_rejects_dependent_input(self, unit_i):
        j = SliceUnitMatrix(1, ((unit_i,), (unit_i,)))
        with pytest.raises(NotIndependent):
            full_slice_rank_permutation(j)


def _same_matrix(a: QuaternionMatrix, b: QuaternionMatrix) -> bool:
    return a.a1.tobytes() == b.a1.tobytes() and a.a2.tobytes() == b.a2.tobytes()


def _unit_grids(n: int, rng) -> list[SliceUnitMatrix]:
    """A random grid and two eta stacks, one over I and one over a random unit."""
    return [_unchecked_unit_matrix(n, rng), eta(n, Quaternion(0, 1, 0, 0)), eta(n, random_imaginary_unit(rng))]


class TestPrefixSharedProducts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zeta_is_unit_product_bit_for_bit(self, n, rng):
        for j in _unit_grids(n, rng):
            for row in j.rows:
                assert bits(zeta(row)) == bits(per_entry_zeta(row))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_slice_matrix_is_the_per_entry_matrix(self, n, rng):
        for j in _unit_grids(n, rng):
            assert _same_matrix(slice_matrix(j), per_entry_slice_matrix(j))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_truncations_are_leading_blocks(self, n, rng):
        for j in _unit_grids(n, rng):
            m = slice_matrix(j)
            for l in range(1, n + 1):
                k = 1 << l
                block = QuaternionMatrix._of(m.a1[:k, :k], m.a2[:k, :k])
                assert _same_matrix(slice_matrix(j.truncation(l)), block)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_decisions_on_shuffled_eta_stacks(self, n, rng):
        base = eta(n, random_imaginary_unit(rng))
        for _ in range(20):
            shuffled = base.permute_rows(list(rng.permutation(1 << n) + 1))
            assert has_full_slice_rank(shuffled) == per_level_has_full_slice_rank(shuffled)
            perm = full_slice_rank_permutation(shuffled)
            assert perm == per_trial_full_slice_rank_permutation(shuffled)

    def test_rank_decisions_on_random_grids_of_order_four(self, rng):
        for _ in range(4):
            j = random_slice_unit_matrix(4, rng)
            for grid in (j, j.permute_rows(list(rng.permutation(16) + 1))):
                assert has_full_slice_rank(grid) == per_level_has_full_slice_rank(grid)
                assert full_slice_rank_permutation(grid) == per_trial_full_slice_rank_permutation(grid)

    def test_slice_matrix_builds_no_quaternion(self, rng, monkeypatch):
        j = random_slice_unit_matrix(4, rng)
        built = []
        init = Quaternion.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Quaternion, "__init__", counted)
        slice_matrix(j)
        assert built == []
        zeta(j.row(1))  # the counter does see the scalar layer
        assert len(built) == 16


class TestStructureMatrix:
    def test_order_one(self):
        assert np.array_equal(sigma_matrix(1), [[0, -1], [1, 0]])

    def test_order_two(self):
        expected = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        assert np.array_equal(sigma_matrix(2), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_squares_to_minus_identity(self, n):
        s = sigma_matrix(n)
        assert np.array_equal(s @ s, -np.eye(1 << n, dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_permutation_shape(self, n):
        mat = sigma_matrix(n)
        assert set(np.unique(mat)) <= {-1, 0, 1}
        assert (np.abs(mat).sum(axis=0) == 1).all()
        assert (np.abs(mat).sum(axis=1) == 1).all()


class TestSliceDiag:
    def test_eta_one_diagonal(self, unit_i):
        d = slice_diag(eta(1, unit_i))
        assert d[0, 0] == unit_i and d[1, 1] == -unit_i
        assert d[0, 1] == Quaternion()

    def test_intertwines_order_one(self, unit_i):
        j = eta(1, unit_i)
        m = slice_matrix(j)
        lhs = qmat_mul(slice_diag(j), m)
        expected = QuaternionMatrix.from_rows(
            [[unit_i, Quaternion(-1)], [-unit_i, Quaternion(-1)]]
        )
        assert (lhs - expected).max_norm() < 1e-12
        rhs = _matrix_times_sigma(m, 1)
        assert (lhs - rhs).max_norm() < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_intertwines_higher_order(self, n, rng):
        j = eta(n, random_imaginary_unit(rng))
        m = slice_matrix(j)
        lhs = qmat_mul(slice_diag(j), m)
        assert (lhs - _matrix_times_sigma(m, n)).max_norm() < 1e-12

    def test_intertwines_arbitrary_unit_grid(self, rng):
        j = _unchecked_unit_matrix(2, rng)
        m = slice_matrix(j)
        lhs = qmat_mul(slice_diag(j), m)
        assert (lhs - _matrix_times_sigma(m, 2)).max_norm() < 1e-12


def _matrix_times_sigma(m: QuaternionMatrix, n: int) -> QuaternionMatrix:
    sigma = sigma_matrix(n)
    rows = [apply_real_matrix(sigma.T, StemValue(n, m.row(r))).entries for r in range(m.rows)]
    return QuaternionMatrix.from_rows(rows)


def test_json_round_trip(unit_i, unit_j):
    j = SliceUnitMatrix(1, ((unit_i,), (unit_j,)))
    restored = SliceUnitMatrix.from_json(j.to_json())
    assert restored.N == 1
    assert all(
        (a - b).norm() < 1e-15 for ra, rb in zip(restored.rows, j.rows) for a, b in zip(ra, rb)
    )


def test_truncation_shape(unit_i):
    j = eta(2, unit_i)
    t = j.truncation(1)
    assert t.N == 1
    assert t.rows == ((unit_i,), (unit_i,))

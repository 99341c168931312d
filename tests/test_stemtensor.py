import math

import numpy as np
import pytest

from slicekit.errors import ShapeMismatch
from slicekit.quat import Quaternion
from slicekit.stemtensor import (
    StemValue,
    _product_table,
    basis_product,
    kron_matrix,
    oracle_star,
    sigma_matrix,
    slot_imaginary,
    star_vector,
    tensor_from_kron,
)

from oracles import bits, per_term_kron_matrix, per_term_star_vector, sparse_quaternions


def _random_stem(n, rng):
    return StemValue(n, tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(1 << n)))


class TestBasisIsomorphism:
    def test_first_basis_is_one(self):
        # b(1) is the unit of the tensor algebra: a two-sided identity on every basis element
        for n in (1, 2, 3):
            one = StemValue.basis(n, 1)
            for m in range(1, (1 << n) + 1):
                e = StemValue.basis(n, m)
                assert star_vector(one, e) == e
                assert star_vector(e, one) == e


class TestBasisProducts:
    def test_slot_square_is_minus_one(self):
        c, sign = basis_product(1, 2, 2)
        assert (c, sign) == (1, -1)

    def test_identity_element(self, rng):
        b = _random_stem(2, rng)
        assert star_vector(StemValue.basis(2, 1), b) == b

    def test_oracle_adjudicated_product(self):
        # slot expansion: b(2) * b(3) = +b(4); confirmed by the Kronecker route
        direct = star_vector(StemValue.basis(2, 2), StemValue.basis(2, 3))
        assert direct == StemValue.basis(2, 4)
        left = kron_matrix(StemValue.basis(2, 2))
        right = kron_matrix(StemValue.basis(2, 3))
        recovered = tensor_from_kron(2, left @ right)
        assert (recovered - StemValue.basis(2, 4)).max_norm() < 1e-12

    def test_all_basis_products_match_oracle(self):
        for n in (1, 2):
            for a in range(1, (1 << n) + 1):
                for b in range(1, (1 << n) + 1):
                    ea, eb = StemValue.basis(n, a), StemValue.basis(n, b)
                    direct = star_vector(ea, eb)
                    via_kron = tensor_from_kron(n, kron_matrix(ea) @ kron_matrix(eb))
                    assert (direct - via_kron).max_norm() < 1e-12


class TestStarVector:
    def test_identity(self, rng):
        b = _random_stem(1, rng)
        e1 = StemValue.basis(1, 1)
        assert star_vector(e1, b) == b

    def test_order_one_closed_form(self, rng):
        for _ in range(50):
            a = _random_stem(1, rng)
            b = _random_stem(1, rng)
            a1, a2 = a.entries
            b1, b2 = b.entries
            expected = StemValue(1, (a1 * b1 - a2 * b2, a1 * b2 + a2 * b1))
            assert (star_vector(a, b) - expected).max_norm() < 1e-15

    def test_second_slot_squares_to_minus_one(self):
        e2 = StemValue.basis(1, 2)
        assert star_vector(e2, e2) == StemValue(1, (Quaternion(-1), Quaternion()))

    def test_zero_padding_law_exact(self, rng):
        for n in (1, 2, 3):
            for _ in range(25):
                a = _random_stem(n, rng)
                b = _random_stem(n, rng)
                lifted = star_vector(StemValue.padded(a), StemValue.padded(b))
                assert lifted == StemValue.padded(star_vector(a, b))

    def test_oracle_equivalence(self, rng):
        for n in (1, 2):
            for _ in range(100):
                a = _random_stem(n, rng)
                b = _random_stem(n, rng)
                assert (star_vector(a, b) - oracle_star(a, b)).max_norm() < 1e-12

    def test_max_norm_keeps_nan(self):
        assert math.isnan(StemValue(1, (Quaternion(1.0), Quaternion(math.nan))).max_norm())
        assert StemValue(1, (Quaternion(1.0), Quaternion(0, 2, 0, 0))).max_norm() == 2.0

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            star_vector(_random_stem(1, rng), _random_stem(2, rng))

    def test_associativity(self, rng):
        for n in (1, 2, 3):
            for _ in range(20):
                a, b, c = (_random_stem(n, rng) for _ in range(3))
                left = star_vector(star_vector(a, b), c)
                right = star_vector(a, star_vector(b, c))
                assert (left - right).max_norm() < 1e-12

    def test_distributivity(self, rng):
        for _ in range(50):
            a, b, c = (_random_stem(2, rng) for _ in range(3))
            left = star_vector(a + b, c)
            right = star_vector(a, c) + star_vector(b, c)
            assert (left - right).max_norm() < 1e-13


class TestSigma:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_defining_relation_exact(self, n):
        # multiplication by the slot-N imaginary permutes the basis exactly
        # as the structure matrix columns prescribe
        slot = slot_imaginary(n, n)
        sigma = sigma_matrix(n)
        for m in range(1, (1 << n) + 1):
            product = star_vector(slot, StemValue.basis(n, m))
            column = sigma[:, m - 1]
            expected = StemValue(n, tuple(Quaternion(float(column[idx])) for idx in range(1 << n)))
            assert product == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_is_minus_identity(self, n):
        sigma = sigma_matrix(n)
        assert np.array_equal(sigma @ sigma, -np.eye(1 << n, dtype=np.int64))


def test_kron_matrix_is_faithful(rng):
    for _ in range(20):
        a = _random_stem(2, rng)
        recovered = tensor_from_kron(2, kron_matrix(a))
        assert (recovered - a).max_norm() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kron_matrix_matches_per_term_sum_bit_for_bit(n, rng):
    size = 1 << n
    columns = [
        (Quaternion(),) * size,
        (Quaternion(-0.0, -0.0, -0.0, -0.0),) * size,
        tuple(Quaternion(0.0, -0.0, 1.5, -0.0) if m % 2 else Quaternion() for m in range(size)),
        tuple(_random_stem(n, rng).entries),
    ]
    columns += [tuple(sparse_quaternions(size, rng)) for _ in range(6)]
    for entries in columns:
        a = StemValue(n, entries)
        assert kron_matrix(a).tobytes() == per_term_kron_matrix(a).tobytes()


class TestTableKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_table_agrees_with_basis_product(self, n):
        size = 1 << n
        table = _product_table(n)
        assert len(table) == size
        for ma in range(1, size + 1):
            assert len(table[ma - 1]) == size
            for mb in range(1, size + 1):
                c, sign = basis_product(n, ma, mb)
                assert table[ma - 1][mb - 1] == (c - 1, sign < 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_per_term_loop_bitwise(self, n, rng):
        zero = StemValue(n, (Quaternion(),) * (1 << n))
        pairs = [(zero, _random_stem(n, rng)), (_random_stem(n, rng), zero)]
        for _ in range(4):
            a = StemValue(n, tuple(sparse_quaternions(1 << n, rng)))
            b = StemValue(n, tuple(sparse_quaternions(1 << n, rng)))
            pairs += [(a, b), (b, a)]
        for a, b in pairs:
            assert bits(star_vector(a, b).entries) == bits(per_term_star_vector(a, b).entries)

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from slicekit import stemtensor
from slicekit.errors import ShapeMismatch
from slicekit.monodromy import PolynomialModel
from slicekit.paths import beta_path
from slicekit.quat import Quaternion
from slicekit.representation import representation_vectors
from slicekit.sliceunits import eta, random_slice_unit_matrix
from slicekit.stems import stem_from_slice
from slicekit.stemtensor import (
    ARRAY_KERNEL_PAIRS,
    StemValue,
    _product_arrays,
    _product_table,
    apply_real_matrix,
    basis_product,
    kron_matrix,
    nan_max,
    oracle_star,
    sigma_matrix,
    slot_imaginary,
    star_kernel,
    star_vector,
    tensor_from_kron,
)

from oracles import (
    bits,
    components,
    per_term_kron_matrix,
    per_term_star_vector,
    quaternions_with_live,
    sparse_quaternions,
)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kron_matrix_is_multiplicative(n, rng):
    # the image of a product is the product of the images: the pattern matrices close under multiplication
    for _ in range(5):
        a, b = _random_stem(n, rng), _random_stem(n, rng)
        product = kron_matrix(a) @ kron_matrix(b)
        assert np.max(np.abs(product - kron_matrix(star_vector(a, b)))) < 1e-12


def test_tensor_from_kron_inverts_kron_matrix_exactly(rng):
    # the first column holds sign * (sign * a_m): no rounding, at every order the oracle is used for
    for n in range(1, 7):
        a = _random_stem(n, rng)
        assert tensor_from_kron(n, kron_matrix(a)) == a


def _overflowing(size, rng):
    """Finite entries whose products overflow to +-inf and whose sums meet inf - inf = NaN."""
    return [Quaternion(*(rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(150, 200, 4))) for _ in range(size)]


def _kernel_star_vector(a, b):
    """star_vector through `star_kernel` alone, at any size: live entries of a against live entries of b."""
    live_a, live_b = ([m for m, q in enumerate(x.entries) if q.norm2() != 0.0] for x in (a, b))
    outputs, sign = (part[np.ix_(live_a, live_b)] for part in _product_arrays(a.N))
    return StemValue(a.N, star_kernel(a.components[live_a], b.components[live_b], outputs, 1 << a.N, sign))


def _pair_counts(pairs, limit):
    """(p, q) with p * q == pairs and both at most `limit`, p as large as possible."""
    p = max(d for d in range(1, math.isqrt(pairs) + 1) if pairs % d == 0 and pairs // d <= limit)
    return p, pairs // p


class TestArrayKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_matches_per_term_loop_below_threshold(self, n, rng):
        size = 1 << n
        columns = [sparse_quaternions(size, rng) for _ in range(6)] + [_overflowing(size, rng) for _ in range(2)]
        columns.append([Quaternion(math.inf, 0.0, -0.0, 1.0)] + sparse_quaternions(size - 1, rng))
        # one live entry against entries with signed-zero components: single-term sums of -0.0
        columns.append([Quaternion(1.0)] + [Quaternion()] * (size - 1))
        columns.append([Quaternion(-0.0, 1.0, -0.0, 0.0)] * size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for left in columns:
                for right in columns:
                    a, b = StemValue(n, tuple(left)), StemValue(n, tuple(right))
                    assert bits(_kernel_star_vector(a, b).entries) == bits(per_term_star_vector(a, b).entries)

    def test_kernel_sums_rows_in_order_onto_plus_zero(self):
        # 0.5 + 1e16 - 1e16 is 0 in row order but 0.5 backwards; -0.0 terms sum to +0.0; output 2 gets no term
        left = components([Quaternion(0.5), Quaternion(1e16), Quaternion(-1e16), Quaternion(-0.0)])
        out = np.array([[0], [0], [0], [1]])
        sign = np.array([[1.0], [1.0], [1.0], [-1.0]])
        sums = star_kernel(left, components([Quaternion(1.0)]), out, 3, sign)
        assert [[c.hex() for c in q] for q in sums.tolist()] == [[(0.0).hex()] * 4] * 3
        # a lone term of -0.0 (w of 1 * (-0.0 + i)) sums to +0.0, as 0.0 + (-0.0) does in the loop
        sums = star_kernel(components([Quaternion(1.0)]), components([Quaternion(-0.0, 1.0)]), np.array([[0]]), 1)
        assert [c.hex() for c in sums.tolist()[0]] == [(0.0).hex(), (1.0).hex(), (0.0).hex(), (0.0).hex()]

    def test_kernel_work_is_one_term_per_live_pair(self, monkeypatch, rng):
        # a sparse b: 256 x live_b pairs at N = 8 form that many terms, not 256 x 256 slots
        shapes = []

        def spy(left, right, out, size, sign=None):
            shapes.append(out.shape)
            return star_kernel(left, right, out, size, sign)

        monkeypatch.setattr(stemtensor, "star_kernel", spy)
        n = 8
        a = _random_stem(n, rng)
        live_b = -(-ARRAY_KERNEL_PAIRS // (1 << n))
        b = StemValue(n, tuple(quaternions_with_live(1 << n, live_b, rng)))
        _product_arrays(n)  # the cached tables are built once per order, outside the measurement
        tracemalloc.start()
        try:
            got = star_vector(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(1 << n, live_b)]
        # the result's (256, 4) array takes 8 kB; one (4, 256, 256) float array is 2 MB
        assert peak < 2**20
        assert bits(got.entries) == bits(per_term_star_vector(a, b).entries)

    def test_public_function_switches_at_threshold(self, monkeypatch, rng):
        calls = []

        def spy(*args):
            calls.append(len(args[0]))
            return star_kernel(*args)

        monkeypatch.setattr(stemtensor, "star_kernel", spy)
        n = 5
        for pairs in (ARRAY_KERNEL_PAIRS - 1, ARRAY_KERNEL_PAIRS):
            counts = _pair_counts(pairs, 1 << n)
            for live_a, live_b in {counts, counts[::-1]}:
                calls.clear()
                a = StemValue(n, tuple(quaternions_with_live(1 << n, live_a, rng)))
                b = StemValue(n, tuple(quaternions_with_live(1 << n, live_b, rng)))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = star_vector(a, b)
                assert bits(got.entries) == bits(per_term_star_vector(a, b).entries)
                assert calls == ([live_a] if pairs >= ARRAY_KERNEL_PAIRS else [])

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_overflow_matches_per_term_loop(self, n, rng):
        size = 1 << n
        a, b = StemValue(n, tuple(_overflowing(size, rng))), StemValue(n, tuple(_overflowing(size, rng)))
        mixed = StemValue(n, tuple(_overflowing(size // 2, rng) + sparse_quaternions(size // 2, rng)))
        real = StemValue(n, (Quaternion(1e200),) + tuple(sparse_quaternions(size - 1, rng)))
        # inf times a zero or underflowing entry of b would be NaN: dead entries must be skipped
        infinite = StemValue(n, (Quaternion(math.inf, 0.0, -0.0, 1.0),) + tuple(_random_stem(n, rng).entries[1:]))
        sparse = StemValue(n, tuple(sparse_quaternions(size, rng)))
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in ((a, b), (b, a), (a, mixed), (mixed, a), (real, b), (infinite, sparse), (sparse, infinite)):
                got = star_vector(x, y)
                assert bits(got.entries) == bits(per_term_star_vector(x, y).entries)
                seen.update(c.hex() for q in got.entries for c in q.to_list())
        assert {"nan", "inf", "-inf"} <= seen


# -- the column array against per-entry Quaternion arithmetic ---------------------------------------------------------

#: signed zeros, NaN of either sign, infinities, subnormals, the smallest normal, an underflowing square, a huge value
_SPECIALS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-170, 1e300, -1.5,
)  # fmt: skip


def _u64(values) -> list[int]:
    """The bits of float values through a uint64 view: -0.0 and 0.0 differ, and so do NaN signs and payloads."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


def _special_columns(n, rng) -> list[StemValue]:
    """Sparse columns (signed zeros, underflowing norms), columns drawn from NaN, inf, subnormal and huge values."""
    size = 1 << n
    columns = [sparse_quaternions(size, rng) for _ in range(3)]
    columns += [[Quaternion(*rng.choice(_SPECIALS, 4)) for _ in range(size)] for _ in range(3)]
    columns.append([Quaternion(-0.0, -0.0, -0.0, -0.0)] * size)
    return [StemValue(n, tuple(column)) for column in columns]


class TestColumnArrayBits:
    """Every operation on the (2**N, 4) array gives the bits of its entries' `Quaternion` arithmetic."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sum_difference_scale_and_max_norm(self, n, rng):
        columns = _special_columns(n, rng)
        for a in columns:
            for factor in (0.5, -1.0, 0.0, -0.0, 3e300, 5e-324, math.inf):
                assert _u64(a.scale(factor).components) == _u64(components([q * factor for q in a.entries]))
            assert _u64([a.max_norm()]) == _u64([nan_max([q.norm() for q in a.entries])])
            for b in columns:
                assert _u64((a + b).components) == _u64(components([x + y for x, y in zip(a.entries, b.entries)]))
                assert _u64((a - b).components) == _u64(components([x - y for x, y in zip(a.entries, b.entries)]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_padded_basis_and_slot_imaginary(self, n, rng):
        size = 1 << n
        for a in _special_columns(n, rng):
            assert _u64(StemValue.padded(a).components) == _u64(components(a.entries + (Quaternion(),) * size))
        for m in range(1, size + 1):
            expected = [Quaternion(1.0 if k == m else 0.0) for k in range(1, size + 1)]
            assert _u64(StemValue.basis(n, m).components) == _u64(components(expected))
        for slot in range(1, n + 1):
            m = next(m for m in range(1, size + 1) if stemtensor._slot_pattern(n, m) == 1 << (slot - 1))
            expected = [Quaternion(float(stemtensor._basis_sign(n, m)) if k == m else 0.0) for k in range(1, size + 1)]
            assert _u64(slot_imaginary(n, slot).components) == _u64(components(expected))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_apply_real_matrix(self, n, rng):
        for a in _special_columns(n, rng):
            for mat in (sigma_matrix(n), sigma_matrix(n).T, rng.uniform(-1, 1, (1 << n, 1 << n))):
                got = _u64(apply_real_matrix(mat, a).components)
                with np.errstate(all="ignore"):  # the matrix product of the entries' components, as built per entry
                    assert got == _u64(mat.astype(float) @ components(a.entries))
                if mat.dtype == np.int64 and np.isfinite(a.components).all():
                    # one +-1 per row of sigma: one exact product plus zero terms, in any order of summation;
                    # which NaN a product returns is the BLAS's choice, so only finite columns are pinned here
                    rows = [[float(v) for v in row] for row in mat]
                    expected = [sum((c * q for c, q in zip(row, a.entries)), Quaternion()) for row in rows]
                    assert got == _u64(components(expected))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_both_star_vector_paths(self, n, rng):
        columns = _special_columns(n, rng)
        for a in columns:
            for b in columns:
                expected = _u64(components(per_term_star_vector(a, b).entries))
                assert _u64(star_vector(a, b).components) == expected
                assert _u64(_kernel_star_vector(a, b).components) == expected

    def test_constructor_boundary(self):
        column = np.arange(16.0).reshape(4, 4)
        value = StemValue(2, column)
        column[0, 0] = 99.0  # the value holds a copy
        assert value.components[0, 0] == 0.0 and not value.components.flags.writeable
        assert value == StemValue(2, tuple(Quaternion(*q) for q in np.arange(16.0).reshape(4, 4).tolist()))
        assert value == StemValue(2, [[0, 1, 2, 3], [4, 5, 6, 7], (8, 9, 10, 11), Quaternion(12, 13, 14, 15)])
        assert [q.to_list() for q in value.entries] == np.arange(16.0).reshape(4, 4).tolist()
        assert StemValue(1, (Quaternion(-0.0), 0.0)) == StemValue(1, (0.0, 0.0))
        assert StemValue(1, (Quaternion(math.nan), 0.0)) != StemValue(1, (Quaternion(math.nan), 0.0))
        assert StemValue(1, (1.0, 0.0)) != StemValue(2, (1.0, 0.0, 0.0, 0.0))
        for bad in (np.zeros((4, 3)), np.zeros((2, 4)), np.zeros((1, 4, 4)), (Quaternion(),) * 3):
            with pytest.raises(ShapeMismatch):
                StemValue(2, bad)


def test_column_producers_build_no_quaternion(monkeypatch, rng):
    n = 3
    a, b = _random_stem(n, rng), _random_stem(n, rng)
    # a polynomial has no initial datum: the square root's Quaternion(1.0) is built once per continuation
    model, path = PolynomialModel((Quaternion(0, 0, 1, 0), Quaternion(1.0), Quaternion(0, 1, 0, 0))), beta_path()
    js = [eta(2, Quaternion(0, 1, 0, 0)), random_slice_unit_matrix(2, rng)]
    stem = stem_from_slice(model, path, 0.5)
    built = []
    init = Quaternion.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quaternion, "__init__", counted)
    star_vector(a, b)  # the loop
    star_vector(StemValue(6, np.ones((64, 4))), StemValue(6, np.ones((64, 4))))  # the kernel
    apply_real_matrix(sigma_matrix(n), a)
    stem.at(stem.center + 0.1j)
    representation_vectors(model, path, js)
    assert built == []

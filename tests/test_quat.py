import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit.errors import ZeroDivisor
from slicekit.quat import (
    ImaginaryUnit,
    Quaternion,
    embed_slice,
    hamilton_components,
    hamilton_product,
    quat_inverse,
    random_imaginary_unit,
    row_norm2,
)

from oracles import SPECIAL_FLOATS, bits, sparse_quaternions, u64_any_nan, unit_exp

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_hamilton_table():
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * I == J
    assert I * I == Quaternion(-1)


def test_identity_and_modulus_product():
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert q * Quaternion(1) == q
    assert (Quaternion(1, 1, 0, 0) * Quaternion(1, -1, 0, 0)) == Quaternion(2)


@given(quats, quats)
@settings(max_examples=200)
def test_norm_multiplicative(a, b):
    prod = hamilton_product(a, b)
    assert prod.norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12, abs=1e-12)


@given(quats, quats, quats)
def test_associative(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    assert (left - right).norm() <= 1e-9 * max(1.0, a.norm() * b.norm() * c.norm())


def test_inverse_examples():
    assert quat_inverse(I) == -I
    assert quat_inverse(Quaternion(2)) == Quaternion(0.5)
    # unit imaginary: inverse is negation, brute-checked via q*q = -1
    q = (4.0 * J + 3.0 * K) * (1.0 / 5.0)
    assert (q * q - Quaternion(-1)).norm() < 1e-15
    assert (quat_inverse(q) - (-q)).norm() < 1e-15


@given(quats)
def test_inverse_round_trip(q):
    if q.norm() < 1e-6:
        return
    assert (q * quat_inverse(q) - Quaternion(1)).norm() < 1e-12
    assert (quat_inverse(q) * q - Quaternion(1)).norm() < 1e-12


def test_inverse_zero_divisor():
    with pytest.raises(ZeroDivisor):
        quat_inverse(Quaternion())


def test_embed_slice_examples():
    assert embed_slice(1 + 0j, J) == Quaternion(1)
    assert embed_slice(1j, J) == J
    assert embed_slice(2 - 3j, K) == Quaternion(2, 0, 0, -3)
    z = 0.7 - 1.1j
    assert (embed_slice(z.conjugate(), -J) - embed_slice(z, J)).norm() < 1e-15


def test_embed_slice_is_field_map(rng):
    unit = random_imaginary_unit(rng)
    for _ in range(50):
        z1 = complex(*rng.uniform(-3, 3, 2))
        z2 = complex(*rng.uniform(-3, 3, 2))
        lhs = embed_slice(z1 * z2, unit)
        rhs = embed_slice(z1, unit) * embed_slice(z2, unit)
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, abs(z1) * abs(z2))


def test_random_units_square_to_minus_one(rng):
    for _ in range(1000):
        u = random_imaginary_unit(rng)
        assert (u * u - Quaternion(-1)).norm() < 1e-10


def test_unit_constructor_renormalizes():
    u = ImaginaryUnit(1.0 + 5e-10, 0.0, 0.0)
    assert u.norm() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ImaginaryUnit(1.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ImaginaryUnit.from_quaternion(Quaternion(0.5, 1, 0, 0))


def test_unit_rejects_nan():
    with pytest.raises(ValueError):
        ImaginaryUnit(math.nan, 0.0, 0.0)


def test_numpy_integer_scalars():
    q = Quaternion(1, 2, 3, 4)
    two = np.int64(2)
    assert q * two == Quaternion(2, 4, 6, 8)
    assert two * q == Quaternion(2, 4, 6, 8)
    assert q / two == Quaternion(0.5, 1, 1.5, 2)
    assert q + two == Quaternion(3, 2, 3, 4)


def test_unit_exp():
    assert (unit_exp(math.pi / 2, I) - I).norm() < 1e-15
    assert (unit_exp(math.pi, J) - Quaternion(-1)).norm() < 1e-12


def test_serialization_round_trip():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert Quaternion.from_list(q.to_list()) == q
    u = ImaginaryUnit(0.0, 0.6, 0.8)
    assert ImaginaryUnit.from_list(u.to_list()) == u
    with pytest.raises(ValueError):
        Quaternion.from_list([1, 2, 3])


def test_hamilton_components_match_hamilton_product_bit_for_bit(rng):
    left, right = sparse_quaternions(40, rng), sparse_quaternions(40, rng)
    columns = [np.array([[getattr(q, c) for q in side]]) for side in (left, right) for c in "wxyz"]
    w, x, y, z = hamilton_components(tuple(columns[:4]), tuple(columns[4:]))
    batched = [Quaternion(*c) for c in zip(w[0].tolist(), x[0].tolist(), y[0].tolist(), z[0].tolist())]
    assert bits(batched) == bits([a * b for a, b in zip(left, right)])


def test_row_norm2_is_norm2_of_the_row(rng):
    rows = [q.to_list() for q in sparse_quaternions(40, rng)]
    rows += [list(rng.choice(SPECIAL_FLOATS, 4)) for _ in range(200)] + [[1e300, 1e300, 0.0, 0.0], [1e-170, 0.0, 0.0, 0.0]]
    rows = [[float(c) for c in row] for row in rows]
    assert u64_any_nan([row_norm2(row) for row in rows]) == u64_any_nan([Quaternion(*row).norm2() for row in rows])
    assert row_norm2([1e300, 1e300, 0.0, 0.0]) == math.inf and row_norm2([1e-170, 0.0, 0.0, 0.0]) == 0.0

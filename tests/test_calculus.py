import math
import tracemalloc
import warnings

import numpy as np
import pytest

from slicekit import calculus, checks, stems
from slicekit.calculus import (
    ONE_POLY,
    AxSymDomain,
    SliceRegularPoly,
    leibniz,
    regular_conjugate,
    regular_reciprocal,
    slice_derivative,
    star_eval,
    star_product,
    stem_series_check,
    symmetrization,
    taylor_eval,
)
from slicekit.checks import _coeff_distance, _random_poly
from slicekit.errors import NonFiniteResult, OutOfBall, ShapeMismatch, SymmetrizationZero, ZeroDivisor
from slicekit.monodromy import (
    LogModel,
    SliceFunctionModel,
    SqrtModel,
    evaluate_lifted,
    final_states,
    germ_key,
    model_by_name,
)
from slicekit.paths import Line, beta_path, half_turns, make_npart_path
from slicekit.quat import I as UNIT_I
from slicekit.quat import Quaternion, random_imaginary_unit
from slicekit.stemtensor import ARRAY_KERNEL_PAIRS, nan_max, star_kernel

from oracles import (
    SPECIAL_FLOATS,
    SheetState,
    bits,
    components,
    conjugate_via_components,
    numeric_slice_derivative,
    per_coefficient_derivative,
    per_coefficient_sum,
    per_lift_final_state,
    per_point_zero_probe,
    per_term_convolution,
    per_term_star_product,
    poly_eval,
    pointwise_star_check,
    quaternions_with_live,
    scalar_derivative_value,
    scalar_germ_key,
    sparse_quaternions,
    trimmed,
    u64,
    u64_any_nan,
)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def test_random_poly_draws_like_one_quaternion_per_coefficient(rng):
    # the checks draw all coefficients at once; the stream must be that of one Quaternion per coefficient
    for degree in range(8):
        state = rng.bit_generator.state
        f = _random_poly(rng, degree)
        after = rng.bit_generator.state
        rng.bit_generator.state = state
        expected = [Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(degree + 1)]
        assert bits(f.coefficients) == bits(expected)
        assert rng.bit_generator.state == after


def test_nan_coefficient_fails_the_check(rng, monkeypatch):
    # max(worst, nan) keeps worst, so a NaN residual would pass as 0.0 unless every fold propagates it
    f = _random_poly(rng, 3)
    broken = SliceRegularPoly((Quaternion(math.nan),) + f.coefficients[1:])
    assert math.isnan(_coeff_distance(broken, f)) and math.isnan(_coeff_distance(f, broken))
    monkeypatch.setattr(calculus, "leibniz", lambda *args: broken)
    result = checks.check_leibniz(rng)
    assert math.isnan(result.deviation) and not result.passed


class TestStarProduct:
    def test_matches_per_term_loop_bitwise(self, rng):
        # degrees 0..64 with zero coefficients (signed zeros, underflowing norms) inside
        for degree in range(65):
            f = SliceRegularPoly(tuple(sparse_quaternions(degree + 1, rng)))
            g = SliceRegularPoly(tuple(sparse_quaternions(int(rng.integers(1, 66)), rng)))
            for x, y in ((f, g), (g, f), (f, regular_conjugate(f))):
                assert bits(star_product(x, y).coefficients) == bits(per_term_star_product(x, y).coefficients)

    def test_kernel_matches_per_term_loop_below_threshold(self, rng):
        # the convolution through `star_kernel` alone: live a_k against every b_j, a_k * b_j into c_(k + j)
        huge = [Quaternion(*(rng.choice([-1.0, 1.0], 4) * 1e200)) for _ in range(3)]
        polys = [SliceRegularPoly(tuple(sparse_quaternions(length, rng))) for length in (1, 1, 2, 5, 9, 12)]
        polys += [SliceRegularPoly(tuple(huge)), SliceRegularPoly((Quaternion(1e200), Quaternion(-0.0, 1.0)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in polys:
                for g in polys:
                    a, b = f.coefficients, g.coefficients
                    live = [k for k, q in enumerate(a) if q.norm2() != 0.0]
                    out = np.add.outer(np.array(live, dtype=np.intp), np.arange(len(b)))
                    sums = star_kernel(components([a[k] for k in live]), components(b), out, len(a) + len(b) - 1)
                    got = SliceRegularPoly(tuple(Quaternion(*c) for c in sums.tolist()))
                    assert bits(got.coefficients) == bits(per_term_star_product(f, g).coefficients)

    def test_kernel_work_is_one_term_per_pair(self, monkeypatch, rng):
        # a long f times a constant: 4000 pairs, not 4000 x 4000 slots
        shapes = []

        def spy(left, right, out, size, sign=None):
            shapes.append(out.shape)
            return star_kernel(left, right, out, size, sign)

        monkeypatch.setattr(calculus, "star_kernel", spy)
        f = SliceRegularPoly(tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(4000)))
        g = SliceRegularPoly.constant(Quaternion(0.5, -1.0, 0.0, 2.0))
        tracemalloc.start()
        try:
            got = star_product(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(4000, 1)]
        # the Quaternions of f, g and the result take about 1 MB; a (4000, 4000) float array alone is 128 MB
        assert peak < 8 * 2**20
        assert bits(got.coefficients) == bits(per_term_star_product(f, g).coefficients)
        shapes.clear()
        assert bits(star_product(g, f).coefficients) == bits(per_term_star_product(g, f).coefficients)
        assert shapes == [(1, 4000)]

    def test_switches_at_threshold(self, monkeypatch, rng):
        calls = []

        def spy(*args):
            calls.append(len(args[0]))
            return star_kernel(*args)

        monkeypatch.setattr(calculus, "star_kernel", spy)
        for pairs in (ARRAY_KERNEL_PAIRS - 1, ARRAY_KERNEL_PAIRS):
            divisor = max(d for d in range(1, math.isqrt(pairs) + 1) if pairs % d == 0)
            # (live a_k, len(b)): balanced, unbalanced both ways
            for live, length in ((divisor, pairs // divisor), (pairs // divisor, divisor), (1, pairs), (pairs, 1)):
                calls.clear()
                f = SliceRegularPoly(tuple(quaternions_with_live(live + 3, live, rng)))
                g = SliceRegularPoly(tuple(quaternions_with_live(length, max(1, length // 2), rng)))
                assert len(g.coefficients) == length
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = star_product(f, g)
                assert bits(got.coefficients) == bits(per_term_star_product(f, g).coefficients)
                assert calls == ([live] if pairs >= ARRAY_KERNEL_PAIRS else [])

    def test_overflow_matches_per_term_loop(self, rng):
        # zero b_(n-k) are not skipped: inf * 0 is NaN in both forms
        huge = SliceRegularPoly(tuple(Quaternion(*(rng.choice([-1.0, 1.0], 4) * 1e200)) for _ in range(20)))
        real = SliceRegularPoly((Quaternion(1e200),) + tuple(sparse_quaternions(19, rng)))
        sparse = SliceRegularPoly(tuple(sparse_quaternions(30, rng)) + (Quaternion(1.0),))
        inf_entry = SliceRegularPoly((Quaternion(math.inf, 0.0, -0.0, 1.0),) + tuple(sparse_quaternions(29, rng)))
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, g in ((huge, huge), (huge, sparse), (sparse, huge), (real, huge), (inf_entry, sparse)):
                got = star_product(f, g).coefficients
                assert bits(got) == bits(per_term_star_product(f, g).coefficients)
                seen.update(c.hex() for q in got for c in q.to_list())
        assert {"nan", "inf", "-inf"} <= seen

    def test_left_identity_exact(self, rng):
        f = _random_poly(rng, 4)
        assert star_product(ONE_POLY, f).coefficients == f.coefficients

    def test_monic_linear_factors(self):
        a, b = Quaternion(0.5, 1, 0, 0), Quaternion(-1, 0, 2, 0)
        f = SliceRegularPoly((-a, Quaternion(1)))
        g = SliceRegularPoly((-b, Quaternion(1)))
        product = star_product(f, g)
        assert (product.coefficients[0] - a * b).norm() < 1e-15
        assert (product.coefficients[1] - (-(a + b))).norm() < 1e-15
        assert product.coefficients[2] == Quaternion(1)

    def test_coefficient_order_preserved(self):
        f = SliceRegularPoly((Quaternion(), I))
        g = SliceRegularPoly((Quaternion(), J))
        assert star_product(f, g).coefficients == (Quaternion(), Quaternion(), K)

    def test_real_axis_is_pointwise(self, rng):
        f = _random_poly(rng, 3)
        g = _random_poly(rng, 4)
        product = star_product(f, g)
        for x in rng.uniform(-2, 2, 10):
            q = Quaternion(float(x))
            assert (product(q) - f(q) * g(q)).norm() < 1e-10


class TestRingLaws:
    def _int_poly(self, rng, degree):
        coeffs = tuple(
            Quaternion(*(float(c) for c in rng.integers(-3, 4, 4))) for _ in range(degree + 1)
        )
        return SliceRegularPoly(coeffs)

    def test_associative_exact_on_integer_coefficients(self, rng):
        # small-integer coefficients keep every product representable exactly
        for _ in range(50):
            f = self._int_poly(rng, int(rng.integers(0, 4)))
            g = self._int_poly(rng, int(rng.integers(0, 4)))
            h = self._int_poly(rng, int(rng.integers(0, 4)))
            left = star_product(star_product(f, g), h)
            right = star_product(f, star_product(g, h))
            assert left.coefficients == right.coefficients

    def test_distributive_exact_on_integer_coefficients(self, rng):
        for _ in range(50):
            f = self._int_poly(rng, 3)
            g = self._int_poly(rng, 3)
            h = self._int_poly(rng, 3)
            left = star_product(f + g, h)
            right = star_product(f, h) + star_product(g, h)
            assert left.coefficients == right.coefficients

    def test_associative_float_coefficients(self, rng):
        for _ in range(50):
            f = _random_poly(rng, 3)
            g = _random_poly(rng, 3)
            h = _random_poly(rng, 3)
            left = star_product(star_product(f, g), h)
            right = star_product(f, star_product(g, h))
            assert _coeff_distance(left, right) < 1e-12

    def test_two_sided_identity_exact(self, rng):
        f = _random_poly(rng, 5)
        assert star_product(ONE_POLY, f).coefficients == f.coefficients
        assert star_product(f, ONE_POLY).coefficients == f.coefficients


class TestPointwiseStar:
    def test_real_points_exact(self, rng):
        f = _random_poly(rng, 3)
        g = _random_poly(rng, 3)
        assert pointwise_star_check(f, g, Quaternion(0.7)) < 1e-12

    def test_closed_form_example(self):
        f = SliceRegularPoly((Quaternion(), Quaternion(1)))  # q
        g = SliceRegularPoly((-I, Quaternion(1)))  # q - i
        assert pointwise_star_check(f, g, J) < 1e-10

    def test_random_pairs(self, rng):
        worst = 0.0
        for _ in range(200):
            f = _random_poly(rng, int(rng.integers(1, 5)))
            g = _random_poly(rng, int(rng.integers(1, 5)))
            q = Quaternion(*rng.uniform(-1, 1, 4))
            if f(q).norm() < 1e-3:
                continue
            worst = max(worst, pointwise_star_check(f, g, q))
        assert worst < 1e-8

    def test_zero_value_rejected(self):
        f = SliceRegularPoly((-I, Quaternion(1)))
        g = SliceRegularPoly((Quaternion(1),))
        with pytest.raises(ZeroDivisor):
            pointwise_star_check(f, g, I)


class TestConjugateAndSymmetrization:
    def test_real_coefficients_fixed(self):
        f = SliceRegularPoly((Quaternion(2), Quaternion(-1), Quaternion(0.5)))
        assert regular_conjugate(f).coefficients == f.coefficients

    def test_linear_example(self):
        f = SliceRegularPoly((-I, Quaternion(1)))
        assert regular_conjugate(f).coefficients == (I, Quaternion(1))

    def test_component_route_agrees(self, rng):
        for _ in range(100):
            f = _random_poly(rng, int(rng.integers(0, 6)))
            assert _coeff_distance(conjugate_via_components(f), regular_conjugate(f)) < 1e-10

    def test_symmetrization_of_linear(self):
        a = Quaternion(0.25, 1, -2, 0.5)
        f = SliceRegularPoly((-a, Quaternion(1)))
        s = symmetrization(f)
        expected = SliceRegularPoly(
            (Quaternion(a.norm2()), -(a + a.conjugate()), Quaternion(1))
        )
        assert _coeff_distance(s, expected) < 1e-12

    def test_symmetrization_real_coefficients(self, rng):
        for _ in range(50):
            f = _random_poly(rng, 4)
            for c in symmetrization(f).coefficients:
                assert abs(c.x) < 1e-12 and abs(c.y) < 1e-12 and abs(c.z) < 1e-12

    def test_conjugate_antihomomorphism(self, rng):
        for _ in range(100):
            f = _random_poly(rng, 3)
            g = _random_poly(rng, 3)
            lhs = regular_conjugate(star_product(f, g))
            rhs = star_product(regular_conjugate(g), regular_conjugate(f))
            assert _coeff_distance(lhs, rhs) < 1e-10

    def test_symmetrization_switch_rule(self, rng):
        for _ in range(100):
            f = _random_poly(rng, 3)
            g = _random_poly(rng, 3)
            assert _coeff_distance(
                symmetrization(star_product(f, g)), symmetrization(star_product(g, f))
            ) < 1e-10

    def test_symmetrization_is_pointwise_multiplicative(self, rng):
        for _ in range(100):
            f = _random_poly(rng, 3)
            g = _random_poly(rng, 3)
            q = Quaternion(*rng.uniform(-1, 1, 4))
            lhs = symmetrization(star_product(f, g))(q)
            rhs = symmetrization(f)(q) * symmetrization(g)(q)
            assert (lhs - rhs).norm() < 1e-8


class TestReciprocal:
    def test_constant(self):
        f = SliceRegularPoly((Quaternion(0, 2, 0, 0),))
        reciprocal = regular_reciprocal(f, AxSymDomain.whole())
        value = reciprocal(Quaternion(1, 1, 1, 1))
        assert (value - Quaternion(0, -0.5, 0, 0)).norm() < 1e-14

    def test_inverse_identity_on_ball(self, rng):
        f = SliceRegularPoly((-I, Quaternion(1)))  # q - i
        domain = AxSymDomain.ball(3.0, 1.0)
        reciprocal = regular_reciprocal(f, domain)
        for q in domain.sample(rng, 100):
            assert (star_eval(reciprocal, f, q) - Quaternion(1)).norm() < 1e-8
            assert (star_eval(f, reciprocal, q) - Quaternion(1)).norm() < 1e-8

    def test_zero_sphere_detected(self):
        f = SliceRegularPoly((-I, Quaternion(1)))
        with pytest.raises(SymmetrizationZero) as excinfo:
            regular_reciprocal(f, AxSymDomain.ball(0.0, 2.0))
        witness = excinfo.value.witness
        assert witness is not None
        assert abs(symmetrization(f)(witness).norm()) < 1e-9

    def test_zero_polynomial_rejected_everywhere(self):
        with pytest.raises(SymmetrizationZero):
            regular_reciprocal(SliceRegularPoly((Quaternion(),)), AxSymDomain.whole())

    @pytest.mark.parametrize(
        "coefficients, index",
        [((1.0, 1e200), 2), ((1e200, 1.0, Quaternion(0, 1e200, 0, 0)), 0)],
        ids=["top-coefficient", "constant-coefficient"],
    )
    def test_overflowing_symmetrization_is_non_finite(self, coefficients, index):
        # finite coefficients whose f * f^c overflows: no reciprocal holding inf, and no numpy error from np.roots
        with pytest.raises(NonFiniteResult) as excinfo:
            regular_reciprocal(SliceRegularPoly(coefficients), AxSymDomain.ball(3.0, 1.0))
        assert excinfo.value.index == index


class TestZeroProbe:
    # q - 3 - i: f^s = (q - 3)**2 + 1 vanishes on the sphere 3 + S, just outside ball(3, 1), so |f^s| falls
    # from 1 at the centre towards 0 at the rim, and a raised cut-off moves the first point below it
    NEAR_RIM = SliceRegularPoly((Quaternion(-3, -1, 0, 0), Quaternion(1)))
    DOMAINS = [
        AxSymDomain.ball(3.0, 1.0),
        AxSymDomain.ball(-0.5, 2.5),
        AxSymDomain.ball(-0.0, 1.5),  # the probe points' real part is -0.0 + 0.0 = 0.0
        AxSymDomain.sigma_ball(Quaternion(3, 0.3, 0, 0), 1.0),  # holds |imaginary part| < 0.7: outer shells lie out
        AxSymDomain.sigma_ball(Quaternion(0.2, 0.1, 0.4, 0), 1.9),
    ]

    @pytest.mark.parametrize("domain", DOMAINS, ids=repr)
    @pytest.mark.parametrize("cutoff", [None, 0.3, 0.5, 0.8, 2.0])
    def test_matches_per_point_probe(self, domain, cutoff, rng, monkeypatch):
        if cutoff is not None:
            monkeypatch.setattr(calculus, "SYMMETRIZATION_ZERO_TOL", cutoff)
        polys = [self.NEAR_RIM] + [_random_poly(rng, int(rng.integers(0, 4))) for _ in range(3)]
        for f in polys:
            sym = symmetrization(f)
            got, expected = calculus._probe_zero(sym, domain), per_point_zero_probe(sym, domain)
            assert (got is None) == (expected is None)
            if got is not None:
                assert bits([got]) == bits([expected])

    def test_raised_cutoff_raises_with_the_per_point_witness(self, monkeypatch):
        monkeypatch.setattr(calculus, "SYMMETRIZATION_ZERO_TOL", 0.5)
        sym = symmetrization(self.NEAR_RIM)
        for domain in (AxSymDomain.ball(3.0, 1.0), AxSymDomain.sigma_ball(Quaternion(3, 0.1, 0, 0), 1.0)):
            expected = per_point_zero_probe(sym, domain)
            assert expected is not None
            with pytest.raises(SymmetrizationZero) as excinfo:
                regular_reciprocal(self.NEAR_RIM, domain)
            assert bits([excinfo.value.witness]) == bits([expected])
            assert repr(expected) in str(excinfo.value)

    def test_points_outside_a_sigma_ball_are_skipped(self, monkeypatch):
        # below 0.5 only where |imaginary part| > 0.71, which this sigma-ball (|imaginary part| < 0.7) never reaches
        monkeypatch.setattr(calculus, "SYMMETRIZATION_ZERO_TOL", 0.5)
        domain = AxSymDomain.sigma_ball(Quaternion(3, 0.3, 0, 0), 1.0)
        assert per_point_zero_probe(symmetrization(self.NEAR_RIM), domain) is None
        regular_reciprocal(self.NEAR_RIM, domain)

    def test_reciprocal_probe_builds_few_quaternions(self, monkeypatch):
        built = []
        init = Quaternion.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Quaternion, "__init__", counted)
        regular_reciprocal(SliceRegularPoly((-I, Quaternion(1))), AxSymDomain.ball(3.0, 1.0))
        assert len(built) < 100


class TestDerivatives:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_monomial_rule(self, n):
        monomial = SliceRegularPoly((Quaternion(),) * n + (Quaternion(1),))
        derived = slice_derivative(monomial)
        expected = (Quaternion(),) * (n - 1) + (Quaternion(n),)
        assert derived.coefficients == expected

    def test_zeroth_derivative(self, rng):
        f = _random_poly(rng, 4)
        assert slice_derivative(f, 0).coefficients == f.coefficients

    def test_against_finite_differences(self, rng, unit_i):
        f = _random_poly(rng, 5)
        for _ in range(20):
            z0 = complex(*rng.uniform(-1, 1, 2))
            for order in (1, 2):
                numeric = numeric_slice_derivative(f, z0, unit_i, order=order)
                exact = slice_derivative(f, order)(
                    Quaternion(z0.real) + z0.imag * unit_i
                )
                assert (numeric - exact).norm() < 1e-5

    def test_leibniz_base_case(self, rng):
        f = _random_poly(rng, 3)
        g = _random_poly(rng, 3)
        assert _coeff_distance(leibniz(f, g, 0), star_product(f, g)) == 0.0

    def test_leibniz_second_derivative_of_square(self):
        q_poly = SliceRegularPoly((Quaternion(), Quaternion(1)))
        second = leibniz(q_poly, q_poly, 2)
        assert second.coefficients == (Quaternion(2),)

    def test_leibniz_matches_direct(self, rng):
        for _ in range(30):
            f = _random_poly(rng, int(rng.integers(0, 6)))
            g = _random_poly(rng, int(rng.integers(0, 6)))
            for n in range(5):
                direct = slice_derivative(star_product(f, g), n)
                assert _coeff_distance(direct, leibniz(f, g, n)) < 1e-10


class TestTaylor:
    def test_polynomial_reconstruction(self, rng):
        for _ in range(25):
            f = _random_poly(rng, int(rng.integers(0, 7)))
            q0 = Quaternion(*rng.uniform(-1, 1, 4))
            q = Quaternion(*rng.uniform(-1, 1, 4))
            assert (taylor_eval(f, q0, q, f.degree + 1) - f(q)).norm() < 1e-10

    def test_center_gives_value(self, rng):
        f = _random_poly(rng, 4)
        q0 = Quaternion(0.3, 0.1, -0.2, 0.4)
        assert (taylor_eval(f, q0, q0, 6) - f(q0)).norm() < 1e-14

    def test_sqrt_against_monodromy(self, rng):
        model = SqrtModel()
        for _ in range(20):
            unit = random_imaginary_unit(rng)
            dx, dy = rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.35)
            q = Quaternion(4.0 + dx) + dy * unit
            series = taylor_eval(model, Quaternion(4.0), q, terms=40)
            path = make_npart_path([Line(4.0 + 0j, complex(4.0 + dx, dy))])
            direct = evaluate_lifted(model, path, (unit,))
            assert (series - direct).norm() < 1e-6

    def test_log_series(self, rng):
        model = LogModel()
        q = Quaternion(2.1) + 0.2 * random_imaginary_unit(rng)
        series = taylor_eval(model, Quaternion(2.0), q, terms=48)
        path = make_npart_path([Line(2.0 + 0j, complex(2.1, 0.2))])
        # unit recovered from q's imaginary direction inside evaluate
        direct = evaluate_lifted(model, path, (Quaternion(0, q.x, q.y, q.z) * (1 / 0.2),))
        assert (series - direct).norm() < 1e-8

    def test_out_of_ball(self):
        with pytest.raises(OutOfBall):
            taylor_eval(SqrtModel(), Quaternion(1.0), Quaternion(3.0), 10)
        with pytest.raises(OutOfBall):
            taylor_eval(SqrtModel(), Quaternion(-4.0), Quaternion(-4.1), 10)


class TestAxSymDomain:
    def test_ball_membership(self):
        ball = AxSymDomain.ball(3.0, 1.0)
        assert ball.contains(Quaternion(3.2, 0.1, 0, 0))
        assert not ball.contains(Quaternion(0))

    def test_sigma_ball_membership(self):
        dom = AxSymDomain.sigma_ball(Quaternion(1, 0.2, 0, 0), 0.5)
        assert dom.contains(Quaternion(1, 0, 0.1, 0))
        assert dom.contains(Quaternion(1.45))
        # within reach of the center but the conjugate twin is not
        assert not dom.contains(Quaternion(1, 0, 0.6, 0))

    def test_empty_sigma_ball_detected(self, rng):
        dom = AxSymDomain.sigma_ball(Quaternion(0, 1, 0, 0), 0.8)
        assert dom.is_empty()
        with pytest.raises(ValueError):
            dom.sample(rng, 1)

    @pytest.mark.parametrize(
        "args",
        [
            ("bogus", 0j, 1.0),
            ("Ball", 0j, 1.0),
            ("ball", 0j, math.nan),
            ("ball", 0j, math.inf),
            ("ball", 0j, -1.0),
            ("ball", 0j, 0.0),
            ("sigma_ball", complex(1, 0.2), -0.5),
            ("sigma_ball", complex(1, 0.2), "0.5"),
            ("ball", complex(math.inf, 0), 1.0),
            ("sigma_ball", complex(0, math.nan), 1.0),
            ("whole", complex(math.nan, 0), 0.0),
            ("ball", "3", 1.0),
        ],
        ids=repr,
    )
    def test_invalid_domains_rejected(self, args):
        with pytest.raises(ValueError):
            AxSymDomain(*args)

    def test_constructors_validate(self):
        with pytest.raises(ValueError):
            AxSymDomain.ball(0.0, math.nan)
        with pytest.raises(ValueError):
            AxSymDomain.ball(math.inf, 1.0)
        with pytest.raises(ValueError):
            AxSymDomain.sigma_ball(Quaternion(1, 0.2, 0, 0), -0.5)
        with pytest.raises(ValueError):
            AxSymDomain.sigma_ball(Quaternion(1, math.nan, 0, 0), 0.5)
        assert AxSymDomain.whole().kind == "whole"
        assert AxSymDomain.ball(3, 1).radius == 1

    def test_nan_radius_no_longer_yields_a_reciprocal(self):
        # a NaN radius used to exclude every probe point, so q - i got a reciprocal on a "ball" about its zero
        with pytest.raises(ValueError):
            regular_reciprocal(SliceRegularPoly((-I, Quaternion(1))), AxSymDomain.ball(0.0, math.nan))

    def test_samples_lie_inside(self, rng):
        for dom in (
            AxSymDomain.ball(1.0, 2.0),
            AxSymDomain.sigma_ball(Quaternion(0, 1, 0, 0), 1.5),
        ):
            for q in dom.sample(rng, 50):
                assert dom.contains(q)


class TestStemSeries:
    def test_polynomial_routes_exact(self):
        poly = SliceRegularPoly((J, Quaternion(1), I))
        report = stem_series_check(poly, beta_path(), radius=0.3, terms=8)
        assert report.route_deviation < 1e-8
        assert report.stem_series_residual < 1e-9
        assert report.tensor_series_residual < 1e-9

    @pytest.mark.parametrize(
        "model", [SqrtModel(), LogModel(), SliceRegularPoly((J, Quaternion(1), I))], ids=["sqrt", "log", "poly"]
    )
    def test_stacked_orders_match_single_orders(self, model):
        family = stems.stem_derivative_family(model, beta_path(), 0.3)
        z0 = beta_path().endpoint
        for points in ([z0], [z0 + 1e-6, z0 - 1e-6j, z0 + 0.2 + 0.1j], []):
            stacked = family(points, range(6))
            assert stacked.shape == (6, len(points), 4, 4)
            for n in range(6):
                assert stacked[n].tobytes() == family(points, n).tobytes()

    def test_one_center_continuation_for_all_orders(self, monkeypatch):
        continued = []
        closing = stems.continue_closing_lines

        def counted(model, states, center, points):
            continued.append(len(points))
            return closing(model, states, center, points)

        monkeypatch.setattr(stems, "continue_closing_lines", counted)
        stem_series_check(SqrtModel(), beta_path(), radius=0.3, terms=30)
        # the centre (all 30 orders), the four finite-difference neighbours (orders 0 and 1), the 8 samples
        assert continued == [1, 4, 8]

    def test_overflowing_family_gives_nan_residuals(self):
        # the stem values of this finite polynomial hold inf and NaN: every residual is NaN, and a check on them fails
        poly = SliceRegularPoly((1e308, 1e308, Quaternion(0, 1e308, 0, 0)))
        with np.errstate(all="ignore"):
            report = stem_series_check(poly, beta_path(), radius=0.3, terms=8)
        residuals = [report.stem_series_residual, report.tensor_series_residual, report.route_deviation]
        assert all(map(math.isnan, residuals))
        assert not checks._result("series-polynomial", "series", nan_max(residuals[:2]), 1e-9).passed
        assert not checks._result("series-derivative-routes", "series", report.route_deviation, 1e-8).passed

    def test_sqrt_series_on_disk(self):
        report = stem_series_check(SqrtModel(), beta_path(), radius=0.3, terms=30)
        assert report.stem_series_residual < 1e-6
        assert report.tensor_series_residual < 1e-6
        assert report.route_deviation < 1e-8


class _ScalarPoly(SliceFunctionModel):
    """A polynomial as a model whose `derivative_values` is `oracles.scalar_derivative_value`, point by point."""

    kind = "polynomial"
    datum_kind = "none"

    def __init__(self, poly: SliceRegularPoly):
        self.components = poly.components

    def initial_datum(self):
        return None

    def accepts_start(self, x0):
        return True

    def derivative_values(self, states, r, theta, n):
        r, theta = np.broadcast_arrays(r, theta)
        out = np.empty((len(states), r.shape[1], 4))
        for l, unit in enumerate(states.units.tolist()):
            row = min(l, r.shape[0] - 1)  # a (1, P) track is shared by every lift
            for p, (x, t) in enumerate(zip(r[row].tolist(), theta[row].tolist())):
                state = SheetState(r=x, theta=t, unit=Quaternion(*unit), datum=None)
                out[l, p] = scalar_derivative_value(self, state, n).to_list()
        return out


class TestPolynomialModel:
    """`SliceRegularPoly` is the entire model of `monodromy`, `stems` and `stem_series_check`."""

    def test_is_an_entire_slice_function_model(self):
        poly = SliceRegularPoly((J, Quaternion(1), I))
        assert isinstance(poly, SliceFunctionModel)
        assert not poly.is_branched()
        assert (poly.kind, poly.datum_kind, poly.initial_datum()) == ("polynomial", "none", None)
        assert poly.accepts_start(-3.0) and poly.accepts_start(0.0)

    def test_model_by_name_serves_only_the_branched_models(self):
        assert isinstance(model_by_name("sqrt"), SqrtModel) and isinstance(model_by_name("log"), LogModel)
        for name in ("poly", "polynomial"):
            with pytest.raises(ValueError, match=f"unknown model '{name}'"):
                model_by_name(name)

    def test_trailing_zero_coefficient_continues_as_trimmed(self, rng):
        padded, trimmed_poly = SliceRegularPoly((1.0, 0.0)), SliceRegularPoly((1.0,))
        assert padded.components.shape == (1, 4)
        up = half_turns(1)
        for path in (beta_path(), make_npart_path([up, up.reversed(), up])):
            rows = [tuple(random_imaginary_unit(rng) for _ in range(path.parts)) for _ in range(4)]
            keys = [germ_key(model, final_states(model, path, rows)) for model in (padded, trimmed_poly)]
            expected = [scalar_germ_key(trimmed_poly, per_lift_final_state(trimmed_poly, path, row)) for row in rows]
            for got in keys:
                assert [bits((k.point, k.value)) for k in got] == [bits((k.point, k.value)) for k in expected]

    @pytest.mark.parametrize("terms", [2, 8])
    def test_series_check_matches_the_scalar_formula(self, terms):
        poly = SliceRegularPoly((J, Quaternion(1), I))
        got = stem_series_check(poly, beta_path(), radius=0.3, terms=terms)
        expected = stem_series_check(_ScalarPoly(poly), beta_path(), radius=0.3, terms=terms)
        fields = ("stem_series_residual", "tensor_series_residual", "route_deviation")
        assert [getattr(got, f).hex() for f in fields] == [getattr(expected, f).hex() for f in fields]
        assert (got.terms, got.samples) == (expected.terms, expected.samples)


# -- the coefficient array against per-coefficient Quaternion arithmetic -----------------------------------------------


def _special_polys(rng) -> list[SliceRegularPoly]:
    """Polynomials on both sides of `ARRAY_KERNEL_PAIRS`: sparse ones (signed zeros, underflowing norms), ones
    drawn from NaN of either sign, inf, subnormal and huge values, with zero and huge trailing coefficients, and
    the zero one."""
    polys = [SliceRegularPoly(())]
    for length in (1, 2, 5, 15, 17, 40):
        polys.append(SliceRegularPoly(tuple(sparse_quaternions(length, rng))))
        drawn = [Quaternion(*rng.choice(SPECIAL_FLOATS, 4)) for _ in range(length)]
        polys.append(SliceRegularPoly(tuple(drawn + [Quaternion(-0.0, 0.0, -0.0, -0.0), Quaternion(1e-170)])))
        polys.append(SliceRegularPoly(tuple(drawn[:-1] + [Quaternion(1e308, -1e308, 1.5, -0.0)])))
    return polys


def _leibniz_reference(a, b, n) -> list[Quaternion]:
    acc = trimmed([Quaternion()])
    for m in range(n + 1):
        term = per_term_convolution(per_coefficient_derivative(a, m), per_coefficient_derivative(b, n - m))
        acc = per_coefficient_sum(acc, trimmed([c * float(math.comb(n, m)) for c in term]))
    return acc


class TestPolyArrayBits:
    """Every operation on the (K, 4) coefficient array gives the bits of per-coefficient `Quaternion` arithmetic.

    Conjugation, scaling and derivatives have one operand that can be NaN, and are pinned bit for bit, NaN signs
    included; products, sums and evaluation can meet two NaNs, and read every NaN as one (`u64_any_nan`).
    """

    def test_products_conjugate_and_symmetrization(self, rng):
        polys = _special_polys(rng)
        assert any(len(f.components) * len(g.components) >= ARRAY_KERNEL_PAIRS for f in polys for g in polys)
        for f in polys:
            a = f.coefficients
            conjugate = trimmed([c.conjugate() for c in a])
            assert u64(regular_conjugate(f).components) == u64(components(conjugate))
            expected = per_term_convolution(a, conjugate)
            assert u64_any_nan(symmetrization(f).components) == u64_any_nan(components(expected))
            for g in polys:
                expected = per_term_convolution(a, g.coefficients)
                assert u64_any_nan(star_product(f, g).components) == u64_any_nan(components(expected))

    def test_sum_scale_and_derivatives(self, rng):
        polys = _special_polys(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in polys:
                a = f.coefficients
                for factor in (0.5, -1.0, 0.0, -0.0, 3e300, 5e-324, math.inf, 2):
                    assert u64(f.scale(factor).components) == u64(components(trimmed([c * factor for c in a])))
                assert u64((-f).components) == u64(components([-c for c in a]))
                for n in range(4):
                    expected = per_coefficient_derivative(a, n)
                    assert u64(slice_derivative(f, n).components) == u64(components(trimmed(expected)))
                for g in polys:
                    expected = per_coefficient_sum(a, g.coefficients)
                    assert u64_any_nan((f + g).components) == u64_any_nan(components(expected))

    def test_leibniz(self, rng):
        polys = [p for p in _special_polys(rng) if len(p.components) <= 17]
        for f in polys[::2]:
            for g in polys[1::2]:
                for n in (0, 1, 3):
                    expected = _leibniz_reference(f.coefficients, g.coefficients, n)
                    assert u64_any_nan(leibniz(f, g, n).components) == u64_any_nan(components(expected))

    def test_evaluation(self, rng):
        points = [Quaternion(*rng.choice(SPECIAL_FLOATS, 4)) for _ in range(5)] + [Quaternion(*rng.uniform(-2, 2, 4))]
        for f in _special_polys(rng):
            for q in points:
                assert u64_any_nan(components([f(q)])) == u64_any_nan(components([poly_eval(f.coefficients, q)]))

    def test_constructor_boundary(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, -0.0, 0.0, 0.0]])
        f = SliceRegularPoly(rows)
        rows[0, 0] = 99.0  # the polynomial holds a copy
        assert f.components.tolist() == [[1.0, 2.0, 3.0, 4.0]] and not f.components.flags.writeable
        assert f == SliceRegularPoly((Quaternion(1, 2, 3, 4),)) == SliceRegularPoly(([1, 2, 3, 4], 0.0))
        assert f.coefficients == (Quaternion(1, 2, 3, 4),)
        assert SliceRegularPoly(()).components.tolist() == [[0.0, 0.0, 0.0, 0.0]]
        assert SliceRegularPoly((Quaternion(-0.0),)) == SliceRegularPoly((0.0,))
        assert SliceRegularPoly((math.nan,)) != SliceRegularPoly((math.nan,))
        for op in (star_product(f, f), regular_conjugate(f), slice_derivative(f), f + f, f.scale(2.0), -f):
            assert op.components.dtype == np.float64 and not op.components.flags.writeable
        for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((1, 4, 4))):
            with pytest.raises(ShapeMismatch):
                SliceRegularPoly(bad)

    def test_imaginary_unit_coefficient_round_trips_through_json(self):
        f = SliceRegularPoly((UNIT_I, 1.0))
        assert f.to_json_obj() == {"coeffs": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]}
        assert SliceRegularPoly.from_json_obj(f.to_json_obj()) == f

    def test_json_integers_read_as_their_floats(self):
        big = [10**30, 2**63 + 1, -(2**64) - 1, 7]
        f = SliceRegularPoly.from_json_obj({"coeffs": [big]})
        assert u64(f.components) == u64([float(v) for v in big])

import math

import numpy as np
import pytest

from slicekit.errors import BranchPoint, BranchPointCrossing, NotAtRealPoint
from slicekit.monodromy import (
    LogModel,
    PolynomialModel,
    SheetState,
    SqrtModel,
    _log_factor,
    continue_closing_lines,
    continue_segment,
    evaluate_lifted,
    final_state,
    germ_key,
    initial_state,
    junction_switch,
)
from slicekit.paths import Arc, Line, beta_path, constant_path, half_turns, make_npart_path
from slicekit.quat import Quaternion, quat_inverse, random_imaginary_unit
from slicekit.tolerances import BRANCH_TOL

from oracles import bits

PI = math.pi


class TestInitialState:
    def test_sqrt_at_one(self, unit_i):
        state = initial_state(SqrtModel(), 1.0, unit_i)
        assert (SqrtModel().value(state) - Quaternion(1)).norm() < 1e-15

    def test_log_at_one(self, unit_i):
        state = initial_state(LogModel(), 1.0, unit_i)
        assert LogModel().value(state).norm() < 1e-15

    def test_branch_point_rejected(self, unit_i):
        with pytest.raises(BranchPoint):
            initial_state(SqrtModel(), 0.0, unit_i)
        with pytest.raises(BranchPoint):
            initial_state(LogModel(), -2.0, unit_i)

    def test_polynomial_any_real_start(self, unit_i):
        model = PolynomialModel([Quaternion(1), Quaternion(0, 0, 1, 0)])
        state = initial_state(model, -3.0, unit_i)
        expected = Quaternion(1) + Quaternion(-3) * Quaternion(0, 0, 1, 0)
        assert (model.value(state) - expected).norm() < 1e-14


class TestContinuation:
    def test_sqrt_half_turn(self, unit_i):
        model = SqrtModel()
        state = initial_state(model, 1.0, unit_i)
        state = continue_segment(model, state, half_turns(1))
        assert (model.value(state) - unit_i).norm() < 1e-12

    def test_sqrt_five_half_turns(self, rng):
        model = SqrtModel()
        unit = random_imaginary_unit(rng)
        state = continue_segment(model, initial_state(model, 1.0, unit), half_turns(5))
        assert (model.value(state) - unit).norm() < 1e-12

    def test_log_four_half_turns(self, unit_i):
        model = LogModel()
        state = continue_segment(model, initial_state(model, 1.0, unit_i), half_turns(4))
        assert (model.value(state) - 4 * PI * unit_i).norm() < 1e-12

    def test_branch_point_crossing(self, unit_i):
        model = SqrtModel()
        state = initial_state(model, 1.0, unit_i)
        with pytest.raises(BranchPointCrossing) as crossing:
            continue_segment(model, state, Line(1 + 0j, -1 + 0j))
        # the exception carries the measured clearance and the cut-off it missed
        assert (crossing.value.clearance, crossing.value.tolerance) == (0.0, BRANCH_TOL)
        assert str(crossing.value) == "segment passes within 0 of the branch point"
        # a bare segment belongs to no path part and no disk point
        assert (crossing.value.segment, crossing.value.point) == (None, None)

    def test_segment_must_start_at_state(self, unit_i):
        model = SqrtModel()
        state = initial_state(model, 1.0, unit_i)
        with pytest.raises(ValueError):
            continue_segment(model, state, Line(2 + 0j, 3 + 0j))

    def test_reversal_restores_state(self, rng):
        model = SqrtModel()
        for _ in range(100):
            unit = random_imaginary_unit(rng)
            sweep = rng.uniform(-3 * PI, 3 * PI)
            arc = Arc(0j, 1.0, 0.0, sweep)
            state = initial_state(model, 1.0, unit)
            out = continue_segment(model, state, arc)
            back = continue_segment(model, out, arc.reversed())
            assert abs(back.r - state.r) < 1e-10
            assert abs(back.theta - state.theta) < 1e-10


class TestJunctionSwitch:
    def test_sqrt_switch_at_minus_one(self, unit_i, unit_j):
        model = SqrtModel()
        state = continue_segment(model, initial_state(model, 1.0, unit_i), half_turns(1))
        switched = junction_switch(model, state, unit_j)
        expected_datum = quat_inverse(unit_j) * unit_i
        assert (switched.datum - expected_datum).norm() < 1e-12
        assert (model.value(switched) - model.value(state)).norm() < 1e-12

    def test_log_switch_at_minus_one(self, unit_i, unit_j):
        model = LogModel()
        state = continue_segment(model, initial_state(model, 1.0, unit_i), half_turns(1))
        switched = junction_switch(model, state, unit_j)
        assert (switched.datum - (PI * unit_i - PI * unit_j)).norm() < 1e-12

    def test_switch_at_plus_one_keeps_datum(self, unit_i, unit_j):
        # at canonical positive-axis coordinates the base factor is trivial
        for model in (SqrtModel(), LogModel()):
            state = continue_segment(
                model, initial_state(model, 1.0, unit_i), Line(1 + 0j, 2.5 + 0j)
            )
            switched = junction_switch(model, state, unit_j)
            assert (switched.datum - state.datum).norm() < 1e-12

    def test_full_loop_monodromy_moves_into_datum(self, unit_i, unit_j):
        # after one full turn the square root changes sign; the switch
        # canonicalises the angle and the sheet flip lands in the datum
        model = SqrtModel()
        state = continue_segment(model, initial_state(model, 1.0, unit_i), half_turns(2))
        switched = junction_switch(model, state, unit_j)
        assert (switched.datum - Quaternion(-1)).norm() < 1e-12
        assert (model.value(switched) - model.value(state)).norm() < 1e-12

    def test_rejects_non_real_points(self, unit_i, unit_j):
        model = SqrtModel()
        state = continue_segment(
            model, initial_state(model, 1.0, unit_i), Arc(0j, 1.0, 0.0, PI / 2)
        )
        with pytest.raises(NotAtRealPoint):
            junction_switch(model, state, unit_j)


class TestEvaluateLifted:
    def test_sqrt_beta_formula(self, rng):
        beta = beta_path()
        model = SqrtModel()
        for _ in range(100):
            k1, k2 = random_imaginary_unit(rng), random_imaginary_unit(rng)
            value = evaluate_lifted(model, beta, (k1, k2))
            assert (value - quat_inverse(k2) * k1).norm() < 1e-9

    def test_log_beta_formula(self, rng):
        beta = beta_path()
        model = LogModel()
        for _ in range(100):
            k1, k2 = random_imaginary_unit(rng), random_imaginary_unit(rng)
            value = evaluate_lifted(model, beta, (k1, k2))
            assert (value - (PI * k1 - PI * k2)).norm() < 1e-9

    def test_sqrt_two_part_counterexample_path(self, unit_i, unit_j):
        gamma2 = make_npart_path([half_turns(4), half_turns(3)])
        value = evaluate_lifted(SqrtModel(), gamma2, (unit_i, unit_j))
        assert (value - (-unit_j)).norm() < 1e-12

    def test_positive_axis_agrees_on_all_slices(self, rng):
        poly = PolynomialModel([Quaternion(0.5), Quaternion(0, 1, 0, 0), Quaternion(1)])
        for _ in range(20):
            unit = random_imaginary_unit(rng)
            x = float(rng.uniform(0.2, 3.0))
            path = constant_path(x)
            sqrt_v = evaluate_lifted(SqrtModel(), path, (unit,))
            assert (sqrt_v - Quaternion(math.sqrt(x))).norm() < 1e-12
            log_v = evaluate_lifted(LogModel(), path, (unit,))
            assert (log_v - Quaternion(math.log(x))).norm() < 1e-12
            poly_v = evaluate_lifted(poly, path, (unit,))
            direct = Quaternion(0.5) + Quaternion(x) * Quaternion(0, 1, 0, 0) + Quaternion(x * x)
            assert (poly_v - direct).norm() < 1e-12

    def test_conjugate_slice_symmetry(self, rng):
        model = SqrtModel()
        for _ in range(100):
            unit = random_imaginary_unit(rng)
            sweep = rng.uniform(-2 * PI, 2 * PI)
            x0 = float(rng.uniform(0.5, 2.0))
            path = make_npart_path([Arc(0j, x0, 0.0, sweep)])
            mirrored = make_npart_path([Arc(0j, x0, 0.0, -sweep)])
            v1 = evaluate_lifted(model, path, (unit,))
            v2 = evaluate_lifted(model, mirrored, (-unit,))
            assert (v1 - v2).norm() < 1e-10


class TestGermKeys:
    def test_counterexample_keys_coincide(self, unit_i, unit_j):
        model = LogModel()
        k = (4.0 * unit_i + 3.0 * unit_j) * (1.0 / 5.0)
        gamma1 = make_npart_path([half_turns(5)])
        gamma2 = make_npart_path([half_turns(4), half_turns(3)])
        key1 = germ_key(model, final_state(model, gamma1, (k,)))
        key2 = germ_key(model, final_state(model, gamma2, (unit_i, unit_j)))
        assert (key1.point - Quaternion(-1)).norm() < 1e-9
        assert (key1.value - 5 * PI * k).norm() < 1e-9
        assert (key2.value - (4 * PI * unit_i + 3 * PI * unit_j)).norm() < 1e-9
        assert key1.isclose(key2)

    def test_keys_deterministic(self, unit_i, unit_j):
        model = LogModel()
        beta = beta_path()
        k1 = germ_key(model, final_state(model, beta, (unit_i, unit_j)))
        k2 = germ_key(model, final_state(model, beta, (unit_i, unit_j)))
        assert k1.point == k2.point and k1.value == k2.value

    def test_keys_ignore_trailing_constant_detour(self, rng):
        # appending a constant part in any other slice names the same point
        model = SqrtModel()
        for _ in range(20):
            k = random_imaginary_unit(rng)
            other = random_imaginary_unit(rng)
            direct = germ_key(model, final_state(model, make_npart_path([half_turns(1)]), (k,)))
            detour = germ_key(
                model,
                final_state(
                    model,
                    make_npart_path([half_turns(1), Line(-1 + 0j, -1 + 0j)]),
                    (k, other),
                ),
            )
            assert direct.isclose(detour)
            assert (direct.value - k).norm() < 1e-12


_POLY = PolynomialModel((Quaternion(1, 0.5, 0, 0), Quaternion(0, 0, 2, 0), Quaternion(0.25, 0, 0, -1)))


class TestArrayForms:
    @pytest.mark.parametrize("model", [SqrtModel(), LogModel(), _POLY], ids=["sqrt", "log", "poly"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_derivative_values_match_derivative_value_bit_for_bit(self, rng, model, n):
        states = []
        for _ in range(3):
            unit = random_imaginary_unit(rng)
            datum = None if model.datum_kind == "none" else Quaternion(*rng.uniform(-2, 2, 4))
            states.append(SheetState(r=1.0, theta=0.0, unit=unit, datum=datum))
        r = rng.uniform(0.05, 3.0, (3, 7))
        theta = rng.uniform(-9.0, 9.0, (3, 7))
        theta[0, 0] = -0.0
        values = model.derivative_values(states, r, theta, n)
        assert values.shape == (3, 7, 4)
        for l, state in enumerate(states):
            for p in range(7):
                moved = SheetState(r=float(r[l, p]), theta=float(theta[l, p]), unit=state.unit, datum=state.datum)
                expected = model.derivative_value(moved, n)
                assert bits([Quaternion(*values[l, p].tolist())]) == bits([expected])

    @pytest.mark.parametrize("model", [SqrtModel(), LogModel()], ids=["sqrt", "log"])
    def test_high_orders_give_non_finite_components(self, unit_i, model):
        # the factorial-sized coefficient leaves the floats (log from n = 172, sqrt from n = 173): inf and nan
        state = SheetState(r=1.5, theta=0.7, unit=unit_i, datum=model.initial_datum())
        scalar = model.derivative_value(state, 200)
        with np.errstate(invalid="ignore"):
            values = model.derivative_values([state], np.array([[1.5]]), np.array([[0.7]]), 200)
        assert not all(map(math.isfinite, (scalar.w, scalar.x, scalar.y, scalar.z)))
        assert bits([Quaternion(*values[0, 0].tolist())]) == bits([scalar])

    @pytest.mark.parametrize("model", [SqrtModel(), LogModel(), _POLY], ids=["sqrt", "log", "poly"])
    def test_closing_lines_match_continue_segment(self, rng, model):
        path = make_npart_path([half_turns(1), half_turns(1).reversed()])
        states = [final_state(model, path, (random_imaginary_unit(rng), random_imaginary_unit(rng))) for _ in range(2)]
        center = path.endpoint
        points = [center, center + 1e-16j] + [complex(*rng.uniform(-0.9, 0.9, 2)) + center for _ in range(20)]
        r, theta = continue_closing_lines(model, states, center, points)
        for l, state in enumerate(states):
            for p, z in enumerate(points):
                moved = state if abs(z - center) < 1e-15 else continue_segment(model, state, Line(center, z))
                assert (r[l, p].hex(), theta[l, p].hex()) == (moved.r.hex(), moved.theta.hex())

    def test_closing_line_crossing_names_the_first_point(self, unit_i):
        model = SqrtModel()
        state = initial_state(model, 1.0, unit_i)
        points = [1.5 + 0.2j, -1.0 + 0j, -2.0 + 0j]
        with pytest.raises(BranchPointCrossing) as crossing:
            continue_closing_lines(model, [state], 1.0 + 0j, points)
        assert crossing.value.point == -1.0 + 0j
        assert (crossing.value.clearance, crossing.value.tolerance) == (0.0, BRANCH_TOL)
        assert str(crossing.value) == "segment passes within 0 of the branch point"
        assert crossing.value.segment is None


def test_final_state_crossing_carries_the_segment(unit_i):
    path = make_npart_path([half_turns(1), Line(-1 + 0j, 1 + 0j)])
    with pytest.raises(BranchPointCrossing) as crossing:
        final_state(SqrtModel(), path, (unit_i, unit_i))
    assert crossing.value.segment == 1
    assert (crossing.value.clearance, crossing.value.tolerance) == (0.0, BRANCH_TOL)
    assert str(crossing.value) == "segment passes within 0 of the branch point"
    assert crossing.value.point is None


def test_log_factor_keeps_its_bits_below_overflow():
    for n in range(1, 172):
        assert _log_factor(n).hex() == ((-1.0) ** (n - 1) * math.factorial(n - 1)).hex()
    assert (_log_factor(172), _log_factor(173)) == (-math.inf, math.inf)

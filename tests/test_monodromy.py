import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit.calculus import SliceRegularPoly, _horner
from slicekit.errors import BranchPoint, BranchPointCrossing, LengthMismatch, NotAtRealPoint, SliceKitError
from slicekit.monodromy import (
    LogModel,
    SheetStates,
    SqrtModel,
    _log_factor,
    continue_closing_lines,
    continue_segment,
    evaluate_lifted,
    final_states,
    germ_key,
    junction_switch,
    lift_values,
)
from slicekit.paths import Arc, Line, NPartPath, beta_path, constant_path, half_turns, make_npart_path
from slicekit.quat import Quaternion, quat_inverse, random_imaginary_unit
from slicekit.tolerances import BRANCH_TOL

from oracles import (
    SheetState,
    bits,
    per_lift_final_state,
    poly_eval,
    scalar_derivative_value,
    scalar_germ_key,
    scalar_value,
)

PI = math.pi


def _value(model, states: SheetStates) -> Quaternion:
    """The value of a one-lift `SheetStates`."""
    return Quaternion(*lift_values(model, states)[0].tolist())


def _start(model, x0: float, unit) -> SheetStates:
    """The one-lift states at the start of a constant path at x0: the canonical germ over it."""
    return final_states(model, constant_path(x0), [(unit,)])


class TestInitialState:
    def test_sqrt_at_one(self, unit_i):
        assert (_value(SqrtModel(), _start(SqrtModel(), 1.0, unit_i)) - Quaternion(1)).norm() < 1e-15

    def test_log_at_one(self, unit_i):
        assert _value(LogModel(), _start(LogModel(), 1.0, unit_i)).norm() < 1e-15

    def test_branch_point_rejected(self, unit_i):
        with pytest.raises(BranchPoint):
            _start(SqrtModel(), 0.0, unit_i)
        with pytest.raises(BranchPoint):
            _start(LogModel(), -2.0, unit_i)

    def test_polynomial_any_real_start(self, unit_i):
        model = SliceRegularPoly([Quaternion(1), Quaternion(0, 0, 1, 0)])
        states = _start(model, -3.0, unit_i)
        assert (states.r, states.theta) == (3.0, PI)
        expected = Quaternion(1) + Quaternion(-3) * Quaternion(0, 0, 1, 0)
        assert (_value(model, states) - expected).norm() < 1e-14


class TestContinuation:
    def test_sqrt_half_turn(self, unit_i):
        model = SqrtModel()
        states = continue_segment(model, _lifts(model, [unit_i]), half_turns(1))
        assert (_value(model, states) - unit_i).norm() < 1e-12

    def test_sqrt_five_half_turns(self, rng):
        model = SqrtModel()
        unit = random_imaginary_unit(rng)
        states = continue_segment(model, _lifts(model, [unit]), half_turns(5))
        assert (_value(model, states) - unit).norm() < 1e-12

    def test_log_four_half_turns(self, unit_i):
        model = LogModel()
        states = continue_segment(model, _lifts(model, [unit_i]), half_turns(4))
        assert (_value(model, states) - 4 * PI * unit_i).norm() < 1e-12

    def test_branch_point_crossing(self, unit_i):
        model = SqrtModel()
        state = _lifts(model, [unit_i])
        with pytest.raises(BranchPointCrossing) as crossing:
            continue_segment(model, state, Line(1 + 0j, -1 + 0j))
        # the exception carries the measured clearance and the cut-off it missed
        assert (crossing.value.clearance, crossing.value.tolerance) == (0.0, BRANCH_TOL)
        assert str(crossing.value) == "segment passes within 0 of the branch point"
        # a bare segment belongs to no path part and no disk point
        assert (crossing.value.segment, crossing.value.point) == (None, None)

    def test_segment_must_start_at_state(self, unit_i):
        model = SqrtModel()
        state = _lifts(model, [unit_i])
        with pytest.raises(ValueError):
            continue_segment(model, state, Line(2 + 0j, 3 + 0j))

    def test_reversal_restores_state(self, rng):
        model = SqrtModel()
        for _ in range(100):
            unit = random_imaginary_unit(rng)
            sweep = rng.uniform(-3 * PI, 3 * PI)
            arc = Arc(0j, 1.0, 0.0, sweep)
            state = _lifts(model, [unit])
            out = continue_segment(model, state, arc)
            back = continue_segment(model, out, arc.reversed())
            assert abs(back.r - state.r) < 1e-10
            assert abs(back.theta - state.theta) < 1e-10


def _components(quaternions) -> np.ndarray:
    return np.array([(q.w, q.x, q.y, q.z) for q in quaternions], dtype=float)


def _lifts(model, units, r=1.0, theta=0.0) -> SheetStates:
    """Lifts at (r, theta), one per unit, each on the principal sheet's datum."""
    datum = model.initial_datum()
    data = None if datum is None else _components([datum] * len(units))
    return SheetStates(r=r, theta=theta, units=_components(units), data=data)


def _data(states: SheetStates) -> list[Quaternion]:
    return [Quaternion(*d) for d in states.data.tolist()]


class TestJunctionSwitch:
    def test_sqrt_switch_at_minus_one(self, unit_i, unit_j, unit_k):
        model = SqrtModel()
        state = continue_segment(model, _lifts(model, [unit_i, unit_j]), half_turns(1))
        switched = junction_switch(model, state, _components([unit_j, unit_k]))
        expected = [quat_inverse(unit_j) * unit_i, quat_inverse(unit_k) * unit_j]
        assert all((a - b).norm() < 1e-12 for a, b in zip(_data(switched), expected))
        assert np.abs(lift_values(model, switched) - lift_values(model, state)).max() < 1e-12

    def test_log_switch_at_minus_one(self, unit_i, unit_j, unit_k):
        model = LogModel()
        state = continue_segment(model, _lifts(model, [unit_i, unit_k]), half_turns(1))
        switched = junction_switch(model, state, _components([unit_j, unit_i]))
        expected = [PI * unit_i - PI * unit_j, PI * unit_k - PI * unit_i]
        assert all((a - b).norm() < 1e-12 for a, b in zip(_data(switched), expected))

    def test_switch_at_plus_one_keeps_datum(self, unit_i, unit_j):
        # at canonical positive-axis coordinates the base factor is trivial
        for model in (SqrtModel(), LogModel()):
            state = continue_segment(model, _lifts(model, [unit_i, unit_j]), Line(1 + 0j, 2.5 + 0j))
            switched = junction_switch(model, state, _components([unit_j, unit_i]))
            assert np.abs(switched.data - state.data).max() < 1e-12

    def test_full_loop_monodromy_moves_into_datum(self, unit_i, unit_j):
        # after one full turn the square root changes sign; the switch
        # canonicalises the angle and the sheet flip lands in the datum
        model = SqrtModel()
        state = continue_segment(model, _lifts(model, [unit_i]), half_turns(2))
        switched = junction_switch(model, state, _components([unit_j]))
        assert (_data(switched)[0] - Quaternion(-1)).norm() < 1e-12
        assert np.abs(lift_values(model, switched) - lift_values(model, state)).max() < 1e-12

    def test_rejects_non_real_points(self, unit_i, unit_j):
        model = SqrtModel()
        state = continue_segment(model, _lifts(model, [unit_i]), Arc(0j, 1.0, 0.0, PI / 2))
        with pytest.raises(NotAtRealPoint):
            junction_switch(model, state, _components([unit_j]))


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
        poly = SliceRegularPoly([Quaternion(0.5), Quaternion(0, 1, 0, 0), Quaternion(1)])
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
        (key1,) = germ_key(model, final_states(model, gamma1, [(k,)]))
        (key2,) = germ_key(model, final_states(model, gamma2, [(unit_i, unit_j)]))
        assert (key1.point - Quaternion(-1)).norm() < 1e-9
        assert (key1.value - 5 * PI * k).norm() < 1e-9
        assert (key2.value - (4 * PI * unit_i + 3 * PI * unit_j)).norm() < 1e-9
        assert key1.isclose(key2)

    def test_keys_deterministic(self, unit_i, unit_j):
        model = LogModel()
        beta = beta_path()
        (k1,) = germ_key(model, final_states(model, beta, [(unit_i, unit_j)]))
        (k2,) = germ_key(model, final_states(model, beta, [(unit_i, unit_j)]))
        assert k1.point == k2.point and k1.value == k2.value

    def test_keys_ignore_trailing_constant_detour(self, rng):
        # appending a constant part in any other slice names the same point
        model = SqrtModel()
        for _ in range(20):
            k = random_imaginary_unit(rng)
            other = random_imaginary_unit(rng)
            (direct,) = germ_key(model, final_states(model, make_npart_path([half_turns(1)]), [(k,)]))
            detour_path = make_npart_path([half_turns(1), Line(-1 + 0j, -1 + 0j)])
            (detour,) = germ_key(model, final_states(model, detour_path, [(k, other)]))
            assert direct.isclose(detour)
            assert (direct.value - k).norm() < 1e-12


_POLY = SliceRegularPoly((Quaternion(1, 0.5, 0, 0), Quaternion(0, 0, 2, 0), Quaternion(0.25, 0, 0, -1)))


class TestArrayForms:
    @pytest.mark.parametrize("model", [SqrtModel(), LogModel(), _POLY], ids=["sqrt", "log", "poly"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_derivative_values_match_derivative_value_bit_for_bit(self, rng, model, n):
        units = [random_imaginary_unit(rng) for _ in range(3)]
        data = None if model.datum_kind == "none" else [Quaternion(*rng.uniform(-2, 2, 4)) for _ in range(3)]
        states = SheetStates(r=1.0, theta=0.0, units=_components(units), data=data and _components(data))
        r = rng.uniform(0.05, 3.0, (3, 7))
        theta = rng.uniform(-9.0, 9.0, (3, 7))
        theta[0, 0] = -0.0
        values = model.derivative_values(states, r, theta, n)
        assert values.shape == (3, 7, 4)
        for l, unit in enumerate(units):
            for p in range(7):
                datum = data and data[l]
                moved = SheetState(r=float(r[l, p]), theta=float(theta[l, p]), unit=unit, datum=datum)
                expected = scalar_derivative_value(model, moved, n)
                assert bits([Quaternion(*values[l, p].tolist())]) == bits([expected])

    @pytest.mark.parametrize("model", [SqrtModel(), LogModel()], ids=["sqrt", "log"])
    def test_high_orders_give_non_finite_components(self, unit_i, model):
        # the factorial-sized coefficient leaves the floats (log from n = 172, sqrt from n = 173): inf and nan
        state = SheetState(r=1.5, theta=0.7, unit=unit_i, datum=model.initial_datum())
        scalar = scalar_derivative_value(model, state, 200)
        with np.errstate(invalid="ignore"):
            values = model.derivative_values(_lifts(model, [unit_i]), np.array([[1.5]]), np.array([[0.7]]), 200)
        assert not all(map(math.isfinite, (scalar.w, scalar.x, scalar.y, scalar.z)))
        assert bits([Quaternion(*values[0, 0].tolist())]) == bits([scalar])

    @pytest.mark.parametrize("model", [SqrtModel(), LogModel(), _POLY], ids=["sqrt", "log", "poly"])
    def test_closing_lines_match_continue_segment(self, rng, model):
        path = make_npart_path([half_turns(1), half_turns(1).reversed()])
        rows = [(random_imaginary_unit(rng), random_imaginary_unit(rng)) for _ in range(2)]
        center = path.endpoint
        points = [center, center + 1e-16j] + [complex(*rng.uniform(-0.9, 0.9, 2)) + center for _ in range(20)]
        r, theta = continue_closing_lines(model, final_states(model, path, rows), center, points)
        # one track for all the lifts: every lift's own fold lands on the single row
        assert r.shape == theta.shape == (1, len(points))
        for row in rows:
            state = per_lift_final_state(model, path, row)
            for p, z in enumerate(points):
                moved = state if abs(z - center) < 1e-15 else continue_segment(model, state, Line(center, z))
                assert (r[0, p].hex(), theta[0, p].hex()) == (moved.r.hex(), moved.theta.hex())

    def test_closing_line_crossing_names_the_first_point(self, unit_i):
        model = SqrtModel()
        points = [1.5 + 0.2j, -1.0 + 0j, -2.0 + 0j]
        with pytest.raises(BranchPointCrossing) as crossing:
            continue_closing_lines(model, _lifts(model, [unit_i]), 1.0 + 0j, points)
        assert crossing.value.point == -1.0 + 0j
        assert (crossing.value.clearance, crossing.value.tolerance) == (0.0, BRANCH_TOL)
        assert str(crossing.value) == "segment passes within 0 of the branch point"
        assert crossing.value.segment is None


def _random_path(rng: np.random.Generator, n: int, entire: bool) -> NPartPath:
    """n parts between nonzero real points: arcs of 1-3 half turns either way about 0, or lines along the axis.

    For an entire model a line may also pass through the origin.
    """
    x, segments = 1.0, []
    for _ in range(n):
        if entire and rng.uniform() < 0.2:
            segments.append(Line(complex(x), complex(-x)))
            x = -x
        elif rng.uniform() < 0.7:
            turns = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            start = 0.0 if x > 0 else PI
            segments.append(Arc(0j, abs(x), start, start + turns * PI))
            x = x * (-1) ** turns
        else:
            end = math.copysign(rng.uniform(0.3, 3.0), x)
            segments.append(Line(complex(x), complex(end)))
            x = end
    return make_npart_path(segments)


def _random_model(kind: str, rng: np.random.Generator):
    if kind == "poly":
        return SliceRegularPoly(tuple(Quaternion(*q) for q in rng.uniform(-1, 1, (int(rng.integers(1, 5)), 4))))
    return SqrtModel() if kind == "sqrt" else LogModel()


def _state_bits(state: SheetState) -> tuple:
    """r, theta, unit and datum exactly: float.hex tells signed zeros apart."""
    datum = None if state.datum is None else bits([state.datum])
    return state.r.hex(), state.theta.hex(), bits([state.unit]), datum


def _raised(call) -> tuple | None:
    """Class, message and context fields of the error `call` raises, None when it returns."""
    try:
        call()
    except (SliceKitError, ValueError) as error:
        fields = tuple(getattr(error, name, None) for name in ("segment", "clearance", "tolerance", "point"))
        return type(error), str(error), fields
    return None


class TestScalarFormulas:
    """`derivative_values` against the oracle's one-lift, one-point closed forms, bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["sqrt", "log", "poly"]),
        lifts=st.integers(1, 4),
        n=st.sampled_from([0, 1, 2, 3, 200]),
        track=st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(-9.0, 9.0)), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_derivative_values_match_the_scalar_formulas(self, kind, lifts, n, track, seed):
        rng = np.random.default_rng(seed)
        model = _random_model(kind, rng)
        units = [random_imaginary_unit(rng) for _ in range(lifts)]
        data = None if model.datum_kind == "none" else [Quaternion(*rng.uniform(-2, 2, 4)) for _ in range(lifts)]
        states = SheetStates(r=1.0, theta=0.0, units=_components(units), data=data and _components(data))
        # one (1, P) track shared by the lifts, as the closing lines give it
        r, theta = np.array([[x for x, _ in track]]), np.array([[t for _, t in track]])
        with np.errstate(over="ignore", invalid="ignore"):  # order 200 leaves the floats for sqrt and log
            values = model.derivative_values(states, r, theta, n)
        assert values.shape == (lifts, len(track), 4)
        for l, unit in enumerate(units):
            for p, (x, t) in enumerate(track):
                moved = SheetState(r=x, theta=t, unit=unit, datum=data and data[l])
                assert bits([Quaternion(*values[l, p].tolist())]) == bits([scalar_derivative_value(model, moved, n)])

    def test_horner_matches_the_quaternion_horner(self, rng):
        for degree in range(9):
            coeffs = [Quaternion(*rng.uniform(-2, 2, 4)) for _ in range(degree + 1)]
            points = [Quaternion(*rng.uniform(-1.5, 1.5, 4)) for _ in range(6)] + [Quaternion(-0.0, 0.0, -0.0, 0.0)]
            expected = bits([poly_eval(coeffs, q) for q in points])
            rows = [q.to_list() for q in coeffs]
            # floats, one point at a time, and arrays of all the points at once
            assert bits([Quaternion(*_horner(rows, (q.w, q.x, q.y, q.z))) for q in points]) == expected
            table = np.array([(q.w, q.x, q.y, q.z) for q in points])
            columns = np.stack(_horner(rows, tuple(table.T)), axis=-1)
            assert bits([Quaternion(*q) for q in columns.tolist()]) == expected
            assert bits([SliceRegularPoly(tuple(coeffs))(q) for q in points]) == expected
        assert bits([Quaternion(*_horner([], (1.0, 2.0, 3.0, 4.0)))]) == bits([poly_eval([], Quaternion(1, 2, 3, 4))])


class TestFinalStates:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 4),
        lifts=st.integers(1, 6),
        kind=st.sampled_from(["sqrt", "log", "poly"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_lift_fold(self, n, lifts, kind, seed):
        rng = np.random.default_rng(seed)
        model = _random_model(kind, rng)
        path = _random_path(rng, n, not model.is_branched())
        rows = [tuple(random_imaginary_unit(rng) for _ in range(n)) for _ in range(lifts)]
        states = final_states(model, path, rows)
        assert len(states) == lifts
        values, keys = lift_values(model, states), germ_key(model, states)
        for l, row in enumerate(rows):
            fold = per_lift_final_state(model, path, row)
            datum = None if states.data is None else Quaternion(*states.data[l].tolist())
            lift = SheetState(states.r, states.theta, Quaternion(*states.units[l].tolist()), datum)
            assert _state_bits(lift) == _state_bits(fold)
            # the array readings of the end states give the scalar formulas' bits
            expected = bits([scalar_value(model, fold)])
            assert bits([Quaternion(*values[l].tolist())]) == expected
            assert bits([evaluate_lifted(model, path, row)]) == expected
            key = scalar_germ_key(model, fold)
            assert bits([keys[l].point, keys[l].value]) == bits([key.point, key.value])

    @pytest.mark.parametrize("kind", ["sqrt", "log", "poly"])
    def test_errors_match_the_per_lift_fold(self, rng, kind):
        model = _random_model(kind, rng)
        up = half_turns(1)
        for n in range(1, 5):
            rows = [tuple(random_imaginary_unit(rng) for _ in range(n)) for _ in range(3)]
            loop = [up if k % 2 == 0 else up.reversed() for k in range(n - 1)]
            end = -1.0 if n % 2 == 0 else 1.0
            bad_paths = [
                # part n - 1 passes through the branch point
                make_npart_path(loop + [Line(complex(end), complex(-end))]),
                # the first junction sits at i, off the real axis
                NPartPath((Arc(0j, 1.0, 0.0, PI / 2), Arc(0j, 1.0, PI / 2, PI))),
                # starts off the real axis, and at the branch point
                NPartPath((Line(0.5 + 0.5j, 1.0 + 0j),)),
                constant_path(0.0),
            ]
            for path in bad_paths:
                lifts = [tuple(random_imaginary_unit(rng) for _ in range(path.parts)) for _ in range(3)]
                expected = _raised(lambda: per_lift_final_state(model, path, lifts[0]))
                # an entire model crosses the origin and starts anywhere on the real axis
                assert expected is not None or not model.is_branched()
                assert _raised(lambda: final_states(model, path, lifts)) == expected
            good = make_npart_path(loop + [Line(complex(end), complex(2 * end))])
            expected = _raised(lambda: per_lift_final_state(model, good, rows[0], x0=2.0))
            assert expected[0] is ValueError and _raised(lambda: final_states(model, good, rows, x0=2.0)) == expected
            short = [rows[0], rows[1][:-1]]
            expected = _raised(lambda: per_lift_final_state(model, good, short[1]))
            assert expected[0] is LengthMismatch and _raised(lambda: final_states(model, good, short)) == expected


def test_final_state_crossing_carries_the_segment(unit_i):
    path = make_npart_path([half_turns(1), Line(-1 + 0j, 1 + 0j)])
    with pytest.raises(BranchPointCrossing) as crossing:
        final_states(SqrtModel(), path, [(unit_i, unit_i)])
    assert crossing.value.segment == 1
    assert (crossing.value.clearance, crossing.value.tolerance) == (0.0, BRANCH_TOL)
    assert str(crossing.value) == "segment passes within 0 of the branch point"
    assert crossing.value.point is None


def test_log_factor_keeps_its_bits_below_overflow():
    for n in range(1, 172):
        assert _log_factor(n).hex() == ((-1.0) ** (n - 1) * math.factorial(n - 1)).hex()
    assert (_log_factor(172), _log_factor(173)) == (-math.inf, math.inf)

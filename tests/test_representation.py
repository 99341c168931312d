import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit.errors import KeysDiffer, LengthMismatch, NotIndependent
from slicekit.calculus import SliceRegularPoly
from slicekit.monodromy import LogModel, SqrtModel, evaluate_lifted
from slicekit.paths import beta_path, constant_path, half_turns, make_npart_path
from slicekit.qmat import qmat_inverse
from slicekit.quat import I as UNIT_I
from slicekit.quat import Quaternion, quat_inverse, random_imaginary_unit
from slicekit.representation import (
    evaluate_via_formula,
    extendability_check,
    invariance_check,
    representation_vector,
)
from slicekit.sliceunits import SliceUnitMatrix, eta, eta_inverse, random_slice_unit_matrix, slice_matrix
from slicekit.tolerances import RANK_CUTOFF

from oracles import per_lift_final_state, scalar_germ_key

PI = math.pi


def _close(column, expected, tol=1e-9):
    return all((a - b).norm() < tol for a, b in zip(column, expected))


class TestRepresentationVector:
    def test_sqrt_beta(self, unit_i):
        g = representation_vector(SqrtModel(), beta_path(), eta(2, unit_i))
        assert _close(g.entries, (Quaternion(), Quaternion(), Quaternion(-1), Quaternion()))

    def test_log_beta(self, unit_i):
        g = representation_vector(LogModel(), beta_path(), eta(2, unit_i))
        assert _close(g.entries, (Quaternion(), Quaternion(PI), Quaternion(), Quaternion(PI)))

    def test_polynomial_constant_path(self, unit_i):
        model = SliceRegularPoly([Quaternion(), Quaternion(), Quaternion(1)])  # q**2
        g = representation_vector(model, constant_path(1.7), eta(1, unit_i))
        assert _close(g.entries, (Quaternion(1.7**2), Quaternion()), tol=1e-12)

    def test_rejects_dependent_matrix(self, unit_i):
        j = SliceUnitMatrix(2, tuple(eta(2, unit_i).rows[:1]) * 4)
        with pytest.raises(NotIndependent):
            representation_vector(SqrtModel(), beta_path(), j)

    def test_dependent_matrix_reports_its_margin(self, rng):
        rows = list(random_slice_unit_matrix(2, rng).rows)
        rows[3] = rows[1]  # two equal zeta rows: rank 3 of 4
        with pytest.raises(NotIndependent) as info:
            representation_vector(SqrtModel(), beta_path(), SliceUnitMatrix(2, tuple(rows)))
        assert info.value.rank == 3
        assert info.value.tolerance == RANK_CUTOFF
        assert 0.0 <= info.value.margin <= RANK_CUTOFF

    def test_rejects_order_mismatch(self, unit_i):
        with pytest.raises(LengthMismatch):
            representation_vector(SqrtModel(), beta_path(), eta(1, unit_i))


class TestFormulaEvaluation:
    def test_sqrt_beta_any_units(self, rng, unit_i):
        g = representation_vector(SqrtModel(), beta_path(), eta(2, unit_i))
        for _ in range(100):
            k1, k2 = random_imaginary_unit(rng), random_imaginary_unit(rng)
            value = evaluate_via_formula(g, (k1, k2))
            assert (value - quat_inverse(k2) * k1).norm() < 1e-9

    def test_log_beta_any_units(self, rng, unit_i):
        g = representation_vector(LogModel(), beta_path(), eta(2, unit_i))
        for _ in range(100):
            k1, k2 = random_imaginary_unit(rng), random_imaginary_unit(rng)
            assert (evaluate_via_formula(g, (k1, k2)) - (PI * k1 - PI * k2)).norm() < 1e-9

    def test_matches_direct_continuation(self, rng, unit_i):
        beta = beta_path()
        for model in (SqrtModel(), LogModel()):
            g = representation_vector(model, beta, eta(2, unit_i))
            for _ in range(100):
                units = (random_imaginary_unit(rng), random_imaginary_unit(rng))
                via_formula = evaluate_via_formula(g, units)
                direct = evaluate_lifted(model, beta, units)
                assert (via_formula - direct).norm() < 1e-9

    def test_length_mismatch(self, unit_i):
        g = representation_vector(SqrtModel(), beta_path(), eta(2, unit_i))
        with pytest.raises(LengthMismatch):
            evaluate_via_formula(g, (unit_i,))


class TestInvariance:
    def test_eta_i_vs_eta_j(self, unit_i, unit_j):
        assert invariance_check(SqrtModel(), beta_path(), eta(2, unit_i), eta(2, unit_j)) < 1e-8

    def test_row_permuted_reference(self, unit_i, rng):
        j = eta(2, unit_i)
        permuted = j.permute_rows(list(rng.permutation(4) + 1))
        assert invariance_check(LogModel(), beta_path(), j, permuted) < 1e-10

    def test_polynomial_model_trivial(self, rng, unit_i, unit_j):
        model = SliceRegularPoly([Quaternion(0, 0, 0, 1), Quaternion(1)])
        beta = beta_path()
        assert invariance_check(model, beta, eta(2, unit_i), eta(2, unit_j)) < 1e-10

    def test_fifty_random_references(self, rng, unit_i):
        beta = beta_path()
        reference = eta(2, unit_i)
        for model in (SqrtModel(), LogModel()):
            for _ in range(25):
                j = random_slice_unit_matrix(2, rng)
                assert invariance_check(model, beta, reference, j) < 1e-8

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(n=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1))
    def test_lift_invariance_beyond_two_parts(self, n, seed):
        # the N-part loop: out along the upper half circle to -1, back, out again, ...
        up = half_turns(1)
        loop = make_npart_path([up if k % 2 == 0 else up.reversed() for k in range(n)])
        j = random_slice_unit_matrix(n, np.random.default_rng(seed))
        for model in (SqrtModel(), LogModel()):
            assert invariance_check(model, loop, eta(n, UNIT_I), j) < 1e-8

    def test_eta_inverse_shortcut_agrees(self, rng):
        for n in (1, 2, 3):
            unit = random_imaginary_unit(rng)
            j = eta(n, unit)
            fast = eta_inverse(j)
            general = qmat_inverse(slice_matrix(j))
            assert (fast - general).max_norm() < 1e-10


class TestThreePartFormula:
    """End-to-end order-3 run: 8x8 unitary stack against direct continuation."""

    def _path(self):
        return make_npart_path([half_turns(2), half_turns(1), half_turns(1).reversed()])

    def test_formula_matches_direct(self, rng, unit_i):
        path = self._path()
        reference = eta(3, unit_i)
        for model in (SqrtModel(), LogModel()):
            g = representation_vector(model, path, reference)
            for _ in range(50):
                units = tuple(random_imaginary_unit(rng) for _ in range(3))
                via_formula = evaluate_via_formula(g, units)
                direct = evaluate_lifted(model, path, units)
                assert (via_formula - direct).norm() < 1e-9

    def test_invariance_against_random_reference(self, rng, unit_i, unit_j):
        path = self._path()
        dev = invariance_check(SqrtModel(), path, eta(3, unit_i), eta(3, unit_j))
        assert dev < 1e-8
        j = random_slice_unit_matrix(3, rng)
        assert invariance_check(LogModel(), path, eta(3, unit_i), j) < 1e-8

    def test_polynomial_round_trip(self, rng, unit_i):
        model = SliceRegularPoly(
            (Quaternion(0.5, 0, 0, 1), Quaternion(0, 1, 0, 0), Quaternion(1))
        )
        path = self._path()
        g = representation_vector(model, path, eta(3, unit_i))
        for _ in range(20):
            units = tuple(random_imaginary_unit(rng) for _ in range(3))
            via_formula = evaluate_via_formula(g, units)
            direct = evaluate_lifted(model, path, units)
            assert (via_formula - direct).norm() < 1e-10

    def test_mixed_junction_signs(self, rng, unit_i):
        # junction at -1, a full winding in place, then a backward half turn
        import math

        from slicekit.paths import Arc

        pi = math.pi
        path = make_npart_path(
            [Arc(0j, 1.0, 0.0, pi), Arc(0j, 1.0, pi, 3 * pi), Arc(0j, 1.0, 3 * pi, 2 * pi)]
        )
        for model in (SqrtModel(), LogModel()):
            g = representation_vector(model, path, eta(3, unit_i))
            for _ in range(25):
                units = tuple(random_imaginary_unit(rng) for _ in range(3))
                dev = (evaluate_via_formula(g, units) - evaluate_lifted(model, path, units)).norm()
                assert dev < 1e-9


class TestExtendability:
    def _setup(self, unit_i, unit_j):
        k = (4.0 * unit_i + 3.0 * unit_j) * (1.0 / 5.0)
        gamma1 = make_npart_path([half_turns(5)])
        gamma2 = make_npart_path([half_turns(4), half_turns(3)])
        return k, (gamma1, (k,)), (gamma2, (unit_i, unit_j))

    def test_sqrt_is_obstructed(self, unit_i, unit_j):
        k, route1, route2 = self._setup(unit_i, unit_j)
        report = extendability_check(SqrtModel(), [route1, route2], LogModel())
        assert report.verdict == "obstructed"
        w1, w2 = report.witness
        assert (w1 - k).norm() < 1e-9
        assert (w2 - (-unit_j)).norm() < 1e-9

    def test_log_is_extendable(self, unit_i, unit_j):
        k, route1, route2 = self._setup(unit_i, unit_j)
        report = extendability_check(LogModel(), [route1, route2], LogModel())
        assert report.verdict == "extendable"
        assert (report.values[0] - 5 * PI * k).norm() < 1e-9

    def test_single_route_trivially_extendable(self, unit_i, unit_j):
        _, route1, _ = self._setup(unit_i, unit_j)
        report = extendability_check(SqrtModel(), [route1], LogModel())
        assert report.verdict == "extendable"

    def test_distinct_points_rejected(self, unit_i, unit_j):
        _, route1, _ = self._setup(unit_i, unit_j)
        other = (make_npart_path([half_turns(1)]), (unit_i,))
        with pytest.raises(KeysDiffer) as differ:
            extendability_check(SqrtModel(), [route1, other], LogModel())
        model = LogModel()
        routes = (route1, other)
        expected = tuple(scalar_germ_key(model, per_lift_final_state(model, path, units)) for path, units in routes)
        assert differ.value.keys == expected

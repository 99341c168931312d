import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from slicekit.errors import (
    BranchPointCrossing,
    IncompatibleSupports,
    LengthMismatch,
    NonFiniteResult,
    OutOfDomain,
)
from slicekit.monodromy import LogModel, PolynomialModel, SqrtModel, continue_segment, final_states, lift_values
from slicekit.paths import Line, beta_path, constant_path, half_turns, make_npart_path
from slicekit.quat import I as UNIT_I
from slicekit.quat import Quaternion, quat_inverse, random_imaginary_unit
from slicekit.representation import evaluate_via_formula
from slicekit.sliceunits import eta
from slicekit.stemtensor import StemValue, apply_real_matrix, sigma_matrix
from slicekit.stems import (
    SampledStem,
    _grid_cr_residual,
    build_stem_system,
    stem_add,
    stem_cr_residual,
    stem_derivative_family,
    stem_from_slice,
    stem_star,
    system_from_json,
    system_to_json,
    truncation_lattice,
    validate_stem_system,
)
from slicekit.tolerances import BRANCH_TOL, DISK_RIM_TOL, FD_STEP

from oracles import (
    bits,
    grid_cr_residual_loop,
    interpolate_loop,
    per_lift_final_state,
    per_point_stem_family,
    scalar_derivative_value,
    scalar_value,
    strict_loads,
)

PI = math.pi


class TestStemFromSlice:
    def test_initial_profile(self):
        stem = stem_from_slice(SqrtModel(), constant_path(1.0), radius=0.5)
        column = stem.at(1.0 + 0j).entries
        assert (column[0] - Quaternion(1)).norm() < 1e-12
        assert column[1].norm() < 1e-12

    def test_sqrt_beta_center_value(self):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.5)
        expected = (Quaternion(), Quaternion(), Quaternion(-1), Quaternion())
        assert all((a - b).norm() < 1e-9 for a, b in zip(stem.at(1.0 + 0j).entries, expected))

    def test_log_beta_center_value(self):
        stem = stem_from_slice(LogModel(), beta_path(), radius=0.5)
        expected = (Quaternion(), Quaternion(PI), Quaternion(), Quaternion(PI))
        assert all((a - b).norm() < 1e-9 for a, b in zip(stem.at(1.0 + 0j).entries, expected))

    def test_disk_must_avoid_branch_point(self):
        with pytest.raises(BranchPointCrossing) as crossing:
            stem_from_slice(SqrtModel(), beta_path(), radius=1.1)
        # the disk reaches 0.1 past the origin; a disk must clear it by more than 0
        assert crossing.value.clearance == abs(beta_path().endpoint) - 1.1
        assert crossing.value.tolerance == 0.0

    def test_out_of_domain(self):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.4)
        with pytest.raises(OutOfDomain):
            stem.at(2.0 + 0j)

    @pytest.mark.parametrize(
        "model",
        [
            SqrtModel(),
            LogModel(),
            PolynomialModel((Quaternion(1, 0.5, 0, 0), Quaternion(0, 0, 2, 0), Quaternion(0.25, 0, 0, -1))),
        ],
        ids=["sqrt", "log", "poly"],
    )
    def test_zeroth_derivative_is_value_exactly(self, model):
        # the stem evaluator is the n = 0 case of the derivative family: the lifts' values are its order 0
        up = half_turns(1)
        for path in (beta_path(), make_npart_path([up, up.reversed(), up])):
            rows = eta(path.parts, UNIT_I).rows
            for row, value in zip(rows, lift_values(model, final_states(model, path, rows)).tolist()):
                state = per_lift_final_state(model, path, row)
                assert Quaternion(*value) == scalar_derivative_value(model, state, 0) == scalar_value(model, state)


class TestSliceFromStem:
    def test_recovers_monodromy_value(self, rng):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.5)
        for _ in range(20):
            k1, k2 = random_imaginary_unit(rng), random_imaginary_unit(rng)
            value = evaluate_via_formula(stem.at(1.0 + 0j), (k1, k2))
            assert (value - quat_inverse(k2) * k1).norm() < 1e-9

    def test_initial_stem_collapses_to_scalar(self, rng):
        stem = stem_from_slice(SqrtModel(), constant_path(1.0), radius=0.5)
        for _ in range(10):
            unit = random_imaginary_unit(rng)
            x = 1.0 + float(rng.uniform(-0.3, 0.3))
            value = evaluate_via_formula(stem.at(complex(x, 0.0)), (unit,))
            assert (value - Quaternion(math.sqrt(x))).norm() < 1e-10

    def test_first_eta_row_matches_direct_slice(self, unit_i):
        from slicekit.monodromy import evaluate_lifted

        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.5)
        z = 1.05 + 0.1j
        via_stem = evaluate_via_formula(stem.at(z), (unit_i, unit_i))
        direct = evaluate_lifted(SqrtModel(), beta_path().extend_to(z), (unit_i, unit_i))
        assert (via_stem - direct).norm() < 1e-9

    def test_unit_count_checked(self, unit_i):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.5)
        with pytest.raises(LengthMismatch):
            evaluate_via_formula(stem.at(1.0 + 0j), (unit_i,))


class TestCrResidual:
    def test_linear_stem_passes(self):
        # F(z) = (x*Id + y*sigma) c is stem holomorphic by construction
        entries = (Quaternion(0.3, 1, 0, 0), Quaternion(-0.2, 0, 1, 0), Quaternion(2), Quaternion(0, 0, 0, 1))
        c = StemValue(2, entries)
        sigma = sigma_matrix(2).astype(float)
        import numpy as np

        def linear(points):
            values = [apply_real_matrix(z.real * np.eye(4) + z.imag * sigma, c) for z in points]
            return np.array([[q.to_list() for q in v.entries] for v in values])

        stem = SampledStem(N=2, center=0j, radius=1.0, evaluator=linear)
        assert stem_cr_residual(stem, 0.2 + 0.1j) < 1e-6

    def test_model_stem_passes(self):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.5)
        assert stem_cr_residual(stem, 1.0 + 0j) < 1e-6
        assert stem_cr_residual(stem, 1.1 - 0.15j) < 1e-6

    def test_corrupted_stem_fails(self):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.5)

        def flip(_z, value):
            out = list(value.entries)
            out[1] = -out[1]
            return StemValue(value.N, tuple(out))

        assert stem_cr_residual(stem.map(flip), 1.0 + 0j) > 1e-2

    def test_rim_margin_enforced(self):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.4)
        with pytest.raises(OutOfDomain):
            stem_cr_residual(stem, 1.39999 + 0j)


class TestTruncationLattice:
    def test_junctions_and_extra_values(self):
        expected = [(0.0, False), (0.25, False), (0.5, False), (0.5, True), (0.75, False), (1.0, True)]
        assert truncation_lattice(2, (0.25, 0.75)) == expected

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, 1.0, 1.5, -3.0])
    def test_extra_value_outside_open_unit_interval_rejected(self, t):
        with pytest.raises(ValueError, match="extra truncation"):
            truncation_lattice(2, (0.25, t))
        with pytest.raises(ValueError, match="extra truncation"):
            build_stem_system(SqrtModel(), [("beta", beta_path())], radius=0.8, extra_truncations=(t,))


def _sqrt_system(extra=()):
    return build_stem_system(
        SqrtModel(), [("beta", beta_path())], radius=0.8, extra_truncations=extra
    )


class TestValidator:
    def test_sqrt_system_passes_all(self):
        report = validate_stem_system(_sqrt_system(extra=(0.25, 0.75)))
        assert report.passed
        holo = report.condition("holomorphy")
        assert holo.worst < 1e-6
        compat = report.condition("local-compatibility")
        assert compat.checked > 0  # the quarter truncations make overlaps real

    def test_sign_flip_breaks_only_holomorphy(self):
        system = _sqrt_system()
        entry = system.entry("beta[2/2-]")

        def flip(_z, value):
            out = list(value.entries)
            out[1] = -out[1]
            return StemValue(value.N, tuple(out))

        report = validate_stem_system(system.with_stem("beta[2/2-]", entry.stem.map(flip)))
        assert not report.condition("holomorphy").passed
        for name in ("local-compatibility", "axial-compatibility", "initial-compatibility"):
            assert report.condition(name).passed

    def test_dropped_padding_breaks_only_axial(self):
        system = _sqrt_system()
        entry = system.entry("beta[1/2]")

        def pollute(_z, value):
            out = list(value.entries)
            out[2] = out[2] + Quaternion(0.25)
            return StemValue(value.N, tuple(out))

        report = validate_stem_system(system.with_stem("beta[1/2]", entry.stem.map(pollute)))
        assert not report.condition("axial-compatibility").passed
        for name in ("holomorphy", "local-compatibility", "initial-compatibility"):
            assert report.condition(name).passed

    def test_initial_mismatch_breaks_only_initial(self):
        two = build_stem_system(
            SqrtModel(),
            [("beta", beta_path()), ("gamma", make_npart_path([half_turns(4), half_turns(3)]))],
            radius=0.8,
        )
        entry = two.entry("beta[0/2]")

        def shift(_z, value):
            out = list(value.entries)
            out[0] = out[0] + Quaternion(0.25)
            return StemValue(value.N, tuple(out))

        report = validate_stem_system(two.with_stem("beta[0/2]", entry.stem.map(shift)))
        assert not report.condition("initial-compatibility").passed
        for name in ("holomorphy", "local-compatibility", "axial-compatibility"):
            assert report.condition(name).passed

    def test_vacuous_overlaps_pass(self):
        report = validate_stem_system(_sqrt_system())
        assert report.condition("local-compatibility").passed

    def test_nan_residual_fails_holomorphy(self):
        system = _sqrt_system()
        entry = system.entry("beta[2/2-]")

        def poison(_z, value):
            out = list(value.entries)
            out[1] = Quaternion(math.nan)
            return StemValue(value.N, tuple(out))

        report = validate_stem_system(system.with_stem("beta[2/2-]", entry.stem.map(poison)))
        holomorphy = report.condition("holomorphy")
        assert not holomorphy.passed
        assert math.isnan(holomorphy.worst)

    def test_nan_grid_sample_fails_holomorphy(self):
        system = system_from_json(system_to_json(_sqrt_system()))
        stem = system.entry("beta[2/2-]").stem
        samples = stem.samples.copy()
        samples[5, 3, 1] = (math.nan, 0.0, 0.0, 0.0)
        poisoned = replace(stem, samples=samples)
        assert validate_stem_system(system).condition("holomorphy").passed
        holomorphy = validate_stem_system(system.with_stem("beta[2/2-]", poisoned)).condition("holomorphy")
        assert not holomorphy.passed
        assert math.isnan(holomorphy.worst)


class TestSystemAlgebra:
    def test_add_zero_system(self):
        base = _sqrt_system()
        zero = build_stem_system(PolynomialModel([Quaternion()]), [("beta", beta_path())], radius=0.8)
        summed = stem_add(base, zero)
        z = 1.1 + 0.2j
        a = base.entry("beta[2/2-]").stem.at(z)
        b = summed.entry("beta[2/2-]").stem.at(z)
        assert all((x - y).norm() < 1e-14 for x, y in zip(a.entries, b.entries))

    def test_identity_star_system(self):
        base = _sqrt_system()
        one = build_stem_system(PolynomialModel([Quaternion(1)]), [("beta", beta_path())], radius=0.8)
        product = stem_star(one, base)
        z = 0.9 - 0.1j
        a = base.entry("beta[2/2-]").stem.at(z)
        b = product.entry("beta[2/2-]").stem.at(z)
        assert all((x - y).norm() < 1e-12 for x, y in zip(a.entries, b.entries))

    def test_star_output_is_stem_holomorphic(self):
        base = _sqrt_system()
        log_sys = build_stem_system(LogModel(), [("beta", beta_path())], radius=0.8)
        product = stem_star(base, log_sys)
        stem = product.entry("beta[2/2-]").stem
        assert stem_cr_residual(stem, 1.0 + 0j) < 5e-6

    def test_distributivity(self):
        s1 = _sqrt_system()
        s2 = build_stem_system(LogModel(), [("beta", beta_path())], radius=0.8)
        s3 = build_stem_system(
            PolynomialModel([Quaternion(0, 1, 0, 0), Quaternion(1)]),
            [("beta", beta_path())],
            radius=0.8,
        )
        lhs = stem_star(stem_add(s1, s2), s3)
        rhs = stem_add(stem_star(s1, s3), stem_star(s2, s3))
        z = 1.2 + 0.3j
        a = lhs.entry("beta[2/2-]").stem.at(z)
        b = rhs.entry("beta[2/2-]").stem.at(z)
        assert all((x - y).norm() < 1e-10 for x, y in zip(a.entries, b.entries))

    def test_incompatible_supports_rejected(self):
        s1 = _sqrt_system()
        s2 = build_stem_system(SqrtModel(), [("beta", beta_path())], radius=0.7)
        with pytest.raises(IncompatibleSupports):
            stem_add(s1, s2)
        s3 = build_stem_system(SqrtModel(), [("other", beta_path())], radius=0.8)
        with pytest.raises(IncompatibleSupports):
            stem_star(s1, s3)


class TestStemHomomorphism:
    def test_vector_additivity(self, unit_i):
        from slicekit.representation import representation_vector

        f = PolynomialModel((Quaternion(0.5), Quaternion(0, 1, 0, 0), Quaternion(1)))
        g = PolynomialModel((Quaternion(0, 0, 0, 1), Quaternion(-2)))
        total = PolynomialModel(
            (
                Quaternion(0.5, 0, 0, 1),
                Quaternion(-2, 1, 0, 0),
                Quaternion(1),
            )
        )
        beta = beta_path()
        reference = eta(2, unit_i)
        gf = representation_vector(f, beta, reference)
        gg = representation_vector(g, beta, reference)
        gt = representation_vector(total, beta, reference)
        assert all(
            (a + b - c).norm() < 1e-12 for a, b, c in zip(gf.entries, gg.entries, gt.entries)
        )

    def test_star_collapses_to_product_at_real_points(self, rng):
        # pushing the star of two stems back to a slice at a real point
        # recovers the plain pointwise product there
        sqrt_sys = _sqrt_system()
        log_sys = build_stem_system(LogModel(), [("beta", beta_path())], radius=0.8)
        product = stem_star(sqrt_sys, log_sys)
        stem = product.entry("beta[2/2-]").stem
        for _ in range(20):
            unit = random_imaginary_unit(rng)
            x = float(rng.uniform(0.6, 1.6))
            value = evaluate_via_formula(stem.at(complex(x, 0.0)), (unit, unit))
            expected = Quaternion(math.sqrt(x) * math.log(x))
            assert (value - expected).norm() < 1e-8


class TestJsonRoundTrip:
    def test_values_survive(self):
        system = build_stem_system(
            SqrtModel(), [("beta", beta_path())], radius=0.5, grid=(9, 24)
        )
        restored = system_from_json(system_to_json(system))
        assert restored.labels() == system.labels()
        z = 1.05 + 0.1j
        original = system.entry("beta[2/2-]").stem.at(z)
        loaded = restored.entry("beta[2/2-]").stem.at(z)
        # closed-form and grid-backed stems both evaluate to the one column type
        assert isinstance(original, StemValue) and isinstance(loaded, StemValue)
        # bilinear interpolation on a 9x24 grid is only so sharp
        assert all((a - b).norm() < 5e-3 for a, b in zip(original.entries, loaded.entries))

    def test_grid_backed_validation(self):
        system = build_stem_system(
            SqrtModel(), [("beta", beta_path())], radius=0.5, grid=(9, 24)
        )
        restored = system_from_json(system_to_json(system))
        report = validate_stem_system(restored)
        # bilinear interpolation on a 9x24 grid is only so sharp: looser bounds than the closed-form ones
        bounds = {
            "holomorphy": 5e-2,
            "local-compatibility": 5e-3,
            "axial-compatibility": 5e-3,
            "initial-compatibility": 5e-3,
        }
        assert [c.name for c in report.conditions] == list(bounds)
        for condition in report.conditions:
            assert condition.worst <= bounds[condition.name], condition.name


# -- batched evaluation against the per-point references -----------------------

_POLY = PolynomialModel((Quaternion(1, 0.5, 0, 0), Quaternion(0, 0, 2, 0), Quaternion(0.25, 0, 0, -1)))
_MODELS = {"sqrt": SqrtModel(), "log": LogModel(), "poly": _POLY}


def _loop3():
    up = half_turns(1)
    return make_npart_path([up, up.reversed(), up])


def _disk_points(center: complex, radius: float) -> list[complex]:
    """Centre, a point within AT_CENTER_TOL of it, interior points and points on the rim."""
    points = [center, center + 1e-16, center + 0.3 * radius * 1j]
    for frac in (0.45, 1.0):
        for phi in (0.0, 1.0, math.pi / 2, math.pi, 4.0):
            points.append(center + frac * radius * complex(math.cos(phi), math.sin(phi)))
    return points


class TestBatchedEvaluator:
    @pytest.mark.parametrize("name", sorted(_MODELS))
    @pytest.mark.parametrize("path_name", ["beta", "loop3"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_family_matches_per_point_reference_bit_for_bit(self, name, path_name, n):
        model = _MODELS[name]
        path = beta_path() if path_name == "beta" else _loop3()
        family = stem_derivative_family(model, path, 0.8)
        reference = per_point_stem_family(model, path, 0.8)
        points = _disk_points(path.endpoint, 0.8)
        batched = family(points, n)
        assert batched.shape == (len(points), 1 << path.parts, 4)
        for z, column in zip(points, (StemValue(path.parts, v) for v in batched)):
            assert bits(column.entries) == bits(reference(z, n).entries), z
        # a point's value does not depend on the batch it is evaluated in
        assert bits(stem_from_slice(model, path, 0.8).at(points[7]).entries) == bits(reference(points[7]).entries)

    def test_polynomial_restart_through_the_origin_matches_reference(self):
        # a disk of radius 1.5 at 1 holds the origin: closing lines through it restart from the principal argument
        stem = stem_from_slice(_POLY, beta_path(), 1.5)
        reference = per_point_stem_family(_POLY, beta_path(), 1.5)
        rim = 1.0 + 1.0 * complex(math.cos(math.pi), math.sin(math.pi))
        points = [1.0 - 1.0 + 0j, -0.5 + 0j, complex(-0.5, -0.0), rim]
        for z, column in zip(points, (StemValue(2, v) for v in stem.values(points))):
            assert bits(column.entries) == bits(reference(z).entries), z

    @pytest.mark.parametrize("name", sorted(_MODELS))
    def test_export_grid_matches_per_point_reference(self, name):
        model = _MODELS[name]
        stem = stem_from_slice(model, _loop3(), 0.8, grid=(5, 12))
        reference = per_point_stem_family(model, _loop3(), 0.8)
        grid = stem.sample_grid()
        assert grid.shape == (5, 12, 8, 4)
        for k in range(5):
            r = 0.8 * k / 4
            for l in range(12):
                phi = 2 * math.pi * l / 12
                expected = reference(stem.center + r * complex(math.cos(phi), math.sin(phi)))
                assert bits(StemValue(3, grid[k, l]).entries) == bits(expected.entries)

    def test_cr_residuals_match_one_point_calls(self):
        stem = stem_from_slice(LogModel(), _loop3(), 0.8)
        probes = [stem.center, stem.center + 0.3 + 0.2j, stem.center - 0.5j]
        one_by_one = []
        for z in probes:
            fx = (stem.at(z + FD_STEP) - stem.at(z - FD_STEP)).scale(0.5 / FD_STEP)
            fy = (stem.at(z + FD_STEP * 1j) - stem.at(z - FD_STEP * 1j)).scale(0.5 / FD_STEP)
            one_by_one.append((fx + apply_real_matrix(sigma_matrix(3), fy)).max_norm())
        assert [stem_cr_residual(stem, z) for z in probes] == one_by_one

    def test_disk_within_branch_tol_of_the_origin_raises_at_the_rim(self):
        # the disk clears the origin by 5e-10 <= BRANCH_TOL: the rim point at angle pi crosses
        radius = 1.0 - 5e-10
        stem = stem_from_slice(SqrtModel(), beta_path(), radius, grid=(3, 8))
        rim = stem.center + radius * complex(math.cos(math.pi), math.sin(math.pi))
        with pytest.raises(BranchPointCrossing) as crossing:
            stem.sample_grid()
        with pytest.raises(BranchPointCrossing) as scalar:
            states = final_states(SqrtModel(), beta_path(), [eta(2, UNIT_I).rows[0]])
            continue_segment(SqrtModel(), states, Line(stem.center, rim))
        assert 0.0 < abs(stem.center) - radius <= BRANCH_TOL
        assert crossing.value.point == rim
        assert (crossing.value.clearance, crossing.value.tolerance) == (scalar.value.clearance, BRANCH_TOL)
        assert str(crossing.value) == str(scalar.value)
        with pytest.raises(BranchPointCrossing):
            stem.at(rim)
        assert stem.at(stem.center + 0.5 * radius).N == 2  # points whose lines stay clear still evaluate

    def test_empty_batch(self):
        stem = stem_from_slice(SqrtModel(), beta_path(), 0.8)
        assert stem.values([]).shape == (0, 4, 4)


class TestGridResidual:
    @pytest.mark.parametrize("name", sorted(_MODELS))
    @pytest.mark.parametrize("path_name", ["beta", "loop3"])
    def test_array_residual_matches_neighbour_loop(self, name, path_name):
        path = beta_path() if path_name == "beta" else _loop3()
        model = _MODELS[name]
        system = build_stem_system(model, [(path_name, path)], radius=0.8, grid=(6, 16), extra_truncations=(0.8,))
        restored = system_from_json(system_to_json(system))
        for entry in restored.entries:
            assert _grid_cr_residual(entry.stem).hex() == grid_cr_residual_loop(entry.stem).hex(), entry.label

    def test_nan_sample_poisons_both(self):
        restored = system_from_json(system_to_json(_sqrt_system()))
        stem = restored.entry("beta[2/2-]").stem
        samples = stem.samples.copy()
        samples[5, 3, 1] = (math.nan, 0.0, 0.0, 0.0)
        poisoned = replace(stem, samples=samples)
        assert math.isnan(_grid_cr_residual(poisoned)) and math.isnan(grid_cr_residual_loop(poisoned))


def _grid_stem(name: str, path_name: str, grid: tuple[int, int]) -> SampledStem:
    """The grid-backed stem a reload gives for one closed-form stem of radius 0.8."""
    path = beta_path() if path_name == "beta" else _loop3()
    stem = stem_from_slice(_MODELS[name], path, 0.8, grid=grid)
    return SampledStem(N=stem.N, center=stem.center, radius=stem.radius, samples=stem.sample_grid())


def _interpolation_points(stem: SampledStem) -> list[complex]:
    """The centre, rim points on the clamp, angles on both sides of the wrap, every grid node and interior points."""
    n_r, n_a = stem.grid
    c, radius = stem.center, stem.radius
    rim = radius * (1 + DISK_RIM_TOL)
    points = [c, c + rim, c - rim, c + rim * 1j, c + rim * complex(math.cos(2.5), math.sin(2.5))]
    wrap = 2 * math.pi / n_a
    for frac in (0.2, 0.55, 1.0):  # the last sector: l = n_a - 1 and l2 = 0
        for phi in (-1e-9, -0.5 * wrap, -0.999 * wrap, 2 * math.pi - 0.25 * wrap):
            points.append(c + frac * radius * complex(math.cos(phi), math.sin(phi)))
    points.append(complex(c.real + 0.3 * radius, -0.0))  # phi = atan2(-0.0, x) = -0.0
    for k in range(n_r):
        for l in range(n_a):
            phi = 2 * math.pi * l / n_a
            points.append(c + radius * k / (n_r - 1) * complex(math.cos(phi), math.sin(phi)))
    for frac, phi in ((0.13, 0.7), (0.41, 2.2), (0.77, 3.9), (0.93, 5.1), (0.999, 6.0)):
        points.append(c + frac * radius * complex(math.cos(phi), math.sin(phi)))
    return points


def _hex(values: np.ndarray) -> list[str]:
    return [float(v).hex() for v in values.ravel()]


class TestInterpolation:
    @pytest.mark.parametrize("name", sorted(_MODELS))
    @pytest.mark.parametrize("path_name", ["beta", "loop3"])
    @pytest.mark.parametrize("grid", [(17, 64), (9, 24)])
    def test_gather_matches_the_corner_loop_bit_for_bit(self, name, path_name, grid):
        stem = _grid_stem(name, path_name, grid)
        points = _interpolation_points(stem)
        expected = [bits(v.entries) for v in interpolate_loop(stem, points)]
        values = stem.values(points)
        assert values.shape == (len(points), 1 << stem.N, 4)
        assert [bits(StemValue(stem.N, v).entries) for v in values] == expected
        assert _hex(values) == [h for column in expected for entry in column for h in entry]

    @pytest.mark.parametrize("path_name", ["beta", "loop3"])
    def test_poisoned_and_signed_zero_samples(self, path_name):
        stem = _grid_stem("sqrt", path_name, (9, 24))
        samples = stem.samples.copy()
        samples[3, 5, 1] = (math.nan, 0.0, -0.0, 1.0)
        samples[5:7, 10:12] = -0.0  # four corners of one cell, every entry -0.0: the sum from +0.0 stays +0.0
        samples[6:8, 23, 0] = -1.0
        samples[6:8, 0, 0] = -0.0  # a cell across the angle wrap
        poisoned = replace(stem, samples=samples)
        n_a = 24
        cell = [(3, 5), (5.5, 10.5), (6.5, 23.5), (3.25, 4.75), (2.5, 5.5)]
        points = _interpolation_points(poisoned) + [
            poisoned.center + 0.8 * k / 8 * complex(math.cos(2 * math.pi * l / n_a), math.sin(2 * math.pi * l / n_a))
            for k, l in cell
        ]
        values = poisoned.values(points)
        expected = interpolate_loop(poisoned, points)
        assert _hex(values) == [h for v in expected for entry in bits(v.entries) for h in entry]
        assert np.isnan(values).any() and (np.signbit(values) & (values == 0.0)).sum() == 0

    def test_empty_batch_and_no_samples(self):
        stem = _grid_stem("log", "beta", (3, 4))
        assert stem.values([]).shape == (0, 4, 4)
        with pytest.raises(OutOfDomain):
            SampledStem(N=2, center=1.0 + 0j, radius=0.5).values([1.0 + 0j])


class TestNanDiskPoint:
    """A disk point with a NaN part is outside every disk: OutOfDomain names it."""

    POINTS = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.nan)]

    @pytest.mark.parametrize("offset", POINTS)
    def test_closed_form_stem(self, offset):
        stem = stem_from_slice(SqrtModel(), beta_path(), radius=0.8)
        with pytest.raises(OutOfDomain, match="nan"):
            stem.values([stem.center, stem.center + offset])
        with pytest.raises(OutOfDomain, match="nan"):
            stem_cr_residual(stem, stem.center + offset)

    @pytest.mark.parametrize("offset", POINTS)
    def test_grid_stem(self, offset):
        stem = _grid_stem("log", "beta", (9, 24))
        with pytest.raises(OutOfDomain, match="nan"):
            stem.values([stem.center + offset])
        with pytest.raises(OutOfDomain, match="nan"):
            stem_cr_residual(stem, stem.center + offset)


class TestReloadContract:
    """The reload holds exactly what the file stores, as one frozen float64 array per stem."""

    @pytest.mark.parametrize("name", ["sqrt", "log"])
    @pytest.mark.parametrize("path_name", ["beta", "loop3"])
    def test_reload_holds_the_file_bit_for_bit(self, name, path_name):
        path = beta_path() if path_name == "beta" else _loop3()
        extra = (0.25, 0.75) if path_name == "beta" else (0.5, 0.8)
        system = build_stem_system(_MODELS[name], [(path_name, path)], radius=0.8, extra_truncations=extra)
        text = system_to_json(system)
        restored = system_from_json(text)
        stored = json.loads(text)["samples"]
        assert len(stored) == len(restored.entries)
        for sample, entry in zip(stored, restored.entries):
            expected = np.asarray(sample, dtype=np.float64)
            samples = entry.stem.samples
            assert samples.dtype == np.float64 and samples.flags.c_contiguous and not samples.flags.writeable
            assert entry.stem.grid == expected.shape[:2] == (17, 64)
            assert np.array_equal(samples.view(np.uint64), expected.view(np.uint64))
            rows = np.array([[[q.to_list() for q in col] for col in row] for row in entry.stem.grid_samples])
            assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
            with pytest.raises(ValueError):
                samples[0, 0, 0, 0] = 1.0

    def test_constructor_copies_and_freezes(self):
        stem = _grid_stem("sqrt", "beta", (3, 4))
        source = stem.samples.copy()
        frozen = replace(stem, samples=source)
        source[0, 0, 0, 0] = 7.0
        assert frozen.samples[0, 0, 0, 0] == stem.samples[0, 0, 0, 0] and not frozen.samples.flags.writeable
        with pytest.raises(ValueError):
            replace(stem, samples=source[:, :, :2])

    @staticmethod
    def _document():
        system = build_stem_system(SqrtModel(), [("beta", beta_path())], radius=0.5, grid=(3, 4))
        return json.loads(system_to_json(system))

    @pytest.mark.parametrize(
        "kind, big",
        [
            ("i", [2**53 + 1, -(2**62) - 3, 0, -7]),  # the first two round on the way to float
            ("u", [2**63, 2**63 + 1, 2**63 + 2**11 + 1, 2**64 - 8]),
            ("O", [10**30, -(10**30), 0.5, 2**64 + 1]),  # beyond every integer dtype, floats among them
        ],
        ids=["int64", "2**63", "10**30"],
    )
    def test_integer_grid_reloads_as_its_float_twin(self, kind, big):
        data = self._document()
        data["samples"] = [
            [[[[big[(k + l + m) % 4] + c for c in range(4)] for m in range(len(col))] for l, col in enumerate(row)]
             for k, row in enumerate(sample)]
            for sample in data["samples"]
        ]  # fmt: skip
        assert np.array(data["samples"][0]).dtype.kind == kind
        twin = json.loads(json.dumps(data))
        twin["samples"] = [[[[list(map(float, q)) for q in col] for col in row] for row in g] for g in data["samples"]]
        from_ints = system_from_json(json.dumps(data))
        from_floats = system_from_json(json.dumps(twin))
        for a, b in zip(from_ints.entries, from_floats.entries):
            assert a.stem.samples.dtype == np.float64
            assert np.array_equal(a.stem.samples.view(np.uint64), b.stem.samples.view(np.uint64))

    @pytest.mark.parametrize("big", [2**63, 10**30], ids=["2**63", "10**30"])
    @pytest.mark.parametrize(
        "entry",
        [True, False, "1.0", None, math.nan, math.inf, 10**400, {"w": 1}],
        ids=["true", "false", "string", "null", "nan", "inf", "10**400", "object"],
    )
    def test_wide_integer_grid_still_rejects_non_numbers(self, big, entry):
        data = self._document()
        grid = [[[[big] * 4 for _ in col] for col in row] for row in data["samples"][0]]
        grid[2][1][1][0] = entry  # the array is object, or uint64 with a bool among 2**63
        data["samples"][0] = grid
        with pytest.raises(ValueError):
            system_from_json(json.dumps(data))

    @pytest.mark.parametrize("at", [(0, 0, 0, 0), (2, 1, 1, 3)], ids=["first", "inner"])
    @pytest.mark.parametrize("entry", [True, False], ids=["true", "false"])
    @pytest.mark.parametrize("numbers", ["floats", "int64"])
    def test_bool_among_numbers_is_a_value_error(self, numbers, entry, at):
        # np.array reads a bool among floats or int64 integers as 1.0 or 0.0: every leaf is checked
        data = self._document()
        grid = data["samples"][0]
        if numbers == "int64":
            grid = [[[[k - 2**40 for k in range(4)] for _ in col] for col in row] for row in grid]
        k, l, m, c = at
        grid[k][l][m][c] = entry
        data["samples"][0] = grid
        with pytest.raises(ValueError, match="stem grid"):
            system_from_json(json.dumps(data))

    @pytest.mark.parametrize("entry", [True, "1.0", None, 10**400])
    def test_grid_of_non_floats_is_a_value_error(self, entry):
        data = self._document()
        data["samples"][0] = [[[[entry] * 4 for _ in col] for col in row] for row in data["samples"][0]]
        with pytest.raises(ValueError):
            system_from_json(json.dumps(data))

    def test_non_finite_grid_is_not_exported(self):
        system = system_from_json(system_to_json(_sqrt_system()))
        stem = system.entry("beta[1/2]").stem
        samples = stem.samples.copy()
        samples[2, 7, 0, 3] = math.inf
        with pytest.raises(NonFiniteResult) as caught:
            system_to_json(system.with_stem("beta[1/2]", replace(stem, samples=samples)))
        assert caught.value.index == system.labels().index("beta[1/2]")
        assert "beta[1/2]" in str(caught.value)

    def test_reload_and_validation_build_no_quaternion(self, monkeypatch):
        text = system_to_json(_sqrt_system(extra=(0.25,)))
        built = []
        original = Quaternion.__init__

        def counting(self, *args):
            built.append(1)
            original(self, *args)

        monkeypatch.setattr(Quaternion, "__init__", counting)
        system = system_from_json(text)
        validate_stem_system(system)
        assert len(built) == 0


class TestExportIsExact:
    """The file holds every sample bit for bit, as strict JSON."""

    SPECIALS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e16, 1e22, 1.7976931348623157e308)

    @pytest.mark.parametrize("name", sorted(_MODELS))
    @pytest.mark.parametrize("path_name", ["beta", "loop3"])
    def test_export_holds_the_sampled_grid(self, name, path_name):
        path = beta_path() if path_name == "beta" else _loop3()
        system = build_stem_system(_MODELS[name], [(path_name, path)], radius=0.8, extra_truncations=(0.8,))
        text = system_to_json(system)
        assert isinstance(text, str)
        stored = strict_loads(text)["samples"]
        assert len(stored) == len(system.entries)
        for sample, entry in zip(stored, system.entries):
            grid = entry.stem.sample_grid()
            exported = np.array(sample, dtype=np.float64)
            assert exported.shape == grid.shape and np.array_equal(exported.view(np.uint64), grid.view(np.uint64))

    def test_extreme_numbers_export_and_reload_bit_for_bit(self):
        system = system_from_json(system_to_json(_sqrt_system()))
        values = np.array(self.SPECIALS + tuple(-x for x in self.SPECIALS))
        for index, entry in enumerate(system.entries):
            samples = np.roll(np.resize(values, entry.stem.samples.size), index).reshape(entry.stem.samples.shape)
            system = system.with_stem(entry.label, replace(entry.stem, samples=samples))
        text = system_to_json(system)
        restored = system_from_json(text)
        for sample, before, after in zip(strict_loads(text)["samples"], system.entries, restored.entries):
            expected = before.stem.samples.view(np.uint64)
            assert np.array_equal(np.array(sample, dtype=np.float64).view(np.uint64), expected)
            assert np.array_equal(after.stem.samples.view(np.uint64), expected)
        assert (np.signbit(restored.entries[0].stem.samples) & (restored.entries[0].stem.samples == 0.0)).any()
        assert system_to_json(restored) == text  # a reload exports the file it was read from


class TestStemLabels:
    def test_nearby_extra_truncations_get_distinct_labels(self):
        system = build_stem_system(
            SqrtModel(), [("beta", beta_path())], radius=0.8, extra_truncations=(0.25, 0.25000000000000006)
        )
        labels = system.labels()
        assert len(set(labels)) == len(labels)
        assert "beta[0.25]" in labels and "beta[0.25000000000000006]" in labels

    def test_extra_truncation_on_a_junction_is_that_junction(self):
        plain = build_stem_system(SqrtModel(), [("beta", beta_path())], radius=0.8)
        for t in (0.5000000000001, 0.4999999999999):
            system = build_stem_system(SqrtModel(), [("beta", beta_path())], radius=0.8, extra_truncations=(t,))
            assert system.labels() == plain.labels()
        assert truncation_lattice(2, (1 - 1e-13, 1e-13)) == truncation_lattice(2)

    def test_short_labels_unchanged(self):
        system = build_stem_system(
            SqrtModel(), [("beta", beta_path())], radius=0.8, extra_truncations=(0.3467, 0.123456, 0.00001234)
        )
        assert system.labels() == (
            "beta[0/2]", "beta[1.234e-05]", "beta[0.123456]", "beta[0.3467]", "beta[1/2]", "beta[1/2-]", "beta[2/2-]",
        )  # fmt: skip


class TestSystemFromJsonBoundary:
    @staticmethod
    def _document():
        system = build_stem_system(SqrtModel(), [("beta", beta_path())], radius=0.5, grid=(3, 4))
        return json.loads(system_to_json(system))

    def test_document_round_trips(self):
        data = self._document()
        restored = system_from_json(json.dumps(data))
        assert len(restored.entries) == len(data["paths"])
        assert restored.entries[0].stem.grid == (3, 4)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["radii"].pop(),
            lambda d: d["samples"].pop(),
            lambda d: d["paths"].pop(),
            lambda d: d.pop("samples"),
            lambda d: d["radii"].__setitem__(0, math.nan),
            lambda d: d["radii"].__setitem__(0, -0.5),
            lambda d: d["radii"].__setitem__(0, "0.5"),
            lambda d: d["samples"].__setitem__(0, d["samples"][0][:2]),
            lambda d: d["samples"].__setitem__(0, [row[:2] for row in d["samples"][0]]),
            lambda d: d["samples"][0][1].pop(),
            lambda d: d["samples"][0][1][2].pop(),
            lambda d: d["samples"][0][1][2][0].pop(),
            lambda d: d["samples"][0][1][2][0].__setitem__(3, None),
            lambda d: d["samples"][0][1][2][0].__setitem__(3, math.inf),
            lambda d: d["samples"][0][1][2][0].__setitem__(3, "0.5"),
            lambda d: d["samples"][0][1][2][0].__setitem__(3, 10**400),
            lambda d: d["samples"][0][1][2].__setitem__(0, {"w": 1}),
            lambda d: d["paths"].__setitem__(0, []),
            lambda d: d["paths"][0].pop("label"),
            lambda d: d["paths"][0].__setitem__("segments", []),
            lambda d: d["paths"][0].__setitem__("closed", 0),
            lambda d: d["paths"][0].__setitem__("t", None),
            lambda d: d["paths"][1].__setitem__("label", d["paths"][0]["label"]),
            lambda d: d.pop("x0"),
            lambda d: d["paths"][0].__setitem__("t", 7.5),
            lambda d: d["paths"][0].__setitem__("t", -0.5),
            # the whole path with its second arc's centre moved: disconnected, centred where no continuation reaches
            lambda d: d["paths"][3]["segments"][1].__setitem__("center", [5, 3]),
            # both arcs meet at i: connected, but the junction is off the real axis
            lambda d: [s.__setitem__(k, math.pi / 2) for s, k in zip(d["paths"][3]["segments"], ("theta1", "theta0"))],
            # the anchor without its whole path: the validator has no t = 1 entry to compare against
            lambda d: [d[key].pop(3) for key in ("paths", "radii", "samples")],
        ],
    )
    def test_malformed_document_is_a_value_error(self, corrupt):
        data = self._document()
        corrupt(data)
        with pytest.raises(ValueError):
            system_from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda d: d["paths"][0].__setitem__("t", 7.5), "beta[0/2]"),
            (lambda d: d["paths"][3]["segments"][1].__setitem__("center", [5, 3]), "beta[2/2-]"),
            (lambda d: [d[key].pop(3) for key in ("paths", "radii", "samples")], "'beta'"),
        ],
    )
    def test_path_errors_name_the_label(self, corrupt, named):
        data = self._document()
        assert data["paths"][3]["label"] == "beta[2/2-]" and data["paths"][3]["t"] == 1.0
        corrupt(data)
        with pytest.raises(ValueError, match=re.escape(named)):
            system_from_json(json.dumps(data))

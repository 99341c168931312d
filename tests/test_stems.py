import math
from dataclasses import replace

import pytest

from slicekit.errors import (
    BranchPointCrossing,
    IncompatibleSupports,
    LengthMismatch,
    OutOfDomain,
)
from slicekit.monodromy import LogModel, PolynomialModel, SqrtModel, final_state
from slicekit.paths import beta_path, constant_path, half_turns, make_npart_path
from slicekit.quat import I as UNIT_I
from slicekit.quat import Quaternion, quat_inverse, random_imaginary_unit
from slicekit.representation import evaluate_via_formula
from slicekit.sliceunits import eta
from slicekit.stemtensor import StemValue, apply_real_matrix, sigma_matrix
from slicekit.stems import (
    SampledStem,
    build_stem_system,
    stem_add,
    stem_cr_residual,
    stem_from_slice,
    stem_star,
    system_from_json,
    system_to_json,
    truncation_lattice,
    validate_stem_system,
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
        # the stem evaluator is the n = 0 case of the derivative family
        up = half_turns(1)
        for path in (beta_path(), make_npart_path([up, up.reversed(), up])):
            for row in eta(path.parts, UNIT_I).rows:
                state = final_state(model, path, row)
                assert model.derivative_value(state, 0) == model.value(state)


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

        def linear(z):
            return apply_real_matrix(z.real * np.eye(4) + z.imag * sigma, c)

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
        rows = [list(row) for row in stem.grid_samples]
        column = list(rows[5][3])
        column[1] = Quaternion(math.nan)
        rows[5][3] = tuple(column)
        poisoned = replace(stem, grid_samples=tuple(tuple(row) for row in rows))
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

"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines, or `slicekit check --suite all` for the CLI equivalent.
"""

import math
import time

import numpy as np

from slicekit import calculus, checks, monodromy, representation, stems, stemtensor
from slicekit.paths import Line, beta_path, half_turns, make_npart_path
from slicekit.qmat import QuaternionMatrix, qmat_mul
from slicekit.quat import Quaternion, quat_inverse, random_imaginary_unit
from slicekit.sliceunits import (
    eta,
    full_slice_rank_permutation,
    has_full_slice_rank,
    random_slice_unit_matrix,
    slice_diag,
    slice_matrix,
)
from slicekit.stemtensor import StemValue, apply_real_matrix, sigma_matrix, star_vector

PI = math.pi
SEED = 20260810


def _rng():
    return np.random.default_rng(SEED)


def _report(name: str, deviation: float, tolerance: float) -> None:
    status = "PASS" if deviation <= tolerance else "FAIL"
    print(f"ACCEPTANCE {status} {name}: deviation={deviation:.3e} tolerance={tolerance:.1e}")
    assert deviation <= tolerance


def test_criterion_01_unitarity():
    rng = _rng()
    started = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(50):
            unit = random_imaginary_unit(rng)
            m = slice_matrix(eta(n, unit)).scale(2.0 ** (-n / 2))
            residual = qmat_mul(m, m.conj_transpose()) - QuaternionMatrix.identity(1 << n)
            worst = max(worst, residual.max_norm())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"unitarity sweep took {elapsed:.2f}s"
    _report("01-unitarity", worst, 1e-10)


def test_criterion_02_sqrt_monodromy():
    rng = _rng()
    beta = beta_path()
    model = monodromy.SqrtModel()
    worst = 0.0
    for _ in range(100):
        k1, k2 = random_imaginary_unit(rng), random_imaginary_unit(rng)
        value = monodromy.evaluate_lifted(model, beta, (k1, k2))
        worst = max(worst, (value - quat_inverse(k2) * k1).norm())
    _report("02-sqrt-monodromy", worst, 1e-9)


def test_criterion_03_log_monodromy():
    rng = _rng()
    beta = beta_path()
    model = monodromy.LogModel()
    worst = 0.0
    for _ in range(100):
        k1, k2 = random_imaginary_unit(rng), random_imaginary_unit(rng)
        value = monodromy.evaluate_lifted(model, beta, (k1, k2))
        worst = max(worst, (value - (PI * k1 - PI * k2)).norm())
    _report("03-log-monodromy", worst, 1e-9)


def test_criterion_04_representation_vectors():
    beta = beta_path()
    reference = eta(2, Quaternion(0, 1, 0, 0))
    g_sqrt = representation.representation_vector(monodromy.SqrtModel(), beta, reference)
    g_log = representation.representation_vector(monodromy.LogModel(), beta, reference)
    expected_sqrt = (Quaternion(), Quaternion(), Quaternion(-1), Quaternion())
    expected_log = (Quaternion(), Quaternion(PI), Quaternion(), Quaternion(PI))
    worst = max(
        max((a - b).norm() for a, b in zip(g_sqrt.entries, expected_sqrt)),
        max((a - b).norm() for a, b in zip(g_log.entries, expected_log)),
    )
    _report("04-representation-vectors", worst, 1e-9)


def test_criterion_05_j_invariance():
    rng = _rng()
    beta = beta_path()
    reference = eta(2, Quaternion(0, 1, 0, 0))
    worst = 0.0
    for _ in range(50):
        j = random_slice_unit_matrix(2, rng)
        for model in (monodromy.SqrtModel(), monodromy.LogModel()):
            worst = max(worst, representation.invariance_check(model, beta, reference, j))
    _report("05-j-invariance", worst, 1e-8)


def test_criterion_06_non_extendability():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = (4.0 * i + 3.0 * j) * (1.0 / 5.0)
    gamma1 = make_npart_path([half_turns(5)])
    gamma2 = make_npart_path([half_turns(4), half_turns(3)])
    log_model = monodromy.LogModel()
    key1 = monodromy.germ_key(log_model, monodromy.final_state(log_model, gamma1, (k,)))
    key2 = monodromy.germ_key(log_model, monodromy.final_state(log_model, gamma2, (i, j)))
    key_dev = max(
        (key1.point - key2.point).norm(),
        (key1.value - key2.value).norm(),
        (key1.value - 5 * PI * k).norm(),
        (key2.value - 5 * PI * k).norm(),
    )
    report = representation.extendability_check(
        monodromy.SqrtModel(), [(gamma1, (k,)), (gamma2, (i, j))], log_model
    )
    assert report.verdict == "obstructed"
    w1, w2 = report.witness
    witness_dev = max((w1 - k).norm(), (w2 - (-j)).norm())
    _report("06-non-extendability", max(key_dev, witness_dev), 1e-9)


def test_criterion_07_star_oracle():
    rng = _rng()
    worst = 0.0
    for n in (1, 2):
        for _ in range(100):
            a = StemValue(n, tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(1 << n)))
            b = StemValue(n, tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(1 << n)))
            worst = max(worst, (star_vector(a, b) - stemtensor.oracle_star(a, b)).max_norm())
            padded = StemValue.padded(a).star(StemValue.padded(b))
            assert padded == StemValue.padded(a.star(b)), "zero-padding law must hold exactly"
    _report("07-star-oracle", worst, 1e-12)


def test_criterion_08_structure_identities():
    rng = _rng()
    worst = 0.0
    for n in range(1, 5):
        sigma = sigma_matrix(n)
        minus_identity = -np.eye(1 << n, dtype=np.int64)
        assert np.array_equal(sigma @ sigma, minus_identity), "sigma squared must be minus identity exactly"
        slot = stemtensor.slot_imaginary(n, n)
        for m in range(1, (1 << n) + 1):
            basis = StemValue.basis(n, m)
            via_mul = star_vector(slot, basis)
            via_sigma = apply_real_matrix(sigma, basis)
            assert (via_mul - via_sigma).max_norm() == 0.0, "basis relation must be exact"
    for n in (1, 2, 3):
        j = eta(n, random_imaginary_unit(rng))
        m = slice_matrix(j)
        lhs = qmat_mul(slice_diag(j), m)
        sigma_t = sigma_matrix(n).T
        rows = [apply_real_matrix(sigma_t, StemValue(n, m.row(r))).entries for r in range(m.rows)]
        rhs = QuaternionMatrix(m.rows, m.cols, [q for row in rows for q in row])
        worst = max(worst, (lhs - rhs).max_norm())
    _report("08-structure-identities", worst, 1e-12)


def test_criterion_09_permutation_algorithm():
    rng = _rng()
    failures = 0
    for n in (2, 3):
        base = eta(n, random_imaginary_unit(rng))
        for _ in range(50):
            shuffled = base.permute_rows(list(rng.permutation(1 << n) + 1))
            perm = full_slice_rank_permutation(shuffled)
            if not has_full_slice_rank(shuffled.permute_rows(perm)):
                failures += 1
    _report("09-permutation-algorithm", float(failures), 0.0)


def test_criterion_10_ring_identities():
    rng = _rng()
    worst_group = 0.0
    for _ in range(100):
        f = _random_poly(rng, int(rng.integers(0, 5)))
        g = _random_poly(rng, int(rng.integers(0, 5)))
        assert calculus.star_product(calculus.ONE_POLY, f).coefficients == f.coefficients
        fg = calculus.star_product(f, g)
        worst_group = max(
            worst_group,
            _coeff_distance(
                calculus.regular_conjugate(fg),
                calculus.star_product(calculus.regular_conjugate(g), calculus.regular_conjugate(f)),
            ),
            _coeff_distance(
                calculus.symmetrization(fg), calculus.symmetrization(calculus.star_product(g, f))
            ),
        )
        q = Quaternion(*rng.uniform(-1, 1, 4))
        pointwise = calculus.symmetrization(f)(q) * calculus.symmetrization(g)(q)
        worst_group = max(worst_group, (calculus.symmetrization(fg)(q) - pointwise).norm())
    reciprocal_f = calculus.SliceRegularPoly((Quaternion(0, -1, 0, 0), Quaternion(1)))
    domain = calculus.AxSymDomain.ball(3.0, 1.0)
    reciprocal = calculus.regular_reciprocal(reciprocal_f, domain)
    for q in domain.sample(rng, 100):
        value = calculus.star_eval(reciprocal, reciprocal_f, q)
        worst_group = max(worst_group, (value - Quaternion(1)).norm())
    worst_leibniz = 0.0
    for _ in range(25):
        f = _random_poly(rng, int(rng.integers(0, 6)))
        g = _random_poly(rng, int(rng.integers(0, 6)))
        for n in range(5):
            worst_leibniz = max(
                worst_leibniz,
                _coeff_distance(
                    calculus.slice_derivative(calculus.star_product(f, g), n),
                    calculus.leibniz(f, g, n),
                ),
            )
    _report("10a-ring-identities", worst_group, 1e-8)
    _report("10b-leibniz", worst_leibniz, 1e-10)


def test_criterion_11_series():
    rng = _rng()
    worst_poly = 0.0
    for _ in range(25):
        f = _random_poly(rng, int(rng.integers(0, 7)))
        q0 = Quaternion(*rng.uniform(-1, 1, 4))
        q = Quaternion(*rng.uniform(-1, 1, 4))
        worst_poly = max(worst_poly, (calculus.taylor_eval(f, q0, q, f.degree + 1) - f(q)).norm())
    _report("11a-taylor-polynomial", worst_poly, 1e-10)

    model = monodromy.SqrtModel()
    worst_sqrt = 0.0
    for _ in range(20):
        unit = random_imaginary_unit(rng)
        dx, dy = rng.uniform(-0.35, 0.35), rng.uniform(0.05, 0.35)
        q = Quaternion(4.0 + dx) + dy * unit
        series = calculus.taylor_eval(model, Quaternion(4.0), q, terms=40)
        path = make_npart_path([Line(4.0 + 0j, complex(4.0 + dx, dy))])
        direct = monodromy.evaluate_lifted(model, path, (unit,))
        worst_sqrt = max(worst_sqrt, (series - direct).norm())
    _report("11b-taylor-sqrt", worst_sqrt, 1e-6)

    report = calculus.stem_series_check(model, beta_path(), radius=0.3, terms=30)
    _report(
        "11c-stem-tensor-series",
        max(report.stem_series_residual, report.tensor_series_residual),
        1e-6,
    )
    _report("11d-derivative-routes", report.route_deviation, 1e-8)


def test_criterion_12_stem_validator():
    system = stems.build_stem_system(
        monodromy.SqrtModel(), [("beta", beta_path())], radius=0.8, extra_truncations=(0.25, 0.75)
    )
    report = stems.validate_stem_system(system)
    assert report.passed, report.to_dict()
    _report("12a-stem-system-passes", report.condition("holomorphy").worst, 1e-6)

    base = stems.build_stem_system(monodromy.SqrtModel(), [("beta", beta_path())], radius=0.8)

    def flip(_z, value):
        out = list(value.entries)
        out[1] = -out[1]
        return StemValue(value.N, tuple(out))

    def pollute(index):
        def transform(_z, value):
            out = list(value.entries)
            out[index] = out[index] + Quaternion(0.25)
            return StemValue(value.N, tuple(out))

        return transform

    flipped = base.with_stem("beta[2/2-]", base.entry("beta[2/2-]").stem.map(flip))
    r1 = stems.validate_stem_system(flipped)
    assert _fails_exactly(r1, "holomorphy"), r1.to_dict()

    padded = base.with_stem("beta[1/2]", base.entry("beta[1/2]").stem.map(pollute(2)))
    r2 = stems.validate_stem_system(padded)
    assert _fails_exactly(r2, "axial-compatibility"), r2.to_dict()

    two = stems.build_stem_system(
        monodromy.SqrtModel(),
        [("beta", beta_path()), ("gamma", make_npart_path([half_turns(4), half_turns(3)]))],
        radius=0.8,
    )
    corrupted = two.with_stem("beta[0/2]", two.entry("beta[0/2]").stem.map(pollute(0)))
    r3 = stems.validate_stem_system(corrupted)
    assert _fails_exactly(r3, "initial-compatibility"), r3.to_dict()
    _report("12b-violations-localised", 0.0, 0.0)


def test_check_suites_green_end_to_end():
    results = checks.run_suite("all", seed=7)
    for result in results:
        print(result.line())
    assert all(r.passed for r in results)


def _random_poly(rng, degree):
    return calculus.SliceRegularPoly(
        tuple(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(degree + 1))
    )


def _coeff_distance(f, g):
    size = max(len(f.coefficients), len(g.coefficients))
    worst = 0.0
    for idx in range(size):
        a = f.coefficients[idx] if idx < len(f.coefficients) else Quaternion()
        b = g.coefficients[idx] if idx < len(g.coefficients) else Quaternion()
        worst = max(worst, (a - b).norm())
    return worst


def _fails_exactly(report, name):
    return all((c.name == name) != c.passed for c in report.conditions)

"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines, or `slicekit check --suite all` for the CLI equivalent.

Criteria 01-04, 09, 11a, 11c and 11d are checks of `checks.py`: they call the
check with this file's generator and pin both its deviation and the tolerance
it reports.  The others ask more than their check and keep a body of their
own (05: 50 J through `invariance_check`; 06: the second key and the verdict;
07 and 08: exact laws inside the draw stream; 10: one stream for ring,
reciprocal and 25 Leibniz draws; 11b: dy from [0.05, 0.35); 12: per-case
diagnostics and the holomorphy residual), built from the helpers of `checks`.
"""

import math
import time

import numpy as np

from slicekit import calculus, checks, monodromy, representation, stems, stemtensor
from slicekit.paths import Line, beta_path, half_turns, make_npart_path
from slicekit.qmat import QuaternionMatrix, qmat_mul
from slicekit.quat import Quaternion, random_imaginary_unit
from slicekit.sliceunits import eta, random_slice_unit_matrix, slice_diag, slice_matrix
from slicekit.stemtensor import StemValue, apply_real_matrix, nan_max, sigma_matrix, star_vector

PI = math.pi
SEED = 20260810

#: the tolerance of every `slicekit check`, by name
CHECK_TOLERANCES = {
    "eta-unitarity": 1e-10,
    "full-slice-rank-permutation": 0.0,
    "j-invariance": 1e-8,
    "leibniz": 1e-10,
    "log-monodromy": 1e-9,
    "non-extendability": 1e-9,
    "regular-reciprocal": 1e-8,
    "representation-vectors": 1e-9,
    "ring-identities": 1e-8,
    "series-derivative-routes": 1e-8,
    "series-polynomial": 1e-9,
    "series-sqrt": 1e-6,
    "sqrt-monodromy": 1e-9,
    "star-kronecker-oracle": 1e-12,
    "star-zero-padding": 0.0,
    "stem-system-validator": 0.0,
    "structure-identities": 1e-12,
    "taylor-polynomial": 1e-10,
    "taylor-sqrt": 1e-6,
}


def _rng():
    return np.random.default_rng(SEED)


def _report(name: str, deviation: float, tolerance: float) -> None:
    status = "PASS" if deviation <= tolerance else "FAIL"
    print(f"ACCEPTANCE {status} {name}: deviation={deviation:.3e} tolerance={tolerance:.1e}")
    assert deviation <= tolerance


def _report_check(name: str, result: checks.CheckResult, tolerance: float) -> None:
    """A criterion that is a check: its deviation against the pinned tolerance, which the check must report too."""
    assert result.tolerance == tolerance, f"{result.name} reports tolerance {result.tolerance}, pinned {tolerance}"
    _report(name, result.deviation, tolerance)


def test_criterion_01_unitarity():
    started = time.perf_counter()
    result = checks.check_eta_unitarity(_rng())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"unitarity sweep took {elapsed:.2f}s"
    _report_check("01-unitarity", result, 1e-10)


def test_criterion_02_sqrt_monodromy():
    _report_check("02-sqrt-monodromy", checks.check_sqrt_monodromy(_rng()), 1e-9)


def test_criterion_03_log_monodromy():
    _report_check("03-log-monodromy", checks.check_log_monodromy(_rng()), 1e-9)


def test_criterion_04_representation_vectors():
    _report_check("04-representation-vectors", checks.check_representation_vectors(_rng()), 1e-9)


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
    (key1,) = monodromy.germ_key(log_model, monodromy.final_states(log_model, gamma1, [(k,)]))
    (key2,) = monodromy.germ_key(log_model, monodromy.final_states(log_model, gamma2, [(i, j)]))
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
            a = checks._random_stem_value(n, rng)
            b = checks._random_stem_value(n, rng)
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
    _report_check("09-permutation-algorithm", checks.check_rank_permutation(_rng()), 0.0)


def test_criterion_10_ring_identities():
    rng = _rng()
    worst_group = 0.0
    for _ in range(100):
        f = checks._random_poly(rng, int(rng.integers(0, 5)))
        g = checks._random_poly(rng, int(rng.integers(0, 5)))
        assert calculus.star_product(calculus.ONE_POLY, f).coefficients == f.coefficients
        fg = calculus.star_product(f, g)
        worst_group = max(
            worst_group,
            checks._coeff_distance(
                calculus.regular_conjugate(fg),
                calculus.star_product(calculus.regular_conjugate(g), calculus.regular_conjugate(f)),
            ),
            checks._coeff_distance(
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
        f = checks._random_poly(rng, int(rng.integers(0, 6)))
        g = checks._random_poly(rng, int(rng.integers(0, 6)))
        for n in range(5):
            worst_leibniz = max(
                worst_leibniz,
                checks._coeff_distance(
                    calculus.slice_derivative(calculus.star_product(f, g), n),
                    calculus.leibniz(f, g, n),
                ),
            )
    _report("10a-ring-identities", worst_group, 1e-8)
    _report("10b-leibniz", worst_leibniz, 1e-10)


def test_criterion_11_series():
    rng = _rng()
    _report_check("11a-taylor-polynomial", checks.check_taylor_polynomial(rng), 1e-10)

    model = monodromy.SqrtModel()  # 11b continues the stream of 11a
    worst_sqrt = 0.0
    for _ in range(20):
        unit = random_imaginary_unit(rng)
        dx, dy = rng.uniform(-0.35, 0.35), rng.uniform(0.05, 0.35)
        q = Quaternion(4.0 + dx) + dy * unit
        series = calculus.taylor_eval(model, Quaternion(4.0), q, terms=40)
        path = make_npart_path([Line(4.0 + 0j, complex(4.0 + dx, dy))])
        direct = monodromy.evaluate_lifted(model, path, (unit,))
        worst_sqrt = nan_max([worst_sqrt, (series - direct).norm()])
    _report("11b-taylor-sqrt", worst_sqrt, 1e-6)

    _report_check("11c-stem-tensor-series", checks.check_series_sqrt(rng), 1e-6)
    _report_check("11d-derivative-routes", checks.check_series_routes(rng), 1e-8)


def test_criterion_12_stem_validator():
    report = stems.validate_stem_system(checks._beta_system(extra=(0.25, 0.75)))
    assert report.passed, report.to_dict()
    _report("12a-stem-system-passes", report.condition("holomorphy").worst, 1e-6)
    for system, condition in checks._broken_systems():
        broken = stems.validate_stem_system(system)
        assert checks._fails_exactly(broken, condition), broken.to_dict()
    _report("12b-violations-localised", 0.0, 0.0)


def test_check_suites_green_end_to_end():
    results = checks.run_suite("all", seed=7)
    for result in results:
        print(result.line())
    assert all(r.passed for r in results)
    assert {r.name: r.tolerance for r in results} == CHECK_TOLERANCES

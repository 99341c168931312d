"""Seeded verification suites behind `slicekit check` and the acceptance tests.

Each check measures a worst-case deviation and compares it against the pinned
tolerance.  All sampling flows through one seeded generator per check, so a
(seed, suite) pair is fully reproducible.  Worst cases are folded with
`nan_max`, so a NaN deviation stays NaN and fails its check.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import calculus, monodromy, representation, stems, stemtensor
from .paths import Line, beta_path, half_turns, make_npart_path
from .qmat import QuaternionMatrix, qmat_mul
from .quat import (
    Quaternion,
    quat_inverse,
    random_imaginary_unit,
    row_norm2,
)
from .sliceunits import (
    eta,
    full_slice_rank_permutation,
    has_full_slice_rank,
    random_slice_unit_matrix,
    slice_diag,
    slice_matrix,
)
from .stemtensor import StemValue, apply_real_matrix, nan_max, sigma_matrix, star_vector

PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    deviation: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name}  deviation={self.deviation:.3e}  tolerance={self.tolerance:.1e}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "suite": self.suite,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _result(name: str, suite: str, deviation: float, tolerance: float) -> CheckResult:
    return CheckResult(name, suite, float(deviation), tolerance, bool(deviation <= tolerance))


def _random_stem_value(n: int, rng: np.random.Generator) -> StemValue:
    return StemValue(n, rng.uniform(-1, 1, (1 << n, 4)))


def _random_poly(rng: np.random.Generator, degree: int) -> calculus.SliceRegularPoly:
    """Coefficients with components uniform in [-1, 1): the stream of `degree + 1` draws of 4."""
    return calculus.SliceRegularPoly(rng.uniform(-1, 1, (degree + 1, 4)))


def _coeff_distance(f: calculus.SliceRegularPoly, g: calculus.SliceRegularPoly) -> float:
    """Largest |a_n - b_n| over the coefficients of f and g, the shorter one padded with zeros."""
    pairs = zip_longest(f.components.tolist(), g.components.tolist(), fillvalue=(0.0, 0.0, 0.0, 0.0))
    return nan_max([0.0] + _distances(pairs))


def _distances(pairs) -> list[float]:
    """(a - b).norm() of each pair of (w, x, y, z) rows, in the float operations of `Quaternion`."""
    return [
        math.sqrt(row_norm2((aw - bw, ax - bx, ay - by, az - bz))) for (aw, ax, ay, az), (bw, bx, by, bz) in pairs
    ]


# -- unitarity ---------------------------------------------------------------


def check_eta_unitarity(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(50):
            unit = random_imaginary_unit(rng)
            m = slice_matrix(eta(n, unit)).scale(2.0 ** (-n / 2))
            residual = qmat_mul(m, m.conj_transpose()) - QuaternionMatrix.identity(1 << n)
            worst = nan_max([worst, residual.max_norm()])
    return _result("eta-unitarity", "unitarity", worst, 1e-10)


def check_rank_permutation(rng: np.random.Generator) -> CheckResult:
    failures = 0
    for n, trials in ((2, 50), (3, 50)):
        base = eta(n, random_imaginary_unit(rng))
        for _ in range(trials):
            perm = list(rng.permutation(1 << n) + 1)
            shuffled = base.permute_rows(perm)
            fixed = shuffled.permute_rows(full_slice_rank_permutation(shuffled))
            if not has_full_slice_rank(fixed):
                failures += 1
    return _result("full-slice-rank-permutation", "unitarity", float(failures), 0.0)


# -- representation formula ----------------------------------------------------


def _random_unit_pair(rng: np.random.Generator):
    return random_imaginary_unit(rng), random_imaginary_unit(rng)


def _beta_loop_deviation(rng: np.random.Generator, model, expected) -> float:
    """Worst |value - expected(k1, k2)| over 100 random lifts (k1, k2) of beta, all continued in one call."""
    pairs = [_random_unit_pair(rng) for _ in range(100)]
    values = monodromy.lift_values(model, monodromy.final_states(model, beta_path(), pairs))
    return nan_max([0.0] + [(Quaternion(*v) - expected(*pair)).norm() for v, pair in zip(values.tolist(), pairs)])


#: the value after the beta loop lifted along (k1, k2), by model name (acceptance criteria 1 and 2);
#: `slicekit monodromy --check-analytic` reports the deviation from it too
BETA_LOOP_VALUES = {
    "sqrt": lambda k1, k2: quat_inverse(k2) * k1,
    "log": lambda k1, k2: PI * k1 - PI * k2,
}


def check_sqrt_monodromy(rng: np.random.Generator) -> CheckResult:
    worst = _beta_loop_deviation(rng, monodromy.SqrtModel(), BETA_LOOP_VALUES["sqrt"])
    return _result("sqrt-monodromy", "repformula", worst, 1e-9)


def check_log_monodromy(rng: np.random.Generator) -> CheckResult:
    worst = _beta_loop_deviation(rng, monodromy.LogModel(), BETA_LOOP_VALUES["log"])
    return _result("log-monodromy", "repformula", worst, 1e-9)


def check_representation_vectors(rng: np.random.Generator) -> CheckResult:
    beta = beta_path()
    reference = eta(2, Quaternion(0, 1, 0, 0))
    g_sqrt = representation.representation_vector(monodromy.SqrtModel(), beta, reference)
    g_log = representation.representation_vector(monodromy.LogModel(), beta, reference)
    expect_sqrt = StemValue(2, (0.0, 0.0, -1.0, 0.0))
    expect_log = StemValue(2, (0.0, PI, 0.0, PI))
    worst = nan_max([(g_sqrt - expect_sqrt).max_norm(), (g_log - expect_log).max_norm()])
    return _result("representation-vectors", "repformula", worst, 1e-9)


def check_j_invariance(rng: np.random.Generator) -> CheckResult:
    beta = beta_path()
    reference = eta(2, Quaternion(0, 1, 0, 0))
    worst = 0.0
    for model in (monodromy.SqrtModel(), monodromy.LogModel()):
        # invariance_check(model, beta, reference, j) for 25 J, the rows of all of them continued in one call
        js = [random_slice_unit_matrix(2, rng) for _ in range(25)]
        g_ref, *vectors = representation.representation_vectors(model, beta, [reference] + js)
        worst = nan_max([worst] + [(g_ref - g).max_norm() for g in vectors])
    return _result("j-invariance", "repformula", worst, 1e-8)


def check_non_extendability(rng: np.random.Generator) -> CheckResult:
    j1 = Quaternion(0, 1, 0, 0)
    j2 = Quaternion(0, 0, 1, 0)
    k = (4.0 * j1 + 3.0 * j2) * (1.0 / 5.0)
    gamma1 = make_npart_path([half_turns(5)])
    gamma2 = make_npart_path([half_turns(4), half_turns(3)])
    log_model = monodromy.LogModel()
    (key1,) = monodromy.germ_key(log_model, monodromy.final_states(log_model, gamma1, [(k,)]))
    (key2,) = monodromy.germ_key(log_model, monodromy.final_states(log_model, gamma2, [(j1, j2)]))
    key_dev = nan_max(
        [
            (key1.point - key2.point).norm(),
            (key1.value - key2.value).norm(),
            (key1.value - 5 * PI * k).norm(),
        ]
    )
    report = representation.extendability_check(
        monodromy.SqrtModel(), [(gamma1, (k,)), (gamma2, (j1, j2))], log_model
    )
    witness_dev = float("inf")
    if report.verdict == "obstructed" and report.witness is not None:
        w1, w2 = report.witness
        witness_dev = nan_max([(w1 - k).norm(), (w2 - (-j2)).norm()])
    return _result("non-extendability", "repformula", nan_max([key_dev, witness_dev]), 1e-9)


# -- star product ----------------------------------------------------------------


def check_star_oracle(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for n in (1, 2):
        for _ in range(100):
            a = _random_stem_value(n, rng)
            b = _random_stem_value(n, rng)
            direct = star_vector(a, b)
            oracle = stemtensor.oracle_star(a, b)
            worst = nan_max([worst, (direct - oracle).max_norm()])
    return _result("star-kronecker-oracle", "star", worst, 1e-12)


def check_zero_padding(rng: np.random.Generator) -> CheckResult:
    exact = True
    for n in (1, 2, 3):
        for _ in range(25):
            a = _random_stem_value(n, rng)
            b = _random_stem_value(n, rng)
            padded = StemValue.padded(a).star(StemValue.padded(b))
            expected = StemValue.padded(a.star(b))
            exact = exact and padded == expected
    return _result("star-zero-padding", "star", 0.0 if exact else 1.0, 0.0)


def check_structure_identities(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for n in range(1, 5):
        sigma = sigma_matrix(n)
        if not np.array_equal(sigma @ sigma, -np.eye(1 << n, dtype=np.int64)):
            worst = nan_max([worst, 1.0])
        # slot-N multiplication against the matrix action, exact on the basis
        slot = stemtensor.slot_imaginary(n, n)
        for m in range(1, (1 << n) + 1):
            basis = StemValue.basis(n, m)
            via_mul = star_vector(slot, basis)
            worst = nan_max([worst, (via_mul - apply_real_matrix(sigma, basis)).max_norm()])
    for n in (1, 2, 3):
        unit = random_imaginary_unit(rng)
        j = eta(n, unit)
        m = slice_matrix(j)
        lhs = qmat_mul(slice_diag(j), m)
        sigma_t = sigma_matrix(n).T
        rows = [apply_real_matrix(sigma_t, StemValue(n, m.row(i))).entries for i in range(m.rows)]
        rhs = QuaternionMatrix.from_rows(rows)
        worst = nan_max([worst, (lhs - rhs).max_norm()])
    return _result("structure-identities", "star", worst, 1e-12)


# -- ring / calculus ---------------------------------------------------------------


def check_ring_identities(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        f = _random_poly(rng, int(rng.integers(0, 5)))
        g = _random_poly(rng, int(rng.integers(0, 5)))
        one_f = calculus.star_product(calculus.ONE_POLY, f)
        if one_f != f:
            worst = nan_max([worst, 1.0])
        fg = calculus.star_product(f, g)
        lhs = calculus.regular_conjugate(fg)
        rhs = calculus.star_product(calculus.regular_conjugate(g), calculus.regular_conjugate(f))
        worst = nan_max([worst] + _distances(zip(lhs.components.tolist(), rhs.components.tolist())))
        s1 = calculus.symmetrization(fg)
        worst = nan_max([worst, _coeff_distance(s1, calculus.symmetrization(calculus.star_product(g, f)))])
        q = Quaternion(*rng.uniform(-1, 1, 4))
        pointwise = calculus.symmetrization(f)(q) * calculus.symmetrization(g)(q)
        worst = nan_max([worst, (s1(q) - pointwise).norm()])
    return _result("ring-identities", "ring", worst, 1e-8)


def check_reciprocal(rng: np.random.Generator) -> CheckResult:
    f = calculus.SliceRegularPoly((Quaternion(0, -1, 0, 0), Quaternion(1.0)))  # q - i
    domain = calculus.AxSymDomain.ball(3.0, 1.0)
    reciprocal = calculus.regular_reciprocal(f, domain)
    worst = 0.0
    for q in domain.sample(rng, 100):
        value = calculus.star_eval(reciprocal, f, q)
        worst = nan_max([worst, (value - Quaternion(1.0)).norm()])
    return _result("regular-reciprocal", "ring", worst, 1e-8)


def check_leibniz(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(30):
        f = _random_poly(rng, int(rng.integers(0, 6)))
        g = _random_poly(rng, int(rng.integers(0, 6)))
        for n in range(5):
            direct = calculus.slice_derivative(calculus.star_product(f, g), n)
            worst = nan_max([worst, _coeff_distance(direct, calculus.leibniz(f, g, n))])
    return _result("leibniz", "ring", worst, 1e-10)


# -- series -------------------------------------------------------------------------


def check_taylor_polynomial(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(25):
        f = _random_poly(rng, int(rng.integers(0, 7)))
        q0 = Quaternion(*rng.uniform(-1, 1, 4))
        q = Quaternion(*rng.uniform(-1, 1, 4))
        value = calculus.taylor_eval(f, q0, q, terms=f.degree + 1)
        worst = nan_max([worst, (value - f(q)).norm()])
    return _result("taylor-polynomial", "series", worst, 1e-10)


def check_taylor_sqrt(rng: np.random.Generator) -> CheckResult:
    model = monodromy.SqrtModel()
    worst = 0.0
    for _ in range(20):
        unit = random_imaginary_unit(rng)
        x, y = rng.uniform(-0.35, 0.35), rng.uniform(0.01, 0.35)
        q = Quaternion(4.0 + x) + y * unit
        series = calculus.taylor_eval(model, Quaternion(4.0), q, terms=40)
        path = make_npart_path([Line(4.0 + 0j, complex(4.0 + x, y))])
        direct = monodromy.evaluate_lifted(model, path, (unit,))
        worst = nan_max([worst, (series - direct).norm()])
    return _result("taylor-sqrt", "series", worst, 1e-6)


def check_series_sqrt(rng: np.random.Generator) -> CheckResult:
    report = calculus.stem_series_check(monodromy.SqrtModel(), beta_path(), radius=0.3, terms=30)
    return _result(
        "series-sqrt",
        "series",
        nan_max([report.stem_series_residual, report.tensor_series_residual]),
        1e-6,
    )


def check_series_routes(rng: np.random.Generator) -> CheckResult:
    report = calculus.stem_series_check(monodromy.SqrtModel(), beta_path(), radius=0.3, terms=4)
    return _result("series-derivative-routes", "series", report.route_deviation, 1e-8)


def check_series_polynomial(rng: np.random.Generator) -> CheckResult:
    poly = calculus.SliceRegularPoly((Quaternion(0, 0, 1, 0), Quaternion(1.0), Quaternion(0, 1, 0, 0)))
    report = calculus.stem_series_check(poly, beta_path(), radius=0.3, terms=8)
    deviation = nan_max([report.stem_series_residual, report.tensor_series_residual])
    return _result("series-polynomial", "series", deviation, 1e-9)


# -- stem systems ----------------------------------------------------------------


def _beta_system(extra=()):
    return stems.build_stem_system(
        monodromy.SqrtModel(),
        [("beta", beta_path())],
        radius=0.8,
        extra_truncations=extra,
    )


def check_stem_validator(rng: np.random.Generator) -> CheckResult:
    ok = stems.validate_stem_system(_beta_system(extra=(0.25, 0.75))).passed
    for system, condition in _broken_systems():
        ok = _fails_exactly(stems.validate_stem_system(system), condition) and ok
    return _result("stem-system-validator", "stem", 0.0 if ok else 1.0, 0.0)


def _broken_systems():
    """Stem systems broken in one condition of the validator each, with the name of that condition."""
    yield _edit_component(_beta_system(), "beta[2/2-]", 1, np.negative), "holomorphy"
    yield _edit_component(_beta_system(), "beta[1/2]", 2, _offset), "axial-compatibility"
    two = stems.build_stem_system(
        monodromy.SqrtModel(),
        [("beta", beta_path()), ("gamma", make_npart_path([half_turns(4), half_turns(3)]))],
        radius=0.8,
    )
    yield _edit_component(two, "beta[0/2]", 0, _offset), "initial-compatibility"


def _edit_component(system, label: str, component: int, edit):
    """`system` with `edit` applied to component `component` of every value of the stem `label`.

    `edit` maps the (P, 4) rows of that component to new rows.
    """

    def transform(values: np.ndarray) -> np.ndarray:
        out = values.copy()
        out[:, component] = edit(values[:, component])
        return out

    return system.with_stem(label, system.entry(label).stem.map(transform))


def _offset(rows: np.ndarray) -> np.ndarray:
    """q + Quaternion(0.25) of every row, in its float operations."""
    return rows + (0.25, 0.0, 0.0, 0.0)


def _fails_exactly(report, name: str) -> bool:
    return all((c.name == name) != c.passed for c in report.conditions)


SUITES: dict[str, tuple] = {
    "unitarity": (check_eta_unitarity, check_rank_permutation),
    "repformula": (
        check_sqrt_monodromy,
        check_log_monodromy,
        check_representation_vectors,
        check_j_invariance,
        check_non_extendability,
    ),
    "star": (check_star_oracle, check_zero_padding, check_structure_identities),
    "ring": (check_ring_identities, check_reciprocal, check_leibniz),
    "series": (
        check_taylor_polynomial,
        check_taylor_sqrt,
        check_series_sqrt,
        check_series_routes,
        check_series_polynomial,
    ),
    "stem": (check_stem_validator,),
}


def run_suite(suite: str, seed: int) -> list[CheckResult]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for name in names:
        for fn in SUITES[name]:
            salt = zlib.crc32(fn.__name__.encode())
            rng = np.random.default_rng((seed, salt))
            results.append(fn(rng))
    return sorted(results, key=lambda r: r.name)

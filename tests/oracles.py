"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's complex-adjoint and structure-constant
code paths: left-linear independence is decided by the smallest singular
value of the real linear system over the combination coefficients, and slice
derivatives by finite differences on a single slice.

The two per-term star loops are references of another kind: they do the same
arithmetic as the library's table-driven kernels, one `Quaternion` product
and sum per term, so the kernels must match them bit for bit.

The two per-entry matrix loops multiply `Quaternion` entries one Hamilton
product at a time, never touching the complex blocks that `qmat` computes
with, so they check the block formulas independently.

The per-entry slice matrix and the per-trial rank decisions are references
of the same kind for `sliceunits`: one `unit_product` per entry of M(J), and
each truncation or trial stacked anew through `QuaternionMatrix.from_rows`,
where the library builds M(J) once from shared prefixes and cuts blocks from
it.  Both must give the same bits and the same decisions.

The per-point zero probe, the per-term Kronecker matrix and the block
adjoint are the scalar and per-entry forms of the reciprocal's shell probe,
`kron_matrix` and `complex_adjoint`: one `Quaternion` point per shell (one
direction decides for a whole sphere, as f^s has real coefficients),
containment test and Horner evaluation at a time; one `np.kron` per nonzero
entry summed onto a zero matrix; and `np.block` of the four complex blocks.
The array forms must give the same witness and the same bits.

The per-point stem evaluator and the neighbour loop of the grid residual are
references of the second kind for the batched stem code: one closing-line
`continue_segment` per reference lift, `scalar_derivative_value` and one
`apply_column` per point (with every term of the block product formed at
once), and one `Quaternion` difference per grid neighbour.  The batched
evaluator and the array residual must match them bit for bit.  The
interpolation loop is the grid stem's evaluation as it was before the grid
became one array: four corners per point, each entry scaled and summed from
a zero `Quaternion` in `Quaternion` arithmetic, so it shares no array code
with the library.  The one-gather interpolation must give the same bits.

The per-lift fold is the continuation as one `SheetState` per lift: the
whole path walked again for every lift, each slice switch solving the datum
in `Quaternion` arithmetic.  `final_states` walks the path once and carries
the lifts' units and data as arrays; it must give the same bits, and the
same errors.

The scalar model formulas are the closed forms of the square root, the
logarithm and polynomials for one lift at one point, in `Quaternion`
arithmetic: `scalar_derivative_value` of a `SheetState`, with `unit_exp` and
the `Quaternion` Horner sum `poly_eval`.  The library writes each closed form
once, as the array `derivative_values`; it, `lift_values`, `germ_key` and
`evaluate_lifted` must give the bits of these formulas, and the library's
component Horner sum `_horner` those of `poly_eval`.

The per-coefficient polynomial forms (`per_term_convolution`,
`per_coefficient_sum`, `per_coefficient_derivative` and the trim `trimmed`)
are the scalar forms of `SliceRegularPoly`'s operations on its (K, 4) array:
one `Quaternion` operation per coefficient, or per term of a product.  The
array polynomial must give their bits; `u64` reads those bits, and
`u64_any_nan` reads them with every NaN as one.

`strict_loads` is the reader every JSON document slicekit writes must pass:
the stdlib parser, refusing the `NaN` and `Infinity` that strict JSON lacks.

`pointwise_star_check`, `conjugate_via_components` and
`left_linearly_independent` are identities composed from library calls that
only the tests evaluate: the star product against f(q) * g(f(q)^-1 q f(q)),
the conjugate rebuilt from star sandwiches, and independence as full
quaternionic rank.
"""

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from slicekit import calculus
from slicekit.calculus import SliceRegularPoly
from slicekit.errors import BranchPoint, BranchPointCrossing, LengthMismatch, NotAtRealPoint, NotIndependent
from slicekit.monodromy import GermKey, _log_factor, _sqrt_factor, continue_segment
from slicekit.paths import Line
from slicekit.qmat import QuaternionMatrix, _pairs, _quaternions, qmat_inverse, qmat_rank
from slicekit.quat import I as UNIT_I
from slicekit.quat import Quaternion, embed_slice, quat_inverse
from slicekit.sliceunits import eta, eta_inverse, slice_matrix, unit_product
from slicekit.stemtensor import (
    StemValue,
    _pattern_matrix,
    apply_real_matrix,
    basis_product,
    nan_max,
    sigma_matrix,
)
from slicekit.tolerances import AT_CENTER_TOL, BRANCH_TOL, REAL_TOL, START_TOL


def strict_loads(text: str):
    """`json.loads` that refuses NaN, Infinity and -Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _right_mult_matrix(v: Quaternion) -> np.ndarray:
    """4x4 real matrix of q -> q * v acting on q's components."""
    columns = []
    for e in (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)):
        prod = e * v
        columns.append([prod.w, prod.x, prod.y, prod.z])
    return np.array(columns).T


def left_combination_min_singular(vectors) -> float:
    """Smallest singular value of sum(q_i * v_i) = 0 as a real system.

    Positive (well away from zero) means the vectors are left linearly
    independent; numerically zero means a nontrivial combination exists.
    """
    k = len(vectors)
    n = len(vectors[0])
    system = np.zeros((4 * n, 4 * k))
    for i, vec in enumerate(vectors):
        for comp in range(n):
            system[4 * comp : 4 * comp + 4, 4 * i : 4 * i + 4] = _right_mult_matrix(vec[comp])
    return float(np.linalg.svd(system, compute_uv=False)[-1])


def pointwise_star_check(f: SliceRegularPoly, g: SliceRegularPoly, q: Quaternion) -> float:
    """Deviation of the star product from f(q) * g(f(q)^-1 q f(q)).

    Raises ZeroDivisor when f(q) = 0 (the conjugated point is undefined).
    """
    fq = f(q)
    moved = quat_inverse(fq) * q * fq
    return (calculus.star_product(f, g)(q) - fq * g(moved)).norm()


def conjugate_via_components(f: SliceRegularPoly) -> SliceRegularPoly:
    """The conjugate built from star-sandwich component extraction.

    g4 = (f - i*f*i)/2 keeps the 1 and i parts, g0 = (g4 - j*g4*j)/2 keeps the
    real part, and the complementary sandwiches peel off the other three real
    component polynomials; reassembling with flipped signs must agree with
    coefficient conjugation.
    """
    star_product = calculus.star_product
    i_c = SliceRegularPoly.constant(Quaternion(0, 1, 0, 0))
    j_c = SliceRegularPoly.constant(Quaternion(0, 0, 1, 0))
    k_c = SliceRegularPoly.constant(Quaternion(0, 0, 0, 1))

    def sandwich(u: SliceRegularPoly, c: SliceRegularPoly) -> SliceRegularPoly:
        return star_product(star_product(c, u), c)

    g4 = (f - sandwich(f, i_c)).scale(0.5)
    g0 = (g4 - sandwich(g4, j_c)).scale(0.5)
    g1 = star_product(g4 - g0, SliceRegularPoly.constant(Quaternion(0, -1, 0, 0)))
    h5 = (f + sandwich(f, i_c)).scale(0.5)
    g2_part = (h5 - sandwich(h5, j_c)).scale(0.5)
    g2 = star_product(g2_part, SliceRegularPoly.constant(Quaternion(0, 0, -1, 0)))
    g3_part = (h5 + sandwich(h5, j_c)).scale(0.5)
    g3 = star_product(g3_part, SliceRegularPoly.constant(Quaternion(0, 0, 0, -1)))
    return g0 - star_product(g1, i_c) - star_product(g2, j_c) - star_product(g3, k_c)


def left_linearly_independent(vectors) -> bool:
    """True iff no nontrivial left combination sum(q_i * v_i) vanishes.

    Equivalent to the stacked matrix having rank equal to the vector count.
    """
    if not vectors:
        return True
    stacked = QuaternionMatrix.from_rows([list(v) for v in vectors])
    return qmat_rank(stacked) == len(vectors)


def numeric_slice_derivative(f, z0: complex, unit, order: int = 1, h: float = 1e-4) -> Quaternion:
    """Finite-difference slice derivative of f at z0 on the given slice.

    f takes a quaternion; differentiation runs along the real direction of
    the slice, which equals the slice derivative for slice regular f.
    """
    stencils = {
        1: ((-0.5, -1), (0.5, 1)),
        2: ((1.0, -1), (-2.0, 0), (1.0, 1)),
    }
    acc = Quaternion()
    for weight, step in stencils[order]:
        point = embed_slice(z0 + step * h, unit)
        acc = acc + f(point) * (weight / h**order)
    return acc


def per_term_star_vector(a: StemValue, b: StemValue) -> StemValue:
    """Star product summed term by term: nonzero entries of a, then of b, in index order."""
    out = [Quaternion() for _ in range(1 << a.N)]
    for ma, ca in enumerate(a.entries, start=1):
        if ca.norm2() == 0.0:
            continue
        for mb, cb in enumerate(b.entries, start=1):
            if cb.norm2() == 0.0:
                continue
            c, sign = basis_product(a.N, ma, mb)
            term = ca * cb
            out[c - 1] = out[c - 1] + term if sign > 0 else out[c - 1] - term
    return StemValue(a.N, tuple(out))


def per_term_star_product(f: SliceRegularPoly, g: SliceRegularPoly) -> SliceRegularPoly:
    """Coefficient convolution summed term by term, zero a_i skipped, i increasing."""
    return SliceRegularPoly(tuple(per_term_convolution(f.coefficients, g.coefficients)))


def per_term_convolution(a, b) -> list[Quaternion]:
    """`per_term_star_product` on `Quaternion` coefficient lists, trimmed as `trimmed` does."""
    out = [Quaternion() for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if ai.norm2() == 0.0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return trimmed(out)


def trimmed(coeffs) -> list[Quaternion]:
    """Coefficients without trailing ones of norm2() == 0.0, down to one; a zero one for none."""
    out = list(coeffs) or [Quaternion()]
    while len(out) > 1 and out[-1].norm2() == 0.0:
        out.pop()
    return out


def per_coefficient_sum(a, b) -> list[Quaternion]:
    """The sum of two coefficient lists: the longer one's coefficient plus the shorter one's, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, coeff in enumerate(b):
        out[k] = out[k] + coeff
    return trimmed(out)


def per_entry_qmat_mul(a: QuaternionMatrix, b: QuaternionMatrix) -> QuaternionMatrix:
    """Row-column product, one Hamilton product and sum per term, k increasing."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Quaternion()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return QuaternionMatrix(a.rows, b.cols, out)


def per_entry_apply_column(a: QuaternionMatrix, column) -> tuple[Quaternion, ...]:
    """Matrix times column, entries multiplied in matrix-then-vector order, k increasing."""
    out = []
    for i in range(a.rows):
        acc = Quaternion()
        for k in range(a.cols):
            acc = acc + a[i, k] * column[k]
        out.append(acc)
    return tuple(out)


def block_apply_column(a: QuaternionMatrix, column) -> tuple[Quaternion, ...]:
    """Block product a * column with all terms formed at once, summed left to right, +0.0 added last."""
    c = _pairs(column)
    swapped = c[:, ::-1].conj()
    swapped[:, 0] = -swapped[:, 0]
    terms = a.a1[:, :, None] * c + a.a2[:, :, None] * swapped
    return _quaternions(np.add.accumulate(terms, axis=1)[:, -1] + 0.0)


def block_complex_adjoint(a: QuaternionMatrix) -> np.ndarray:
    """[[A1, A2], [-conj(A2), conj(A1)]] assembled by `np.block`."""
    return np.block([[a.a1, a.a2], [-a.a2.conj(), a.a1.conj()]])


def per_term_kron_matrix(a: StemValue) -> np.ndarray:
    """sum_m kron(P_m, L(a_m)) over the entries with nonzero norm2, added one term at a time onto zeros."""
    size = (1 << a.N) * 4
    out = np.zeros((size, size))
    for m, q in enumerate(a.entries, start=1):
        if q.norm2() == 0.0:
            continue
        left = np.array([[q.w, -q.x, -q.y, -q.z], [q.x, q.w, -q.z, q.y], [q.y, q.z, q.w, -q.x], [q.z, -q.y, q.x, q.w]])
        out += np.kron(_pattern_matrix(a.N, m), left)
    return out


def per_point_zero_probe(sym: SliceRegularPoly, domain) -> Quaternion | None:
    """The reciprocal's shell probe one point at a time: the first point below the cut-off, or None."""
    center = Quaternion(domain.center.real)
    z = 1 - 1 / 512  # the first point of a 512-point Fibonacci sphere, at longitude 0
    direction = (math.sqrt(1 - z * z), 0.0, z)
    for shell in range(1, calculus._PROBE_SHELLS + 1):
        r = domain.radius * shell / calculus._PROBE_SHELLS * 0.999
        q = center + Quaternion(0.0, *(r * c for c in direction))
        if domain.contains(q) and sym(q).norm() < calculus.SYMMETRIZATION_ZERO_TOL:
            return q
    return None


def per_entry_zeta(units) -> tuple[Quaternion, ...]:
    """zeta(units) with one `unit_product` per index."""
    return tuple(unit_product(units, m) for m in range(1, (1 << len(units)) + 1))


def per_entry_slice_matrix(j) -> QuaternionMatrix:
    """M(J) stacked from the per-entry zeta rows."""
    return QuaternionMatrix.from_rows([per_entry_zeta(row) for row in j.rows])


def per_level_has_full_slice_rank(j) -> bool:
    """Full slice rank with the slice matrix of every truncation built anew."""
    return all(qmat_rank(per_entry_slice_matrix(j.truncation(l))) == 1 << l for l in range(1, j.N + 1))


def per_trial_full_slice_rank_permutation(j) -> tuple[int, ...]:
    """The row selection of `full_slice_rank_permutation`, stacking each trial's truncated zeta rows anew."""
    if qmat_rank(per_entry_slice_matrix(j)) != 1 << j.N:
        raise NotIndependent("rows are left slice-linearly dependent")
    order = list(range(1, (1 << j.N) + 1))
    for level in range(j.N - 1, 0, -1):
        candidates = order[: 1 << (level + 1)]
        selected: list[int] = []
        for row_idx in candidates:
            if len(selected) == 1 << level:
                break
            trial = selected + [row_idx]
            stacked = QuaternionMatrix.from_rows([per_entry_zeta(j.row(r)[:level]) for r in trial])
            if qmat_rank(stacked) == len(trial):
                selected.append(row_idx)
        rest = [r for r in candidates if r not in selected]
        order = selected + rest + order[1 << (level + 1) :]
    return tuple(order)


@dataclass(frozen=True)
class SheetState:
    """Covering coordinates plus slice unit and sheet datum of one lift."""

    r: float
    theta: float
    unit: Quaternion
    datum: Quaternion | None

    @property
    def complex_point(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)

    @property
    def projected_point(self) -> Quaternion:
        return embed_slice(self.complex_point, self.unit)


def unit_exp(theta: float, unit: Quaternion) -> Quaternion:
    """exp(theta * unit) = cos(theta) + sin(theta) * unit for a unit imaginary."""
    c, s = math.cos(theta), math.sin(theta)
    return Quaternion(c, s * unit.x, s * unit.y, s * unit.z)


def poly_eval(coeffs, q: Quaternion) -> Quaternion:
    """Right-coefficient Horner: a0 + q*(a1 + q*(a2 + ...))."""
    acc = Quaternion()
    for a in reversed(coeffs):
        acc = q * acc + a
    return acc


def per_coefficient_derivative(coeffs, n: int) -> list[Quaternion]:
    """The n-th slice derivative, one `Quaternion * float` per coefficient and pass: a_k -> a_k * float(k)."""
    out = list(coeffs)
    for _ in range(n):
        out = [out[k] * float(k) for k in range(1, len(out))]
        if not out:
            return [Quaternion()]
    return out


def scalar_derivative_value(model, state: SheetState, n: int) -> Quaternion:
    """Value of the n-th slice derivative of the model, continued to the state's sheet (n = 0: the value)."""
    if model.kind == "sqrt":
        coeff, power = _sqrt_factor(n)
        radial = coeff * state.r**power
        return radial * unit_exp(power * state.theta, state.unit) * state.datum
    if model.kind == "log":
        if n == 0:
            return Quaternion(math.log(state.r)) + state.theta * state.unit + state.datum
        coeff = _log_factor(n)
        return coeff * state.r ** (-n) * unit_exp(-n * state.theta, state.unit)
    coefficients = [Quaternion(*row) for row in model.components.tolist()]
    return poly_eval(per_coefficient_derivative(coefficients, n), state.projected_point)


def scalar_value(model, state: SheetState) -> Quaternion:
    return scalar_derivative_value(model, state, 0)


def scalar_germ_key(model, state: SheetState) -> GermKey:
    return GermKey(point=state.projected_point, value=scalar_value(model, state))


def initial_state(model, x0: float, unit) -> SheetState:
    """Canonical germ over a real starting point on the principal sheet."""
    if model.is_branched() and not model.accepts_start(x0):
        raise BranchPoint(f"model {model.kind} cannot start at {x0}")
    if x0 >= 0:
        r, theta = float(x0), 0.0
    else:
        r, theta = -float(x0), math.pi
    return SheetState(r=r, theta=theta, unit=unit, datum=model.initial_datum())


def per_lift_junction_switch(model, state: SheetState, new_unit) -> SheetState:
    """The slice switch of one lift: theta snapped, the datum re-solved for the value in `Quaternion` arithmetic."""
    if state.r <= BRANCH_TOL or abs(math.sin(state.theta)) > REAL_TOL:
        raise NotAtRealPoint(f"projected point {state.complex_point} is not real and nonzero")
    theta_new = 0.0 if math.cos(state.theta) > 0 else math.pi
    value = scalar_value(model, state)
    if model.kind == "sqrt":
        datum = quat_inverse(math.sqrt(state.r) * unit_exp(0.5 * theta_new, new_unit)) * value
    elif model.kind == "log":
        datum = value - (Quaternion(math.log(state.r)) + theta_new * new_unit)
    else:
        datum = None
    return SheetState(r=state.r, theta=theta_new, unit=new_unit, datum=datum)


def per_lift_final_state(model, path, units, x0=None) -> SheetState:
    """Continuation and slice switches folded over the parts of one lift, the whole path walked for it."""
    if len(units) != path.parts:
        raise LengthMismatch(f"{path.parts}-part path continued with {len(units)} units")
    start = path.initial_point
    if abs(start.imag) > REAL_TOL:
        raise BranchPoint(f"path must start on the real axis, got {start}")
    if x0 is not None and abs(start.real - x0) > START_TOL:
        raise ValueError(f"path starts at {start.real}, expected {x0}")
    state = initial_state(model, start.real, units[0])
    for part, seg in enumerate(path.segments):
        if part > 0:
            state = per_lift_junction_switch(model, state, units[part])
        try:
            state = continue_segment(model, state, seg)
        except BranchPointCrossing as crossing:
            crossing.segment = part
            raise
    return state


def per_lift_representation_vector(model, path, j, x0=None) -> StemValue:
    """M(J)**-1 applied to the column of `scalar_value` at the per-lift end states, one row of J at a time."""
    column = tuple(scalar_value(model, per_lift_final_state(model, path, row, x0)) for row in j.rows)
    return StemValue(j.N, qmat_inverse(slice_matrix(j)).apply_column(np.array([q.to_list() for q in column])[None])[0])


def per_point_stem_family(model, path, radius):
    """(z, n) -> invariant vector of the n-th slice derivative at z, one point at a time."""
    center = path.endpoint
    reference = eta(path.parts, UNIT_I)
    inverse = eta_inverse(reference)
    end_states = [per_lift_final_state(model, path, row) for row in reference.rows]

    def vector(z: complex, n: int = 0) -> StemValue:
        if abs(z - center) < AT_CENTER_TOL:
            states = end_states
        else:
            closing = Line(center, z)
            states = [continue_segment(model, s, closing) for s in end_states]
        values = [scalar_derivative_value(model, s, n) for s in states]
        return StemValue(path.parts, block_apply_column(inverse, values))

    return vector


def grid_cr_residual_loop(stem) -> float:
    """CR residual of a grid-backed stem from its polar grid neighbours, one grid point at a time."""
    n_r, n_a = stem.grid
    samples = stem.grid_samples
    dr = stem.radius / (n_r - 1)
    dphi = 2 * math.pi / n_a
    sigma = sigma_matrix(stem.N)
    worst = 0.0
    for k in range(1, n_r - 1):
        r = dr * k
        for l in range(n_a):
            phi = dphi * l
            d_r = [(a - b) * (0.5 / dr) for a, b in zip(samples[k + 1][l], samples[k - 1][l])]
            d_phi = [(a - b) * (0.5 / dphi) for a, b in zip(samples[k][(l + 1) % n_a], samples[k][(l - 1) % n_a])]
            cos_p, sin_p = math.cos(phi), math.sin(phi)
            fx = [a * cos_p - b * (sin_p / r) for a, b in zip(d_r, d_phi)]
            fy = [a * sin_p + b * (cos_p / r) for a, b in zip(d_r, d_phi)]
            sigma_fy = apply_real_matrix(sigma, StemValue(stem.N, fy)).entries
            worst = nan_max([worst] + [(a + b).norm() for a, b in zip(fx, sigma_fy)])
    return worst


def interpolate_loop(stem, points) -> list[StemValue]:
    """Bilinear polar interpolation of a grid-backed stem, one point, corner and `Quaternion` entry at a time."""
    grid_samples = stem.grid_samples  # built once: the property builds the tuples on every read
    out_values = []
    for z in points:
        n_r, n_a = stem.grid
        w = z - stem.center
        r = abs(w)
        phi = math.atan2(w.imag, w.real) % (2 * math.pi)
        rs = min(r / stem.radius * (n_r - 1), n_r - 1 - 1e-12)  # keeps the rim inside the last grid cell
        ps = phi / (2 * math.pi) * n_a
        k, fr = int(rs), rs - int(rs)
        l, fp = int(ps) % n_a, ps - int(ps)
        l2 = (l + 1) % n_a
        corners = [
            (grid_samples[k][l], (1 - fr) * (1 - fp)),
            (grid_samples[k][l2], (1 - fr) * fp),
            (grid_samples[min(k + 1, n_r - 1)][l], fr * (1 - fp)),
            (grid_samples[min(k + 1, n_r - 1)][l2], fr * fp),
        ]
        out = [Quaternion()] * (1 << stem.N)
        for col, weight in corners:
            out = [acc + entry * weight for acc, entry in zip(out, col)]
        out_values.append(StemValue(stem.N, out))
    return out_values


def sparse_quaternions(count: int, rng: np.random.Generator) -> list[Quaternion]:
    """Random entries, some exactly zero (with signed zeros) and some whose norm2 underflows to 0."""
    out = []
    for _ in range(count):
        roll = rng.uniform()
        if roll < 0.25:
            out.append(Quaternion(*(rng.choice([0.0, -0.0]) for _ in range(4))))
        elif roll < 0.3:
            out.append(Quaternion(*rng.uniform(-1e-170, 1e-170, 4)))
        else:
            out.append(Quaternion(*rng.uniform(-1, 1, 4)))
    return out


def quaternions_with_live(count: int, live: int, rng: np.random.Generator) -> list[Quaternion]:
    """`count` entries of which exactly `live`, the last among them, have norm2 != 0; the rest are signed zeros or underflow."""
    positions = set(rng.choice(count - 1, live - 1, replace=False).tolist()) | {count - 1}
    dead = [Quaternion(0.0, -0.0, -0.0, 0.0), Quaternion(*rng.uniform(-1e-170, 1e-170, 4))]
    return [Quaternion(*rng.uniform(-1, 1, 4)) if m in positions else dead[m % 2] for m in range(count)]


def components(quaternions) -> np.ndarray:
    """(len, 4) float64 array of the quaternions' (w, x, y, z): the operand form of `star_kernel`."""
    return np.array([(q.w, q.x, q.y, q.z) for q in quaternions], dtype=float).reshape(-1, 4)


#: signed zeros, NaN of either sign, infinities, subnormals, the smallest normal, an underflowing square, a huge value
SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-170, 1e300, -1.5,
)  # fmt: skip


def u64(values) -> list[int]:
    """The bits of float values through a uint64 view: -0.0 and 0.0 differ, and so do NaN signs and payloads."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


def u64_any_nan(values) -> list[int]:
    """`u64` with every NaN read as one quiet NaN.

    Which NaN an add or multiply of two NaNs returns is the interpreter's
    choice: CPython 3.11 returns the second operand's until it specializes
    the operation, then the first one's.  Operations with one NaN operand
    keep its bits, and `u64` pins those.
    """
    values = np.array(values, dtype=np.float64)
    values[np.isnan(values)] = np.nan
    return u64(values)


def bits(quaternions) -> list[tuple[str, ...]]:
    """Exact components, signed zeros told apart (0.0 == -0.0 would hide them)."""
    return [(q.w.hex(), q.x.hex(), q.y.hex(), q.z.hex()) for q in quaternions]

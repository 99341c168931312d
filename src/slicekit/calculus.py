"""Polynomial slice-regular calculus: star ring, conjugation, series.

Polynomials sum q**n * a_n with coefficients on the right; they are entire,
so every construction here lives on axially symmetric schlicht domains where
the star product is just coefficient convolution (the unique regular
extension of the pointwise product on the real axis).

A polynomial is one read-only (K, 4) float64 array of its coefficients'
(w, x, y, z), the layout of a stem column; no operation builds a
`Quaternion` per coefficient.  The loops of products, sums, scaling,
derivatives and evaluation run on the rows as Python floats
(`components.tolist()`), in the float operations of `Quaternion`
arithmetic, and each result becomes an array once.

`SliceRegularPoly` is both an element of the star ring and the entire
slice function model that `monodromy` continues and `stems` and
`stem_series_check` expand: its `derivative_values` is the one place the
polynomial's values and slice derivatives are evaluated, with the Horner
sum `_horner` and the derivative `_poly_derivative` defined here.

`star_product` has two paths that agree bit for bit: a per-term loop below
`stemtensor.ARRAY_KERNEL_PAIRS` (256) live pairs, nonzero left coefficients
times right coefficients, and `stemtensor.star_kernel` from there on, which
forms one term per pair and sends a_k * b_j to c_(k+j).  The measured
crossover lies near 100-150 pairs (degree 9 to 11).
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteResult, OutOfBall, SymmetrizationZero
from .monodromy import (
    LogModel,
    SliceFunctionModel,
    SqrtModel,
    _lift_components,
    _log_factor,
    _sqrt_factor,
    _stacked,
)
from .paths import NPartPath, _json_number
from .quat import Quaternion, as_quaternion, embed_slice, hamilton_components, quat_inverse, quaternion_rows, row_norm2
from .stemtensor import (
    ARRAY_KERNEL_PAIRS,
    StemValue,
    max_norms,
    nan_max,
    sigma_matrix,
    slot_imaginary,
    star_kernel,
    star_vector,
)
from .stems import stem_derivative_family
from .tolerances import FD_STEP, ON_AXIS_TOL, SYMMETRIZATION_ZERO_TOL


def _horner(rows: list, q: tuple) -> tuple:
    """Right-coefficient Horner a0 + q*(a1 + q*(a2 + ...)) on (w, x, y, z) components, floats or arrays.

    `rows` are the coefficients' (w, x, y, z) as Python floats, as `components.tolist()` gives them.
    """
    acc = (0.0, 0.0, 0.0, 0.0)
    for aw, ax, ay, az in reversed(rows):
        h = hamilton_components(q, acc)
        acc = (h[0] + aw, h[1] + ax, h[2] + ay, h[3] + az)
    return acc


def _poly_derivative(rows: list, n: int) -> list:
    """The n-th slice derivative of coefficient rows as `_horner` takes them.

    Each pass drops a_0 and multiplies a_k by float(k) once, as `Quaternion * float` does;
    once no coefficient is left, the derivative is one zero row.
    """
    for _ in range(n):
        rows = [[w * k, x * k, y * k, z * k] for k, (w, x, y, z) in zip(map(float, range(1, len(rows))), rows[1:])]
        if not rows:
            return [[0.0, 0.0, 0.0, 0.0]]
    return rows


def _trimmed(rows: np.ndarray) -> np.ndarray:
    """A (K, 4) array without trailing rows of `row_norm2` 0.0, down to one row; one zero row for none."""
    n = len(rows)
    while n > 1 and row_norm2(rows[n - 1].tolist()) == 0.0:
        n -= 1
    return rows[:n] if n else np.zeros((1, 4))


def _poly(rows: list) -> "SliceRegularPoly":
    """The polynomial of (w, x, y, z) rows of Python floats computed inside slicekit."""
    return SliceRegularPoly._of(_trimmed(np.array(rows)))


@dataclass(frozen=True, eq=False)
class SliceRegularPoly(SliceFunctionModel):
    """Entire slice regular polynomial q -> sum q**n * a_n, held as the read-only (K, 4) float64 array
    `components` of the (w, x, y, z) of a_0 .. a_(K-1).

    The constructor takes a (K, 4) array or K quaternion-likes (reals, 4-sequences, `Quaternion`s and
    `ImaginaryUnit`s) and copies them; another array shape is a ShapeMismatch.  Trailing coefficients with
    `row_norm2` 0.0 are dropped, down to one.  `coefficients` builds the `Quaternion`s on read.
    Every operation gives the bits of per-coefficient `Quaternion` arithmetic; -0.0 == 0.0 and NaN is unequal.

    It is also the entire model of `monodromy`: single valued, with no sheet datum, and continuable
    from any real start.
    """

    components: np.ndarray

    kind = "polynomial"
    datum_kind = "none"

    def __post_init__(self):
        components = _trimmed(quaternion_rows(self.components))
        components.setflags(write=False)
        object.__setattr__(self, "components", components)

    @classmethod
    def _of(cls, rows: np.ndarray) -> "SliceRegularPoly":
        """The polynomial of a trimmed (K, 4) float64 array made inside slicekit: no copy and no check."""
        poly = object.__new__(cls)
        rows.setflags(write=False)
        object.__setattr__(poly, "components", rows)
        return poly

    @property
    def coefficients(self) -> tuple[Quaternion, ...]:
        """The coefficients as `Quaternion`s, built from `components` on every read."""
        return tuple(Quaternion(*q) for q in self.components.tolist())

    @property
    def degree(self) -> int:
        return len(self.components) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, SliceRegularPoly) and np.array_equal(self.components, other.components)

    def __call__(self, q) -> Quaternion:
        q = as_quaternion(q)
        return Quaternion(*_horner(self.components.tolist(), (q.w, q.x, q.y, q.z)))

    def __add__(self, other: "SliceRegularPoly") -> "SliceRegularPoly":
        a, b = self.components.tolist(), other.components.tolist()
        if len(a) < len(b):
            a, b = b, a
        summed = [[aw + bw, ax + bx, ay + by, az + bz] for (aw, ax, ay, az), (bw, bx, by, bz) in zip(a, b)]
        return _poly(summed + a[len(b) :])

    def __sub__(self, other: "SliceRegularPoly") -> "SliceRegularPoly":
        return self + (-other)

    def __neg__(self) -> "SliceRegularPoly":
        return SliceRegularPoly._of(np.negative(self.components))  # every row_norm2 is kept: still trimmed

    def __mul__(self, other: "SliceRegularPoly") -> "SliceRegularPoly":
        return star_product(self, other)

    def scale(self, factor: float) -> "SliceRegularPoly":
        return _poly([[w * factor, x * factor, y * factor, z * factor] for w, x, y, z in self.components.tolist()])

    def initial_datum(self) -> None:
        return None

    def accepts_start(self, x0: float) -> bool:
        return True

    def derivative_values(self, states, r, theta, n):
        # projected points: the complex point as `SheetStates.complex_point` computes it, embedded as `embed_slice` does
        points = [x * cmath.exp(1j * t) for x, t in zip(r.ravel().tolist(), theta.ravel().tolist())]
        x = np.array([z.real for z in points], dtype=float).reshape(r.shape)
        y = np.array([z.imag for z in points], dtype=float).reshape(r.shape)
        uw, ux, uy, uz = _lift_components(states.units)
        q = (x + y * uw, y * ux, y * uy, y * uz)
        return _stacked(_horner(_poly_derivative(self.components.tolist(), n), q))

    def to_json_obj(self) -> dict:
        return {"coeffs": self.components.tolist()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SliceRegularPoly":
        coeffs = obj.get("coeffs") if isinstance(obj, dict) else None
        if not isinstance(coeffs, list) or any(not isinstance(c, list) or len(c) != 4 for c in coeffs):
            raise ValueError('polynomial JSON must be {"coeffs": [[w, x, y, z], ...]}')
        numbers = list(itertools.chain.from_iterable(coeffs))
        # finite floats pass in one sweep at C speed; anything else takes the exact check and its message
        if not (set(map(type, numbers)) <= {float} and all(map(math.isfinite, numbers))):
            for value in numbers:
                _json_number(value)
        return cls._of(_trimmed(np.array(numbers, dtype=np.float64).reshape(-1, 4)))

    @classmethod
    def constant(cls, value) -> "SliceRegularPoly":
        return cls((value,))

    @classmethod
    def identity(cls) -> "SliceRegularPoly":
        return cls((0.0, 1.0))


ONE_POLY = SliceRegularPoly((1.0,))


def star_product(f: SliceRegularPoly, g: SliceRegularPoly) -> SliceRegularPoly:
    """Coefficient convolution c_n = sum_k a_k * b_(n-k), order preserved.

    Each c_n sums over k in increasing order from +0.0, skipping zero a_k
    (but not zero b_(n-k)); each term is the Hamilton product a_k * b_(n-k)
    with the float expressions of `hamilton_product`, on Python floats.  From
    `ARRAY_KERNEL_PAIRS` live pairs (nonzero a_k times all b) on,
    `star_kernel` forms the same sums in one array pass.
    """
    a = f.components.tolist()
    live = [k for k, row in enumerate(a) if row_norm2(row) != 0.0]
    length = len(g.components)
    size = len(a) + length - 1
    if len(live) * length >= ARRAY_KERNEL_PAIRS:
        out = np.add.outer(live, np.arange(length))  # a_k * b_j goes to c_(k + j)
        return SliceRegularPoly._of(_trimmed(star_kernel(f.components[live], g.components, out, size)))
    b = g.components.tolist()
    acc = [[0.0, 0.0, 0.0, 0.0] for _ in range(size)]
    for k in live:
        aw, ax, ay, az = a[k]
        for out, (bw, bx, by, bz) in zip(acc[k : k + length], b):
            out[0] += aw * bw - ax * bx - ay * by - az * bz
            out[1] += aw * bx + ax * bw + ay * bz - az * by
            out[2] += aw * by - ax * bz + ay * bw + az * bx
            out[3] += aw * bz + ax * by - ay * bx + az * bw
    return _poly(acc)


def regular_conjugate(f: SliceRegularPoly) -> SliceRegularPoly:
    """Coefficientwise quaternion conjugation: x, y and z change sign, as `Quaternion.conjugate` does."""
    rows = np.negative(f.components)
    rows[:, 0] = f.components[:, 0]
    return SliceRegularPoly._of(rows)  # every row_norm2 is kept: still trimmed


def symmetrization(f: SliceRegularPoly) -> SliceRegularPoly:
    """f * f^c; coefficients come out real."""
    return star_product(f, regular_conjugate(f))


def slice_derivative(f: SliceRegularPoly, n: int = 1) -> SliceRegularPoly:
    """n-th slice derivative: a_k -> (k+n)!/k! * a_(k+n)."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    return _poly(_poly_derivative(f.components.tolist(), n))


def leibniz(f: SliceRegularPoly, g: SliceRegularPoly, n: int) -> SliceRegularPoly:
    """sum_m binom(n, m) f^(m) * g^(n-m); equals the derivative of f * g."""
    acc = SliceRegularPoly(())
    for m in range(n + 1):
        term = star_product(slice_derivative(f, m), slice_derivative(g, n - m))
        acc = acc + term.scale(float(math.comb(n, m)))
    return acc


# -- axially symmetric domains and the reciprocal ---------------------------


@dataclass(frozen=True)
class AxSymDomain:
    """Axially symmetric arena: a real-centered ball, a sigma-ball, or H."""

    kind: str
    center: complex = 0j  # complex representative x + y*i, y >= 0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ball", "sigma_ball", "whole"):
            raise ValueError(f"domain kind must be 'ball', 'sigma_ball' or 'whole', got {self.kind!r}")
        if not (isinstance(self.center, numbers.Complex) and cmath.isfinite(self.center)):
            raise ValueError(f"domain centre must be a finite number, got {self.center!r}")
        finite_radius = isinstance(self.radius, numbers.Real) and math.isfinite(self.radius) and self.radius > 0
        if self.kind != "whole" and not finite_radius:
            raise ValueError(f"{self.kind} radius must be finite and positive, got {self.radius!r}")

    @classmethod
    def ball(cls, x0: float, radius: float) -> "AxSymDomain":
        return cls("ball", complex(x0, 0.0), radius)

    @classmethod
    def sigma_ball(cls, p: Quaternion, radius: float) -> "AxSymDomain":
        p = as_quaternion(p)
        return cls("sigma_ball", complex(p.w, p.imag_norm()), radius)

    @classmethod
    def whole(cls) -> "AxSymDomain":
        return cls("whole")

    def contains(self, q: Quaternion) -> bool:
        q = as_quaternion(q)
        return self._contains(complex(q.w, q.imag_norm()))

    def _contains(self, z: complex) -> bool:
        """Whether the complex representative z of a sphere x + y*S lies in the domain."""
        if self.kind == "whole":
            return True
        if self.kind == "ball":
            return abs(z - self.center) < self.radius
        return abs(z - self.center) < self.radius and abs(z.conjugate() - self.center) < self.radius

    def is_empty(self) -> bool:
        # a sigma-ball needs the conjugate pair of its center inside reach
        return self.kind == "sigma_ball" and self.center.imag >= self.radius

    def sample(self, rng: np.random.Generator, count: int) -> list[Quaternion]:
        if self.is_empty():
            raise ValueError(f"domain {self} is empty")
        out: list[Quaternion] = []
        rejections = 0
        while len(out) < count:
            if self.kind == "whole":
                v = rng.standard_normal(4)
                out.append(Quaternion(*v))
                continue
            z = self.center + self.radius * complex(*rng.uniform(-1, 1, 2))
            if not self._contains(z):
                rejections += 1
                if rejections > 10000 * (count + 1):
                    raise ValueError(f"sampling {self} keeps rejecting; domain nearly empty")
                continue
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            y = abs(z.imag)
            out.append(Quaternion(z.real, y * axis[0], y * axis[1], y * axis[2]))
        return out


class StarReciprocal:
    """Evaluable regular reciprocal f^-* = (f^s)^-1 * f^c."""

    def __init__(self, f: SliceRegularPoly, domain: AxSymDomain):
        self.f = f
        self.conjugate = regular_conjugate(f)
        self.symm = symmetrization(f)
        self.domain = domain

    def __call__(self, q) -> Quaternion:
        q = as_quaternion(q)
        return quat_inverse(self.symm(q)) * self.conjugate(q)


def _symmetrization_roots(sym: SliceRegularPoly) -> list[complex]:
    reals = sym.components[:, 0].tolist()
    if len(reals) <= 1:
        return []
    roots = np.roots(list(reversed(reals)))
    return [complex(r) for r in roots]


#: nested spheres of the reciprocal's zero probe, and the one direction probed on each.  f^s has
#: real coefficients, so containment and |f^s| at a point depend only on its real part and the
#: norm of its imaginary part: one direction decides for its whole sphere.  It is the first point
#: of a 512-point Fibonacci sphere, so the witness is the one a scan of that sphere finds first.
_PROBE_SHELLS = 8
_PROBE_Z = 1 - 1 / 512
_PROBE_DIRECTION = (math.sqrt(1 - _PROBE_Z * _PROBE_Z), 0.0, _PROBE_Z)


def _probe_zero(sym: SliceRegularPoly, domain: AxSymDomain) -> Quaternion | None:
    """The first shell point of a bounded domain where |sym| < SYMMETRIZATION_ZERO_TOL, or None.

    Shell by shell outward, center + Quaternion(0.0, *(r * d)) with d = `_PROBE_DIRECTION`; points outside are skipped.
    """
    center = Quaternion(domain.center.real)
    for shell in range(1, _PROBE_SHELLS + 1):
        r = domain.radius * shell / _PROBE_SHELLS * 0.999
        q = center + Quaternion(0.0, *(r * c for c in _PROBE_DIRECTION))
        if domain.contains(q) and sym(q).norm() < SYMMETRIZATION_ZERO_TOL:
            return q
    return None


def regular_reciprocal(f: SliceRegularPoly, domain: AxSymDomain) -> StarReciprocal:
    """Inverse in the star ring, guarded against symmetrization zeros.

    The symmetrization has real coefficients, so its zero spheres come from
    the complex roots; any root inside the domain aborts.  On bounded domains
    a deterministic shell probe additionally guards the near-zero case
    |f^s| < SYMMETRIZATION_ZERO_TOL: one point on each of nested spheres
    about the centre, enough because f^s has real coefficients (`_probe_zero`),
    and the first point below the cut-off, innermost first, is the witness.  A
    symmetrization that overflowed raises NonFiniteResult, its `index` the
    first coefficient holding inf or NaN.
    """
    sym = symmetrization(f)
    finite = np.isfinite(sym.components).all(axis=1)
    if not finite.all():
        index = int(np.argmin(finite))  # the first False
        message = f"symmetrization overflowed: coefficient {index} is {sym.components[index].tolist()}"
        raise NonFiniteResult(message, index=index)
    norms = [math.sqrt(row_norm2(row)) for row in sym.components.tolist()]
    if max(norms) < SYMMETRIZATION_ZERO_TOL:
        raise SymmetrizationZero("symmetrization is identically zero", witness=Quaternion())
    for root in _symmetrization_roots(sym):
        witness = Quaternion(root.real, abs(root.imag), 0.0, 0.0)
        if domain.contains(witness):
            raise SymmetrizationZero(f"symmetrization vanishes at {witness!r}", witness=witness)
    if domain.kind != "whole":
        witness = _probe_zero(sym, domain)
        if witness is not None:
            raise SymmetrizationZero(f"symmetrization below 1e-9 at {witness!r}", witness=witness)
    return StarReciprocal(f, domain)


def star_eval(f_at: Callable, g_at: Callable, q: Quaternion) -> Quaternion:
    """Pointwise star product of two evaluable slice functions.

    Uses the conjugated-argument form f(q) * g(f(q)^-1 q f(q)); valid on
    schlicht axially symmetric domains, requires f(q) != 0.
    """
    q = as_quaternion(q)
    fq = f_at(q)
    return fq * g_at(quat_inverse(fq) * q * fq)


# -- Taylor series ------------------------------------------------------------


def _principal_derivative(model: SliceFunctionModel, z0: complex, n: int) -> complex:
    if isinstance(model, SqrtModel):
        coeff, power = _sqrt_factor(n)
        return coeff * z0**power
    if isinstance(model, LogModel):
        if n == 0:
            return cmath.log(z0)
        return _log_factor(n) * z0 ** (-n)
    raise TypeError(f"no principal-branch derivatives for {model!r}")


def _slice_split(q: Quaternion) -> tuple[complex, Quaternion]:
    """Complex coordinate and slice unit of a quaternion (unit i for reals)."""
    y = q.imag_norm()
    if y < ON_AXIS_TOL:
        return complex(q.w, 0.0), Quaternion(0, 1, 0, 0)
    return complex(q.w, y), Quaternion(0, q.x / y, q.y / y, q.z / y)


def taylor_eval(f_model, q0, q, terms: int) -> Quaternion:
    """Star-power Taylor sum around q0 truncated to `terms` terms.

    For polynomials the series is finite and exact.  For the square root and
    logarithm, q0 must sit in the open right half of its slice plane and q in
    the sigma-ball limited by the branch point.
    """
    q0 = as_quaternion(q0)
    q = as_quaternion(q)
    if isinstance(f_model, SliceRegularPoly):
        derivatives = [slice_derivative(f_model, n)(q0) for n in range(terms)]
    else:
        z0, unit0 = _slice_split(q0)
        if z0.real <= 0:
            raise OutOfBall(f"expansion point {q0!r} outside the principal half plane")
        r_valid = abs(z0) if abs(z0.imag) < ON_AXIS_TOL else min(abs(z0), z0.real)
        zq, _ = _slice_split(q)
        if abs(zq - z0) >= r_valid or abs(zq.conjugate() - z0) >= r_valid:
            raise OutOfBall(f"{q!r} outside the sigma-ball of radius {r_valid:g} at {q0!r}")
        derivatives = [
            embed_slice(_principal_derivative(f_model, z0, n), unit0) for n in range(terms)
        ]
    # star powers evaluated by the conjugated-argument recursion
    #   p_(k+1) = p_k * h(p_k^-1 q p_k),  h(q) = q - q0,
    # which sidesteps the catastrophic cancellation of expanded coefficients;
    # once a power vanishes, so do all later ones.
    acc = derivatives[0]
    power = Quaternion(1.0)
    factorial = 1.0
    for n in range(1, terms):
        factorial *= n
        size = power.norm()
        if size < 1e-250:  # 1 / size would overflow, and every later power is zero too
            break
        unit = power * (1.0 / size)  # conjugation only needs the direction
        moved = unit.conjugate() * q * unit if n > 1 else q
        power = power * (moved - q0)
        acc = acc + power * derivatives[n] * (1.0 / factorial)
    return acc


# -- stem / tensor series equivalence -----------------------------------------


#: points on the circle of radius 0.9 * radius where both series are resummed
_SERIES_SAMPLES = 8


@dataclass(frozen=True)
class SeriesReport:
    stem_series_residual: float
    tensor_series_residual: float
    route_deviation: float
    terms: int
    samples: int


def stem_series_check(
    model: SliceFunctionModel,
    path: NPartPath,
    radius: float,
    terms: int = 30,
) -> SeriesReport:
    """Compare the three derivative routes and both series expansions.

    The slice route (closed-form derivatives pushed through the invariant
    vector) supplies the coefficients; the stem route differentiates the
    vector directly, the tensor route multiplies by the slot-N imaginary with
    `star_vector`.  The series are then resummed with the matrix substitution
    x + y*sigma and the tensor substitution x + y * i_slotN respectively.
    Worst cases fold with `nan_max`, so a NaN in the family gives NaN residuals.
    """
    n_parts = path.parts
    family = stem_derivative_family(model, path, radius)
    z0 = path.endpoint
    sigma = sigma_matrix(n_parts).astype(float)
    h = FD_STEP
    angles = [2 * math.pi * k / _SERIES_SAMPLES for k in range(_SERIES_SAMPLES)]
    points = [z0 + 0.9 * radius * complex(math.cos(phi), math.sin(phi)) for phi in angles]
    # the derivatives at the disk center, orders 0..terms-1 for the series and 1, 2 for the routes: one continuation
    at_center = family([z0], range(max(terms, 3)))[:, 0]
    steps = family([z0 + h, z0 - h, z0 + h * 1j, z0 - h * 1j], (0, 1))
    direct = family(points)
    slot_n = slot_imaginary(n_parts, n_parts)
    one = StemValue.basis(n_parts, 1)
    coeffs = [StemValue._of(n_parts, c) for c in at_center[:terms]]
    with np.errstate(all="ignore"):  # overflow stays silent, as in `StemValue` arithmetic; NaN reaches the residuals
        # route agreement at the disk center, for the first and second derivative: steps[k] is order k
        fx = (steps[:, 0] - steps[:, 1]) * (0.5 / h)
        fy = (steps[:, 2] - steps[:, 3]) * (0.5 / h)
        stem_route = (fx - sigma @ fy) * 0.5
        tensor_route = (fx - np.array([star_vector(slot_n, StemValue._of(n_parts, v)).components for v in fy])) * 0.5
        route_dev = nan_max(max_norms(stem_route - at_center[1:3]) + max_norms(tensor_route - at_center[1:3]))

        # series resummation on sample points: x + y*sigma as a matrix, x + y*i_N through `star_vector`
        # 1 / n! for n < terms, with n! the running float product 1.0 * 1 * 2 * ... * n
        weights = [1.0 / f for f in itertools.accumulate(range(1, terms), operator.mul, initial=1.0)][:terms]
        offset = np.array(points) - z0
        step = offset.real[:, None, None] * np.eye(len(sigma)) + offset.imag[:, None, None] * sigma
        acc, mat = np.zeros_like(direct), np.eye(len(sigma))
        for n, weight in enumerate(weights):
            if n > 0:
                mat = mat @ step
            acc = acc + (mat @ at_center[n]) * weight
        tensor = []
        for x, y in zip(offset.real.tolist(), offset.imag.tolist()):
            z_step = StemValue._of(n_parts, one.components * x + slot_n.components * y)
            tacc, tpow = np.zeros_like(direct[0]), one
            for n, weight in enumerate(weights):
                if n > 0:
                    tpow = star_vector(tpow, z_step)
                tacc = tacc + star_vector(tpow, coeffs[n]).components * weight
            tensor.append(tacc)
        stem_res, tensor_res = (nan_max(max_norms(series - direct)) for series in (acc, np.array(tensor)))
    return SeriesReport(stem_res, tensor_res, route_dev, terms, _SERIES_SAMPLES)

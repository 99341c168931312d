"""Polynomial slice-regular calculus: star ring, conjugation, series.

Polynomials sum q**n * a_n with coefficients on the right; they are entire,
so every construction here lives on axially symmetric schlicht domains where
the star product is just coefficient convolution (the unique regular
extension of the pointwise product on the real axis).

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfBall, SymmetrizationZero
from .monodromy import (
    LogModel,
    PolynomialModel,
    SliceFunctionModel,
    SqrtModel,
    _horner,
    _log_factor,
    _mapped,
    _poly_derivative,
    _sqrt_factor,
)
from .paths import NPartPath, _json_number
from .quat import Quaternion, as_quaternion, embed_slice, quat_inverse
from .stemtensor import (
    ARRAY_KERNEL_PAIRS,
    StemValue,
    apply_real_matrix,
    sigma_matrix,
    slot_imaginary,
    star_kernel,
    star_vector,
)
from .stems import stem_derivative_family
from .tolerances import FD_STEP, ON_AXIS_TOL, SYMMETRIZATION_ZERO_TOL


def _trim(coeffs: tuple[Quaternion, ...]) -> tuple[Quaternion, ...]:
    n = len(coeffs)
    while n > 1 and coeffs[n - 1].norm2() == 0.0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class SliceRegularPoly:
    """Entire slice regular polynomial q -> sum q**n * a_n."""

    coefficients: tuple[Quaternion, ...]

    def __post_init__(self):
        coeffs = tuple(as_quaternion(c) for c in self.coefficients) or (Quaternion(),)
        object.__setattr__(self, "coefficients", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, q) -> Quaternion:
        q = as_quaternion(q)
        return Quaternion(*_horner(self.coefficients, (q.w, q.x, q.y, q.z)))

    def __add__(self, other: "SliceRegularPoly") -> "SliceRegularPoly":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for idx, coeff in enumerate(b):
            merged[idx] = merged[idx] + coeff
        return SliceRegularPoly(tuple(merged))

    def __sub__(self, other: "SliceRegularPoly") -> "SliceRegularPoly":
        return self + (-other)

    def __neg__(self) -> "SliceRegularPoly":
        return SliceRegularPoly(tuple(-c for c in self.coefficients))

    def __mul__(self, other: "SliceRegularPoly") -> "SliceRegularPoly":
        return star_product(self, other)

    def scale(self, factor: float) -> "SliceRegularPoly":
        return SliceRegularPoly(tuple(c * factor for c in self.coefficients))

    def to_json_obj(self) -> dict:
        return {"coeffs": [c.to_list() for c in self.coefficients]}

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
        return cls(tuple(Quaternion(*c) for c in coeffs))

    @classmethod
    def constant(cls, value) -> "SliceRegularPoly":
        return cls((as_quaternion(value),))

    @classmethod
    def identity(cls) -> "SliceRegularPoly":
        return cls((Quaternion(), Quaternion(1.0)))


ONE_POLY = SliceRegularPoly((Quaternion(1.0),))


def star_product(f: SliceRegularPoly, g: SliceRegularPoly) -> SliceRegularPoly:
    """Coefficient convolution c_n = sum_k a_k * b_(n-k), order preserved.

    Each c_n sums over k in increasing order, skipping zero a_k (but not zero
    b_(n-k)); each term is the Hamilton product a_k * b_(n-k) with the float
    expressions of `hamilton_product`.  From `ARRAY_KERNEL_PAIRS` live pairs
    (nonzero a_k times all b) on, `star_kernel` forms the same sums in one
    array pass.
    """
    a, b = f.coefficients, g.coefficients
    live = [k for k, ak in enumerate(a) if ak.norm2() != 0.0]
    if len(live) * len(b) >= ARRAY_KERNEL_PAIRS:
        out = np.add.outer(live, np.arange(len(b)))  # a_k * b_j goes to c_(k + j)
        # (rows, 4) operands built from one list per component: numpy converts four lists faster than 4-tuples
        left, right = (
            np.array([[q.w for q in c], [q.x for q in c], [q.y for q in c], [q.z for q in c]]).T for c in (a, b)
        )
        acc = star_kernel(left[live], right, out, len(a) + len(b) - 1).tolist()
    else:
        acc = [[0.0, 0.0, 0.0, 0.0] for _ in range(len(a) + len(b) - 1)]
        right = [(q.w, q.x, q.y, q.z) for q in b]
        for k in live:
            ak = a[k]
            aw, ax, ay, az = ak.w, ak.x, ak.y, ak.z
            for out, (bw, bx, by, bz) in zip(acc[k : k + len(b)], right):
                out[0] += aw * bw - ax * bx - ay * by - az * bz
                out[1] += aw * bx + ax * bw + ay * bz - az * by
                out[2] += aw * by - ax * bz + ay * bw + az * bx
                out[3] += aw * bz + ax * by - ay * bx + az * bw
    return SliceRegularPoly(tuple([Quaternion(*out) for out in acc]))


def regular_conjugate(f: SliceRegularPoly) -> SliceRegularPoly:
    """Coefficientwise quaternion conjugation."""
    return SliceRegularPoly(tuple(c.conjugate() for c in f.coefficients))


def symmetrization(f: SliceRegularPoly) -> SliceRegularPoly:
    """f * f^c; coefficients come out real."""
    return star_product(f, regular_conjugate(f))


def slice_derivative(f: SliceRegularPoly, n: int = 1) -> SliceRegularPoly:
    """n-th slice derivative: a_k -> (k+n)!/k! * a_(k+n)."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    return SliceRegularPoly(_poly_derivative(f.coefficients, n))


def leibniz(f: SliceRegularPoly, g: SliceRegularPoly, n: int) -> SliceRegularPoly:
    """sum_m binom(n, m) f^(m) * g^(n-m); equals the derivative of f * g."""
    acc = SliceRegularPoly((Quaternion(),))
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
        z = complex(q.w, q.imag_norm())
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
            candidate_ok = abs(z - self.center) < self.radius and (
                self.kind == "ball" or abs(z.conjugate() - self.center) < self.radius
            )
            if not candidate_ok:
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
    reals = [c.w for c in sym.coefficients]
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

    Shell by shell outward, the points are center + Quaternion(0.0, *(r * d))
    of a scalar loop, d = `_PROBE_DIRECTION`.  All of them are formed as
    arrays in one pass, in the same float operations: containment as
    `AxSymDomain.contains` decides it (Python's complex `abs`, which numpy's
    differs from in the last bit), and the Horner sum `_horner` on their
    components.
    """
    cx, cy = domain.center.real, domain.center.imag
    radii = np.array([domain.radius * shell / _PROBE_SHELLS * 0.999 for shell in range(1, _PROBE_SHELLS + 1)])
    x, y, z = (0.0 + radii[:, None] * np.array(_PROBE_DIRECTION)).T
    w = np.full(len(x), cx + 0.0)
    imag = np.sqrt(x * x + y * y + z * z)
    offset = np.empty(len(x), dtype=complex)
    offset.real = w - cx
    offset.imag = imag - cy
    inside = _mapped(abs, offset) < domain.radius
    if domain.kind == "sigma_ball":  # the conjugate point z.conjugate() lies inside too
        offset.imag = -imag - cy
        inside &= _mapped(abs, offset) < domain.radius
    point = tuple(c[inside] for c in (w, x, y, z))
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow to inf and nan silently too
        aw, ax, ay, az = _horner(sym.coefficients, point)
        below = np.flatnonzero(np.sqrt(aw * aw + ax * ax + ay * ay + az * az) < SYMMETRIZATION_ZERO_TOL)
    return Quaternion(*(float(c[below[0]]) for c in point)) if len(below) else None


def regular_reciprocal(f: SliceRegularPoly, domain: AxSymDomain) -> StarReciprocal:
    """Inverse in the star ring, guarded against symmetrization zeros.

    The symmetrization has real coefficients, so its zero spheres come from
    the complex roots; any root inside the domain aborts.  On bounded domains
    a deterministic shell probe additionally guards the near-zero case
    |f^s| < SYMMETRIZATION_ZERO_TOL: one point on each of nested spheres
    about the centre, enough because f^s has real coefficients, every point
    tested and evaluated in one array pass (`_probe_zero`), and the first
    point below the cut-off, innermost first, is the witness.
    """
    sym = symmetrization(f)
    if max(c.norm() for c in sym.coefficients) < SYMMETRIZATION_ZERO_TOL:
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
    elif isinstance(f_model, PolynomialModel):
        return taylor_eval(SliceRegularPoly(f_model.coefficients), q0, q, terms)
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

    def to_dict(self) -> dict:
        return {
            "stem_series_residual": self.stem_series_residual,
            "tensor_series_residual": self.tensor_series_residual,
            "route_deviation": self.route_deviation,
            "terms": self.terms,
            "samples": self.samples,
        }


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
    """
    n_parts = path.parts
    family = stem_derivative_family(model, path, radius)

    z0 = path.endpoint
    sigma = sigma_matrix(n_parts).astype(float)
    size = 1 << n_parts
    # the derivatives at the disk center, orders 0..terms-1 for the series and 1, 2 for the routes: one continuation
    at_center = [StemValue(n_parts, v) for v in family([z0], range(max(terms, 3)))[:, 0]]

    # route agreement at the disk center, for the first and second derivative
    h = FD_STEP
    route_dev = 0.0
    slot_n = slot_imaginary(n_parts, n_parts)
    steps = family([z0 + h, z0 - h, z0 + h * 1j, z0 - h * 1j], (0, 1))
    for order in (1, 2):
        east, west, north, south = (StemValue(n_parts, v) for v in steps[order - 1])
        fx = (east - west).scale(0.5 / h)
        fy = (north - south).scale(0.5 / h)
        stem_route = (fx - apply_real_matrix(sigma, fy)).scale(0.5)
        tensor_route = (fx - star_vector(slot_n, fy)).scale(0.5)
        slice_route = at_center[order]
        route_dev = max(
            route_dev, (stem_route - slice_route).max_norm(), (tensor_route - slice_route).max_norm()
        )

    # series resummation on sample points
    coeffs = at_center[:terms]
    zero = StemValue(n_parts, np.zeros((size, 4)))
    one = StemValue.basis(n_parts, 1)
    stem_res = 0.0
    tensor_res = 0.0
    angles = [2 * math.pi * k / _SERIES_SAMPLES for k in range(_SERIES_SAMPLES)]
    points = [z0 + 0.9 * radius * complex(math.cos(phi), math.sin(phi)) for phi in angles]
    for z, direct in zip(points, (StemValue(n_parts, v) for v in family(points))):
        dx, dy = (z - z0).real, (z - z0).imag

        step = dx * np.eye(size) + dy * sigma
        acc = zero
        mat = np.eye(size)
        factorial = 1.0
        for n in range(terms):
            if n > 0:
                mat = mat @ step
                factorial *= n
            acc = acc + apply_real_matrix(mat, coeffs[n]).scale(1.0 / factorial)
        stem_res = max(stem_res, (acc - direct).max_norm())

        z_step = one.scale(dx) + slot_n.scale(dy)
        tacc = zero
        tpow = one
        factorial = 1.0
        for n in range(terms):
            if n > 0:
                tpow = star_vector(tpow, z_step)
                factorial *= n
            tacc = tacc + star_vector(tpow, coeffs[n]).scale(1.0 / factorial)
        tensor_res = max(tensor_res, (tacc - direct).max_norm())

    return SeriesReport(
        stem_series_residual=stem_res,
        tensor_series_residual=tensor_res,
        route_deviation=route_dev,
        terms=terms,
        samples=_SERIES_SAMPLES,
    )

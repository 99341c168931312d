"""Multi-sheet continuation of slice functions along lifted paths.

Instead of naming sheets explicitly, a state keeps universal-cover
coordinates (r, theta) for the complex position together with the current
slice unit and a sheet datum.  The square root composes its datum
multiplicatively, the logarithm additively, and polynomials carry none.
Switching slices is only allowed at nonzero real points, where the
coordinates snap back to theta in {0, pi} and the datum absorbs whatever the
value requires; germ keys (projected point, value) then identify points of
the underlying multi-sheet domain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    BranchPoint,
    BranchPointCrossing,
    LengthMismatch,
    NotAtRealPoint,
)
from .paths import NPartPath, PathSegment
from .quat import Quaternion, as_quaternion, embed_slice, hamilton_components, quat_inverse, unit_exp
from .tolerances import AT_CENTER_TOL, BRANCH_TOL, GERM_TOL, REAL_TOL, SEGMENT_START_TOL, START_TOL


@dataclass(frozen=True)
class SheetState:
    """Covering coordinates plus slice unit and sheet datum."""

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


@dataclass(frozen=True)
class GermKey:
    """(projected point, value) pair naming a point of the quotient domain."""

    point: Quaternion
    value: Quaternion

    def isclose(self, other: "GermKey") -> bool:
        return (self.point - other.point).norm() <= GERM_TOL and (self.value - other.value).norm() <= GERM_TOL


def _poly_eval(coeffs: Sequence[Quaternion], q: Quaternion) -> Quaternion:
    """Right-coefficient Horner: a0 + q*(a1 + q*(a2 + ...))."""
    acc = Quaternion()
    for a in reversed(coeffs):
        acc = q * acc + a
    return acc


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """fn of every entry, through Python floats: numpy's power, log and hypot differ in the last bit."""
    return np.array(list(map(fn, values.ravel().tolist())), dtype=float).reshape(values.shape)


def _lift_components(quaternions: Sequence[Quaternion]) -> tuple[np.ndarray, ...]:
    """(w, x, y, z) of one quaternion per lift, each an (L, 1) column broadcasting over the points."""
    table = np.array([(q.w, q.x, q.y, q.z) for q in quaternions], dtype=float)
    return tuple(table[:, k, None] for k in range(4))


def _unit_exp_components(angle: np.ndarray, units: Sequence[Quaternion]) -> tuple[np.ndarray, ...]:
    """`unit_exp` of every angle[l, p] along units[l], as (w, x, y, z) arrays."""
    c, s = _mapped(math.cos, angle), _mapped(math.sin, angle)
    _, ux, uy, uz = _lift_components(units)
    return c, s * ux, s * uy, s * uz


def _stacked(components: tuple) -> np.ndarray:
    """(L, P, 4) array from four (w, x, y, z) arrays of shape (L, P) or broadcasting to it."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def _sqrt_factor(n: int) -> tuple[float, float]:
    """(coefficient, power) of the n-th derivative of the square root: coefficient * r**power."""
    coeff = 1.0
    for k in range(n):
        coeff *= 0.5 - k
    return coeff, 0.5 - n


def _log_factor(n: int) -> float:
    """(-1)**(n - 1) * (n - 1)!, the coefficient of the n-th derivative of the logarithm (n >= 1).

    From n = 172, where (n - 1)! exceeds the float range, it is +-inf, as the
    square root's coefficient overflows from n = 173.
    """
    try:
        size = float(math.factorial(n - 1))
    except OverflowError:
        size = math.inf
    return (-1.0) ** (n - 1) * size


def _poly_derivative(coeffs: Sequence[Quaternion], n: int) -> tuple[Quaternion, ...]:
    out = list(coeffs)
    for _ in range(n):
        out = [out[k] * float(k) for k in range(1, len(out))]
        if not out:
            return (Quaternion(),)
    return tuple(out)


class SliceFunctionModel:
    """Interface of the built-in continuable models."""

    kind: str
    datum_kind: str  # multiplicative | additive | none

    def initial_datum(self) -> Quaternion | None:
        raise NotImplementedError

    def accepts_start(self, x0: float) -> bool:
        raise NotImplementedError

    def value(self, state: SheetState) -> Quaternion:
        raise NotImplementedError

    def derivative_value(self, state: SheetState, n: int) -> Quaternion:
        """Value of the n-th slice derivative continued to the same sheet."""
        raise NotImplementedError

    def derivative_values(
        self, states: Sequence[SheetState], r: np.ndarray, theta: np.ndarray, n: int
    ) -> np.ndarray:
        """`derivative_value` on the sheet of states[l], moved to (r[l, p], theta[l, p]).

        r and theta have shape (L, P) for L states and P points; the result is
        the (L, P, 4) array of (w, x, y, z), bit for bit the scalar values.
        """
        raise NotImplementedError

    def datum_for(self, value: Quaternion, r: float, theta: float, unit: Quaternion) -> Quaternion | None:
        """Datum making the state at (r, theta, unit) take the given value."""
        raise NotImplementedError

    def is_branched(self) -> bool:
        return self.datum_kind != "none"


class SqrtModel(SliceFunctionModel):
    """Continuation of the square root; restriction to R+ is sqrt(x)."""

    kind = "sqrt"
    datum_kind = "multiplicative"

    def initial_datum(self) -> Quaternion:
        return Quaternion(1.0)

    def accepts_start(self, x0: float) -> bool:
        return x0 > 0.0

    def value(self, state: SheetState) -> Quaternion:
        return self.derivative_value(state, 0)

    def derivative_value(self, state: SheetState, n: int) -> Quaternion:
        coeff, power = _sqrt_factor(n)
        radial = coeff * state.r**power
        return radial * unit_exp(power * state.theta, state.unit) * state.datum

    def derivative_values(self, states, r, theta, n):
        coeff, power = _sqrt_factor(n)
        radial = coeff * _mapped(lambda x: x**power, r)
        rotation = tuple(e * radial for e in _unit_exp_components(power * theta, [s.unit for s in states]))
        return _stacked(hamilton_components(rotation, _lift_components([s.datum for s in states])))

    def datum_for(self, value: Quaternion, r: float, theta: float, unit: Quaternion) -> Quaternion:
        base = math.sqrt(r) * unit_exp(0.5 * theta, unit)
        return quat_inverse(base) * value


class LogModel(SliceFunctionModel):
    """Continuation of the natural logarithm; restriction to R+ is ln(x).

    Additive sheet data live in all of H, not just on the real axis: a slice
    switch at a negative point turns pi*K1 into the offset pi*K1 - pi*K2,
    which is genuinely non-real.  Restricting the datum to reals would break
    value continuity across switches, so no such restriction is imposed.
    """

    kind = "log"
    datum_kind = "additive"

    def initial_datum(self) -> Quaternion:
        return Quaternion(0.0)

    def accepts_start(self, x0: float) -> bool:
        return x0 > 0.0

    def value(self, state: SheetState) -> Quaternion:
        return Quaternion(math.log(state.r)) + state.theta * state.unit + state.datum

    def derivative_value(self, state: SheetState, n: int) -> Quaternion:
        if n == 0:
            return self.value(state)
        coeff = _log_factor(n)
        return coeff * state.r ** (-n) * unit_exp(-n * state.theta, state.unit)

    def derivative_values(self, states, r, theta, n):
        if n == 0:
            # Quaternion(log r) + theta * unit + datum, component by component
            uw, ux, uy, uz = _lift_components([s.unit for s in states])
            dw, dx, dy, dz = _lift_components([s.datum for s in states])
            log_r = _mapped(math.log, r)
            return _stacked(
                (log_r + uw * theta + dw, 0.0 + ux * theta + dx, 0.0 + uy * theta + dy, 0.0 + uz * theta + dz)
            )
        coeff = _log_factor(n)
        radial = coeff * _mapped(lambda x: x ** (-n), r)
        return _stacked(tuple(e * radial for e in _unit_exp_components(-n * theta, [s.unit for s in states])))

    def datum_for(self, value: Quaternion, r: float, theta: float, unit: Quaternion) -> Quaternion:
        return value - (Quaternion(math.log(r)) + theta * unit)


class PolynomialModel(SliceFunctionModel):
    """Entire model sum q**n * a_n with right coefficients; single valued."""

    kind = "polynomial"
    datum_kind = "none"

    def __init__(self, coefficients: Sequence[Quaternion]):
        self.coefficients = tuple(as_quaternion(c) for c in coefficients)

    def initial_datum(self) -> None:
        return None

    def accepts_start(self, x0: float) -> bool:
        return True

    def value(self, state: SheetState) -> Quaternion:
        return _poly_eval(self.coefficients, state.projected_point)

    def derivative_value(self, state: SheetState, n: int) -> Quaternion:
        return _poly_eval(_poly_derivative(self.coefficients, n), state.projected_point)

    def derivative_values(self, states, r, theta, n):
        # projected points: the complex point as SheetState computes it, embedded along each unit
        points = [x * cmath.exp(1j * t) for x, t in zip(r.ravel().tolist(), theta.ravel().tolist())]
        x = np.array([z.real for z in points], dtype=float).reshape(r.shape)
        y = np.array([z.imag for z in points], dtype=float).reshape(r.shape)
        uw, ux, uy, uz = _lift_components([s.unit for s in states])
        q = (x + y * uw, y * ux, y * uy, y * uz)
        acc = (0.0, 0.0, 0.0, 0.0)
        for a in reversed(_poly_derivative(self.coefficients, n)):
            acc = tuple(h + c for h, c in zip(hamilton_components(q, acc), (a.w, a.x, a.y, a.z)))
        return _stacked(acc)

    def datum_for(self, value: Quaternion, r: float, theta: float, unit: Quaternion) -> None:
        return None


def model_by_name(name: str, coefficients: Sequence[Quaternion] | None = None) -> SliceFunctionModel:
    if name == "sqrt":
        return SqrtModel()
    if name == "log":
        return LogModel()
    if name in ("poly", "polynomial"):
        if coefficients is None:
            raise ValueError("polynomial model needs coefficients")
        return PolynomialModel(coefficients)
    raise ValueError(f"unknown model {name!r}")


def initial_state(model: SliceFunctionModel, x0: float, unit: Quaternion) -> SheetState:
    """Canonical germ over a real starting point on the principal sheet."""
    if model.is_branched() and not model.accepts_start(x0):
        raise BranchPoint(f"model {model.kind} cannot start at {x0}")
    if x0 >= 0:
        r, theta = float(x0), 0.0
    else:
        r, theta = -float(x0), math.pi
    return SheetState(r=r, theta=theta, unit=unit, datum=model.initial_datum())


def continue_segment(model: SliceFunctionModel, state: SheetState, seg: PathSegment) -> SheetState:
    """Slide the state along one complex segment inside the current slice."""
    z_here = state.complex_point
    if abs(seg.start - z_here) > SEGMENT_START_TOL * max(1.0, abs(z_here)):
        raise ValueError(f"segment starts at {seg.start}, state sits at {z_here}")
    clearance = seg.min_distance_to_origin()
    if model.is_branched() and clearance <= BRANCH_TOL:
        message = f"segment passes within {clearance:g} of the branch point"
        raise BranchPointCrossing(message, clearance=clearance, tolerance=BRANCH_TOL)
    if clearance <= BRANCH_TOL:
        # entire model: winding is irrelevant, restart from the principal arg
        z_end = seg.end
        return replace(state, r=abs(z_end), theta=cmath.phase(z_end) if z_end != 0 else 0.0)
    return replace(state, r=abs(seg.end), theta=state.theta + seg.argument_increment())


def _center_plus(center: complex, t, d: np.ndarray) -> np.ndarray:
    """center + t * d for a real t, in the float operations of Python's complex arithmetic."""
    out = np.empty(d.shape, dtype=complex)
    out.real = center.real + (t * d.real - 0.0 * d.imag)
    out.imag = center.imag + (t * d.imag + 0.0 * d.real)
    return out


def continue_closing_lines(
    model: SliceFunctionModel, states: Sequence[SheetState], center: complex, points: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """Every state continued along the line from `center` to every point, as `continue_segment` does.

    Returns (r, theta), each of shape (len(states), len(points)).  The states
    sit at `center`, where every closing line starts; the caller checks that
    once per state.  A point within AT_CENTER_TOL of the centre keeps the
    states as they are.  The clearance of every closing line is computed at
    once, and the first point whose line comes within BRANCH_TOL of the branch
    point raises BranchPointCrossing with that `point`.  An entire model
    restarts from the principal argument there instead.
    """
    z = np.array(points, dtype=complex).reshape(-1)
    r = np.repeat(np.array([[s.r] for s in states], dtype=float), len(z), axis=1)
    theta = np.repeat(np.array([[s.theta] for s in states], dtype=float), len(z), axis=1)
    d = z - center
    moved = np.flatnonzero(~(_mapped(abs, d) < AT_CENTER_TOL))  # written so that NaN moves, as in a per-point test
    if not len(moved):
        return r, theta
    d = d[moved]
    # Line(center, z).min_distance_to_origin() and Line(center, z).end, in the float operations Python does
    t = -(center.real * d.real + center.imag * d.imag) / _mapped(lambda x: abs(x) ** 2, d)
    t = np.where(t < 1.0, t, 1.0)  # max(0.0, min(1.0, t)), NaN included
    t = np.where(t > 0.0, t, 0.0)
    clearance = _mapped(abs, _center_plus(center, t, d))
    end = _center_plus(center, 1.0, d)
    crossing = clearance <= BRANCH_TOL
    if model.is_branched() and crossing.any():
        first = int(np.argmax(crossing))
        nearest = float(clearance[first])
        message = f"segment passes within {nearest:g} of the branch point"
        raise BranchPointCrossing(message, clearance=nearest, tolerance=BRANCH_TOL, point=points[moved[first]])
    r[:, moved] = _mapped(abs, end)
    turned = moved[~crossing]
    theta[:, turned] += [cmath.phase(w / center) for w in z[turned].tolist()]
    theta[:, moved[crossing]] = [cmath.phase(w) if w != 0 else 0.0 for w in end[crossing].tolist()]
    return r, theta


def junction_switch(model: SliceFunctionModel, state: SheetState, new_unit: Quaternion) -> SheetState:
    """Re-anchor the germ at a real point into another slice.

    Coordinates snap to theta in {0, pi}; the datum is re-solved so the value
    is continuous across the switch.
    """
    if state.r <= BRANCH_TOL or abs(math.sin(state.theta)) > REAL_TOL:
        raise NotAtRealPoint(f"projected point {state.complex_point} is not real and nonzero")
    theta_new = 0.0 if math.cos(state.theta) > 0 else math.pi
    value = model.value(state)
    datum = model.datum_for(value, state.r, theta_new, new_unit)
    return SheetState(r=state.r, theta=theta_new, unit=new_unit, datum=datum)


def final_state(
    model: SliceFunctionModel,
    path: NPartPath,
    units: Sequence[Quaternion],
    x0: float | None = None,
) -> SheetState:
    """Fold continuation and junction switches over the parts of a lift."""
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
            state = junction_switch(model, state, units[part])
        try:
            state = continue_segment(model, state, seg)
        except BranchPointCrossing as crossing:
            crossing.segment = part
            raise
    return state


def evaluate_lifted(
    model: SliceFunctionModel,
    path: NPartPath,
    units: Sequence[Quaternion],
    x0: float | None = None,
) -> Quaternion:
    """Value of the continued function at the endpoint of the lifted path."""
    return model.value(final_state(model, path, units, x0))


def germ_key(model: SliceFunctionModel, state: SheetState) -> GermKey:
    return GermKey(point=state.projected_point, value=model.value(state))

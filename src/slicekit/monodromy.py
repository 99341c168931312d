"""Multi-sheet continuation of slice functions along lifted paths.

Instead of naming sheets explicitly, the states of L lifts keep one pair of
universal-cover coordinates (r, theta) for the complex position together
with each lift's current slice unit and sheet datum.  The square root
composes its datum multiplicatively and the logarithm additively; the entire
model, the polynomial `calculus.SliceRegularPoly`, carries none.  This module
holds the continuation and the two branched models, and no polynomial
formula.  Switching slices is only allowed at nonzero real points, where the
coordinates snap back to theta in {0, pi} and the datum absorbs whatever the
value requires; germ keys (projected point, value) then identify points of
the underlying multi-sheet domain.

The track (r, theta) depends on the path alone: a segment adds its argument
increment and a junction snaps theta by its cosine, whatever the slice.  So
`final_states` continues the track of a path once and carries the L lifts
along it as two (L, 4) arrays, their units and their data; only those go
through the junction switches.

Each model writes its closed forms once, as `derivative_values`: the value
and slice derivatives of every lift, moved to any array of track points.
`lift_values` is its order 0 at the states' own point; `evaluate_lifted` and
`germ_key` are its one-lift and per-lift readings.
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
from .quat import Quaternion, embed_slice, hamilton_components, inverse_components
from .tolerances import AT_CENTER_TOL, BRANCH_TOL, GERM_TOL, REAL_TOL, SEGMENT_START_TOL, START_TOL


@dataclass(frozen=True)
class SheetStates:
    """States of L lifts of one path: the path's track once, each lift's unit and datum as arrays.

    `units` and `data` are (L, 4) arrays of (w, x, y, z); `data` is None for
    an entire model, which carries no datum.
    """

    r: float
    theta: float
    units: np.ndarray
    data: np.ndarray | None

    def __len__(self) -> int:
        return len(self.units)

    @property
    def complex_point(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class GermKey:
    """(projected point, value) pair naming a point of the quotient domain."""

    point: Quaternion
    value: Quaternion

    def isclose(self, other: "GermKey") -> bool:
        return (self.point - other.point).norm() <= GERM_TOL and (self.value - other.value).norm() <= GERM_TOL


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """fn of every entry, through Python floats: numpy's power, log and hypot differ in the last bit."""
    return np.array(list(map(fn, values.ravel().tolist())), dtype=float).reshape(values.shape)


def _lift_components(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """(w, x, y, z) of an (L, 4) array, one quaternion per lift, each an (L, 1) column broadcasting over the points."""
    return tuple(table[:, k, None] for k in range(4))


def _unit_exp_components(angle: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, ...]:
    """exp(angle[l, p] * units[l]) = cos + sin * units[l] for every entry, as (w, x, y, z) arrays."""
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


class SliceFunctionModel:
    """Interface of the continuable models: `SqrtModel`, `LogModel` and the entire `calculus.SliceRegularPoly`."""

    kind: str
    datum_kind: str  # multiplicative | additive | none

    def initial_datum(self) -> Quaternion | None:
        raise NotImplementedError

    def accepts_start(self, x0: float) -> bool:
        raise NotImplementedError

    def derivative_values(self, states: SheetStates, r: np.ndarray, theta: np.ndarray, n: int) -> np.ndarray:
        """The n-th slice derivative on the sheet of lift l of `states`, moved to (r[l, p], theta[l, p]).

        r and theta have shape (L, P) for L lifts and P points, or broadcast
        to it, as a (1, P) track shared by all lifts does; the result is the
        (L, P, 4) array of (w, x, y, z).  n = 0 is the continued function itself.
        """
        raise NotImplementedError

    def data_for(self, values: np.ndarray, r: float, theta: float, units: np.ndarray) -> np.ndarray:
        """Data making lift l at (r, theta, units[l]) take values[l]; (L, 4) arrays, branched models only."""
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

    def derivative_values(self, states, r, theta, n):
        coeff, power = _sqrt_factor(n)
        radial = coeff * _mapped(lambda x: x**power, r)
        rotation = tuple(e * radial for e in _unit_exp_components(power * theta, states.units))
        return _stacked(hamilton_components(rotation, _lift_components(states.data)))

    def data_for(self, values, r, theta, units):
        # quat_inverse(math.sqrt(r) * exp(0.5 * theta * unit)) * value, lift by lift
        c, s, root = math.cos(0.5 * theta), math.sin(0.5 * theta), math.sqrt(r)
        base = (c * root, s * units[:, 1] * root, s * units[:, 2] * root, s * units[:, 3] * root)
        return np.stack(hamilton_components(inverse_components(base), tuple(values.T)), axis=-1)


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

    def derivative_values(self, states, r, theta, n):
        if n == 0:
            # Quaternion(log r) + theta * unit + datum, component by component
            uw, ux, uy, uz = _lift_components(states.units)
            dw, dx, dy, dz = _lift_components(states.data)
            log_r = _mapped(math.log, r)
            return _stacked(
                (log_r + uw * theta + dw, 0.0 + ux * theta + dx, 0.0 + uy * theta + dy, 0.0 + uz * theta + dz)
            )
        coeff = _log_factor(n)
        radial = coeff * _mapped(lambda x: x ** (-n), r)
        return _stacked(tuple(e * radial for e in _unit_exp_components(-n * theta, states.units)))

    def data_for(self, values, r, theta, units):
        # value - (Quaternion(log r) + theta * unit), lift by lift
        log_r = math.log(r)
        uw, ux, uy, uz = units.T
        return values - np.stack((log_r + uw * theta, 0.0 + ux * theta, 0.0 + uy * theta, 0.0 + uz * theta), axis=-1)


def model_by_name(name: str) -> SliceFunctionModel:
    """The branched model `name`, "sqrt" or "log"; the polynomial model is a `calculus.SliceRegularPoly`."""
    if name == "sqrt":
        return SqrtModel()
    if name == "log":
        return LogModel()
    raise ValueError(f"unknown model {name!r}")


def continue_segment(model: SliceFunctionModel, states: SheetStates, seg: PathSegment) -> SheetStates:
    """Slide the states along one complex segment inside the current slice.

    Only the track (r, theta) moves, so all the lifts slide at once.
    """
    z_here = states.complex_point
    if abs(seg.start - z_here) > SEGMENT_START_TOL * max(1.0, abs(z_here)):
        raise ValueError(f"segment starts at {seg.start}, state sits at {z_here}")
    clearance = seg.min_distance_to_origin()
    if model.is_branched() and clearance <= BRANCH_TOL:
        message = f"segment passes within {clearance:g} of the branch point"
        raise BranchPointCrossing(message, clearance=clearance, tolerance=BRANCH_TOL)
    if clearance <= BRANCH_TOL:
        # entire model: winding is irrelevant, restart from the principal arg
        z_end = seg.end
        return replace(states, r=abs(z_end), theta=cmath.phase(z_end) if z_end != 0 else 0.0)
    return replace(states, r=abs(seg.end), theta=states.theta + seg.argument_increment())


def _center_plus(center: complex, t, d: np.ndarray) -> np.ndarray:
    """center + t * d for a real t, in the float operations of Python's complex arithmetic."""
    out = np.empty(d.shape, dtype=complex)
    out.real = center.real + (t * d.real - 0.0 * d.imag)
    out.imag = center.imag + (t * d.imag + 0.0 * d.real)
    return out


def continue_closing_lines(
    model: SliceFunctionModel, states: SheetStates, center: complex, points: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """Every lift continued along the line from `center` to every point, as `continue_segment` does.

    Returns (r, theta), each of shape (1, len(points)): the track is the
    same for every lift, and `derivative_values` broadcasts it against the
    lifts.  The states sit at `center`, where every closing line starts; the
    caller checks that once.  A point within AT_CENTER_TOL of the centre keeps the
    states as they are.  The clearance of every closing line is computed at
    once, and the first point whose line comes within BRANCH_TOL of the branch
    point raises BranchPointCrossing with that `point`.  An entire model
    restarts from the principal argument there instead.
    """
    z = np.array(points, dtype=complex).reshape(-1)
    r = np.full((1, len(z)), states.r)
    theta = np.full((1, len(z)), states.theta)
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


def junction_switch(model: SliceFunctionModel, states: SheetStates, new_units: np.ndarray) -> SheetStates:
    """Re-anchor every lift's germ at a real point into its next slice, lift l into new_units[l].

    Coordinates snap to theta in {0, pi}; each datum is re-solved so the value
    is continuous across the switch.  The point is checked once, before any
    lift is touched.
    """
    if states.r <= BRANCH_TOL or abs(math.sin(states.theta)) > REAL_TOL:
        raise NotAtRealPoint(f"projected point {states.complex_point} is not real and nonzero")
    theta_new = 0.0 if math.cos(states.theta) > 0 else math.pi
    data = model.data_for(lift_values(model, states), states.r, theta_new, new_units) if model.is_branched() else None
    return SheetStates(r=states.r, theta=theta_new, units=new_units, data=data)


def lift_values(model: SliceFunctionModel, states: SheetStates) -> np.ndarray:
    """Every lift's value at the states' point: the (L, 4) array of (w, x, y, z)."""
    return model.derivative_values(states, np.array([[states.r]]), np.array([[states.theta]]), 0)[:, 0]


def final_states(
    model: SliceFunctionModel,
    path: NPartPath,
    rows: Sequence[Sequence[Quaternion]],
    x0: float | None = None,
) -> SheetStates:
    """Fold continuation and junction switches over the parts of L lifts of one path, rows[l] the units of lift l.

    The track is continued once for the path; the L lifts' units and data
    ride along as (L, 4) arrays, bit for bit L separate folds.  Every error
    is a property of the path and raises as one lift's fold would.
    """
    for row in rows:
        if len(row) != path.parts:
            raise LengthMismatch(f"{path.parts}-part path continued with {len(row)} units")
    start = path.initial_point
    if abs(start.imag) > REAL_TOL:
        raise BranchPoint(f"path must start on the real axis, got {start}")
    if x0 is not None and abs(start.real - x0) > START_TOL:
        raise ValueError(f"path starts at {start.real}, expected {x0}")
    # the canonical germ over the real start, on the principal sheet
    x = start.real
    if model.is_branched() and not model.accepts_start(x):
        raise BranchPoint(f"model {model.kind} cannot start at {x}")
    r, theta = (float(x), 0.0) if x >= 0 else (-float(x), math.pi)
    table = np.array([[(u.w, u.x, u.y, u.z) for u in row] for row in rows], dtype=float)
    datum = model.initial_datum()
    data = None if datum is None else np.tile((datum.w, datum.x, datum.y, datum.z), (len(rows), 1))
    states = SheetStates(r=r, theta=theta, units=table[:, 0], data=data)
    for part, seg in enumerate(path.segments):
        if part > 0:
            states = junction_switch(model, states, table[:, part])
        try:
            states = continue_segment(model, states, seg)
        except BranchPointCrossing as crossing:
            crossing.segment = part
            raise
    return states


def evaluate_lifted(
    model: SliceFunctionModel,
    path: NPartPath,
    units: Sequence[Quaternion],
    x0: float | None = None,
) -> Quaternion:
    """Value of the continued function at the endpoint of the lifted path."""
    return Quaternion(*lift_values(model, final_states(model, path, [units], x0))[0].tolist())


def germ_key(model: SliceFunctionModel, states: SheetStates) -> tuple[GermKey, ...]:
    """One key per lift: the states' point embedded along the lift's unit, and the lift's value."""
    z = states.complex_point
    values = lift_values(model, states).tolist()
    return tuple(
        GermKey(point=embed_slice(z, Quaternion(*unit)), value=Quaternion(*value))
        for unit, value in zip(states.units.tolist(), values)
    )

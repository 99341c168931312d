"""Multi-part paths in the complex plane and their liftings into slices.

An N-part path is a chain of N closed-form curve segments whose junctions sit
on the real axis, so each part can be re-embedded into a different slice
plane.  Segments stay symbolic (arcs with unbounded sweep, straight lines,
and chains of those) because monodromy bookkeeping needs exact winding
counts, not sampled point lists: every segment kind gives its change of
argument in closed form.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from orjson import OPT_SERIALIZE_NUMPY, dumps, loads

from .errors import (
    DisconnectedSegments,
    LengthMismatch,
    NonRealJunction,
    OutOfRange,
)
from .quat import Quaternion, embed_slice
from .tolerances import JUNCTION_TOL, PARAMETER_TOL


def _require_finite(segment, *fields) -> None:
    """ValueError unless every field of `segment` is a finite real or complex number."""
    if not all(cmath.isfinite(f) for f in fields):
        raise ValueError(f"path segments need finite fields, got {segment!r}")


class PathSegment:
    """Shared interface: a curve [0, 1] -> C with closed-form geometry."""

    @property
    def start(self) -> complex:
        return self.at(0.0)

    @property
    def end(self) -> complex:
        return self.at(1.0)

    def at(self, t: float) -> complex:
        raise NotImplementedError

    def prefix(self, s: float) -> "PathSegment":
        """Restriction to [0, s], reparametrised back onto [0, 1]."""
        raise NotImplementedError

    def reversed(self) -> "PathSegment":
        raise NotImplementedError

    def min_distance_to_origin(self) -> float:
        raise NotImplementedError

    def argument_increment(self) -> float:
        """Continuous change of arg(z) along the curve (winding times 2*pi)."""
        raise NotImplementedError

    def to_json_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Arc(PathSegment):
    """Circular arc center + radius * exp(i*theta), theta from theta0 to theta1.

    The sweep is unbounded, so multi-turn windings are a single segment.
    """

    center: complex
    radius: float
    theta0: float
    theta1: float

    def __post_init__(self):
        _require_finite(self, self.center, self.radius, self.theta0, self.theta1)
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")

    def at(self, t: float) -> complex:
        theta = self.theta0 + t * (self.theta1 - self.theta0)
        return self.center + self.radius * cmath.exp(1j * theta)

    def prefix(self, s: float) -> "Arc":
        return Arc(self.center, self.radius, self.theta0, self.theta0 + s * (self.theta1 - self.theta0))

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.theta1, self.theta0)

    def min_distance_to_origin(self) -> float:
        if self.center == 0:
            return self.radius
        lo, hi = sorted((self.theta0, self.theta1))
        target = cmath.phase(-self.center)
        if hi - lo >= 2 * math.pi:
            hits = True
        else:
            # does target + 2*pi*k fall inside [lo, hi] for some integer k
            k = math.ceil((lo - target) / (2 * math.pi))
            hits = target + 2 * math.pi * k <= hi
        if hits:
            return abs(abs(self.center) - self.radius)
        return min(abs(self.at(0.0)), abs(self.at(1.0)))

    def argument_increment(self) -> float:
        # c + R e^(it) = R e^(it) (1 + (c/R) e^(-it)) = c (1 + (R/c) e^(it)); with |w| <= 1 the factor 1 + w e^(-+it)
        # stays in Re >= 0 and vanishes only at the origin, which `continue_segment` refuses: its phase is continuous
        c, theta0, theta1 = self.center, self.theta0, self.theta1
        if c == 0:
            return theta1 - theta0
        if abs(c) <= self.radius:
            w, turn, sweep = c / self.radius, -1j, theta1 - theta0
        else:
            w, turn, sweep = self.radius / c, 1j, 0.0
        return sweep + cmath.phase(1 + w * cmath.exp(turn * theta1)) - cmath.phase(1 + w * cmath.exp(turn * theta0))

    def to_json_obj(self) -> dict:
        return {
            "kind": "arc",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "theta0": self.theta0,
            "theta1": self.theta1,
        }


@dataclass(frozen=True)
class Line(PathSegment):
    """Straight segment from z0 to z1 (possibly degenerate, z0 == z1)."""

    z0: complex
    z1: complex

    def __post_init__(self):
        _require_finite(self, self.z0, self.z1)

    def at(self, t: float) -> complex:
        return self.z0 + t * (self.z1 - self.z0)

    def prefix(self, s: float) -> "Line":
        return Line(self.z0, self.z0 + s * (self.z1 - self.z0))

    def reversed(self) -> "Line":
        return Line(self.z1, self.z0)

    def min_distance_to_origin(self) -> float:
        d = self.z1 - self.z0
        if d == 0:
            return abs(self.z0)
        t = max(0.0, min(1.0, -(self.z0.real * d.real + self.z0.imag * d.imag) / abs(d) ** 2))
        return abs(self.z0 + t * d)

    def argument_increment(self) -> float:
        # a straight segment off the origin never sweeps a half turn
        if self.z0 == self.z1:
            return 0.0
        return cmath.phase(self.z1 / self.z0)

    def to_json_obj(self) -> dict:
        return {"kind": "line", "from": [self.z0.real, self.z0.imag], "to": [self.z1.real, self.z1.imag]}


@dataclass(frozen=True)
class Chain(PathSegment):
    """Several segments traversed in order within one path part.

    Used when a part is extended in place (for example by a closing line):
    the part count of the enclosing path must not change.
    """

    pieces: tuple[PathSegment, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("chain needs at least one piece")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if abs(a.end - b.start) > JUNCTION_TOL:
                raise DisconnectedSegments("chain pieces do not connect")

    def at(self, t: float) -> complex:
        if t >= 1.0:
            return self.pieces[-1].at(1.0)
        k = len(self.pieces)
        idx = int(t * k)
        return self.pieces[idx].at(t * k - idx)

    def prefix(self, s: float) -> PathSegment:
        if s >= 1.0:
            return self
        k = len(self.pieces)
        idx = int(s * k)
        frac = s * k - idx
        kept = list(self.pieces[:idx])
        if frac > 0:
            kept.append(self.pieces[idx].prefix(frac))
        elif not kept:
            kept.append(Line(self.start, self.start))
        return kept[0] if len(kept) == 1 else Chain(tuple(kept))

    def reversed(self) -> "Chain":
        return Chain(tuple(p.reversed() for p in reversed(self.pieces)))

    def min_distance_to_origin(self) -> float:
        return min(p.min_distance_to_origin() for p in self.pieces)

    def argument_increment(self) -> float:
        return sum(p.argument_increment() for p in self.pieces)

    def to_json_obj(self) -> dict:
        return {"kind": "chain", "pieces": [p.to_json_obj() for p in self.pieces]}


def _junction(t: float, parts: int) -> int | None:
    """m when t * parts lies within PARAMETER_TOL of the whole number m, else None."""
    m = round(t * parts)
    return m if abs(t * parts - m) < PARAMETER_TOL else None


def _json_number(value):
    """A finite JSON number, passed through unchanged; anything else is a ValueError."""
    if type(value) is float and math.isfinite(value):  # the common case first: polynomials check every number
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"JSON expects a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an integer beyond the float range
        raise ValueError(f"JSON holds a non-finite number {value!r}")
    return value


def _json_point(value) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"path JSON expects a point [x, y], got {value!r}")
    return complex(_json_number(value[0]), _json_number(value[1]))


def segment_from_json_obj(obj: dict) -> PathSegment:
    if not isinstance(obj, dict):
        raise ValueError(f"path JSON expects a segment object, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "arc":
            return Arc(
                _json_point(obj["center"]),
                _json_number(obj["radius"]),
                _json_number(obj["theta0"]),
                _json_number(obj["theta1"]),
            )
        if kind == "line":
            return Line(_json_point(obj["from"]), _json_point(obj["to"]))
        if kind == "chain":
            pieces = obj["pieces"]
            if not isinstance(pieces, list):
                raise ValueError(f"path JSON expects a list of chain pieces, got {pieces!r}")
            return Chain(tuple(segment_from_json_obj(p) for p in pieces))
    except KeyError as missing:  # a nested piece reports its own missing field as a ValueError
        raise ValueError(f"path JSON {kind} segment lacks the field {missing.args[0]!r}") from None
    raise ValueError(f"unknown segment kind {kind!r}")


@dataclass(frozen=True)
class NPartPath:
    """Chain of N segments whose interior junctions lie on the real axis."""

    segments: tuple[PathSegment, ...]

    @property
    def parts(self) -> int:
        return len(self.segments)

    @property
    def initial_point(self) -> complex:
        return self.segments[0].start

    @property
    def endpoint(self) -> complex:
        return self.segments[-1].end

    def at(self, t: float) -> complex:
        return eval_path(self, t)

    def truncate(self, t: float) -> "NPartPath":
        """Open truncation: whole parts below t plus the partial part at t."""
        if not 0.0 <= t <= 1.0:
            raise OutOfRange(f"parameter {t} outside [0, 1]")
        if t == 1.0:
            return self
        n = self.parts
        scaled = t * n
        whole = int(math.floor(scaled))
        frac = scaled - whole
        kept = list(self.segments[:whole])
        if frac > 0:
            kept.append(self.segments[whole].prefix(frac))
        else:
            point = self.at(t)
            kept.append(Line(point, point))
        return NPartPath(tuple(kept))

    def truncate_closed(self, t: float) -> "NPartPath":
        """Closed truncation: drops the trailing constant at exact junctions past the start."""
        if not 0.0 <= t <= 1.0:
            raise OutOfRange(f"parameter {t} outside [0, 1]")
        m = _junction(t, self.parts)
        if m:  # not at junction 0, which would keep no segment
            return NPartPath(self.segments[:m])
        return self.truncate(t)

    def extend_to(self, z: complex) -> "NPartPath":
        """Compose the last part with the straight line to z; part count fixed."""
        last = self.segments[-1]
        closing = Line(last.end, complex(z))
        if isinstance(last, Chain):
            extended: PathSegment = Chain(last.pieces + (closing,))
        else:
            extended = Chain((last, closing))
        return NPartPath(self.segments[:-1] + (extended,))

    def lift(self, units: Sequence[Quaternion]) -> "LiftedPath":
        return lift(self, units)

    def to_json(self) -> str:
        # a segment built from numpy floats, as a truncation at a numpy t, keeps them in its fields
        return dumps({"segments": [s.to_json_obj() for s in self.segments]}, option=OPT_SERIALIZE_NUMPY).decode()

    @classmethod
    def from_json(cls, text: str | bytes) -> "NPartPath":
        data = loads(text)
        segments = data.get("segments") if isinstance(data, dict) else None
        if not isinstance(segments, list):
            raise ValueError('path JSON must be an object with a "segments" list')
        return make_npart_path([segment_from_json_obj(o) for o in segments])


def make_npart_path(segments: Sequence[PathSegment]) -> NPartPath:
    """Validate connectivity and real junctions, then freeze the path."""
    if not segments:
        raise ValueError("a path needs at least one segment")
    for a, b in zip(segments, segments[1:]):
        if abs(a.end - b.start) > JUNCTION_TOL:
            raise DisconnectedSegments(f"segment ends at {a.end}, next starts at {b.start}")
        if abs(a.end.imag) > JUNCTION_TOL:
            raise NonRealJunction(f"junction {a.end} is off the real axis")
    return NPartPath(tuple(segments))


def eval_path(path: NPartPath, t: float) -> complex:
    """Piecewise evaluation with floor / fractional reparametrisation."""
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"parameter {t} outside [0, 1]")
    if t == 1.0:
        return path.segments[-1].end
    n = path.parts
    idx = int(math.floor(t * n))
    return path.segments[idx].at(t * n - idx)


@dataclass(frozen=True)
class LiftedPath:
    """A path pushed into slices: part l runs in the plane of units[l]."""

    path: NPartPath
    units: tuple[Quaternion, ...]

    @property
    def parts(self) -> int:
        return self.path.parts

    def at(self, t: float) -> Quaternion:
        if not 0.0 <= t <= 1.0:
            raise OutOfRange(f"parameter {t} outside [0, 1]")
        idx = min(int(math.floor(t * self.parts)), self.parts - 1)
        return embed_slice(self.path.at(t), self.units[idx])

    @property
    def endpoint(self) -> Quaternion:
        return embed_slice(self.path.endpoint, self.units[-1])


def lift(path: NPartPath, units: Sequence[Quaternion]) -> LiftedPath:
    """Embed part l through the slice plane of units[l]; junctions stay real."""
    if len(units) != path.parts:
        raise LengthMismatch(f"{path.parts}-part path lifted with {len(units)} units")
    return LiftedPath(path, tuple(units))


# -- stock paths used throughout the examples -------------------------------


def half_turns(m: int) -> Arc:
    """Arc exp(i * m * pi * t) on [0, 1]: m half turns of the unit circle from +1."""
    return Arc(0j, 1.0, 0.0, m * math.pi)


def constant_path(x0: complex) -> NPartPath:
    return NPartPath((Line(complex(x0), complex(x0)),))


def beta_path() -> NPartPath:
    """Half circle up to -1 and the same half circle traversed back."""
    up = half_turns(1)
    return make_npart_path([up, up.reversed()])

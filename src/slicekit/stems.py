"""Stem function systems: disk-supported stem functions attached to paths.

Every path gets a stem function on a disk around its endpoint, namely the
invariant vector of the extended path as the disk point varies.  A system is
such an assignment over a truncation-closed family of paths; the four
validation conditions tie the per-disk functions into a single coherent
multi-sheet object (annihilated slicewise by the coupled Cauchy-Riemann
operator, compatible along parts, zero-padded across junctions, and rooted in
one real germ).

A closed-form stem is evaluated in batches: `stem_derivative_family` carries
the 2**N reference continuations to the disk centre once, then takes a whole
array of disk points through one closing-line continuation
(`continue_closing_lines`), one array pass of the model's derivative formula
and one stacked product with the inverse reference matrix.  Values are
(P, 2**N, 4) arrays of quaternion components, bit for bit the values a point
by point evaluation gives; the export grid and every probe list of the
validator go through one call.  `map` transforms that array as a whole, and
the system sums add two of them; `at` wraps one column as a `StemValue`, and
the system star products hand `star_vector` views of the columns.  None of
these builds a `Quaternion`.

A grid-backed stem (a JSON reload) is one read-only float64 array of shape
(n_r, n_a, 2**N, 4).  Interpolation gathers the four corners of every point
from it at once, and the grid CR residual differences it in place; no
`Quaternion` is built.  `grid_samples`, the nested `Quaternion` tuples of
the grid, is a view built on read, and the export writes the array itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from orjson import OPT_SERIALIZE_NUMPY, dumps, loads

from .errors import BranchPointCrossing, IncompatibleSupports, NonFiniteResult, OutOfDomain, SliceKitError
from .monodromy import SliceFunctionModel, continue_closing_lines, continue_segment, final_states
from .paths import Line, NPartPath, _json_number, make_npart_path, segment_from_json_obj
from .quat import I as UNIT_I
from .quat import Quaternion
from .sliceunits import eta, eta_inverse
from .stemtensor import StemValue, max_norms, nan_max, sigma_matrix, star_vector
from .tolerances import DISK_RIM_TOL, FD_STEP, PARAMETER_TOL, START_TOL, SUPPORT_TOL
from .tolerances import AXIAL_TOL, GRID_HOLOMORPHY_TOL, HOLOMORPHY_TOL, INITIAL_TOL, OVERLAP_TOL  # validator bounds

DEFAULT_GRID = (17, 64)
_SPLIT_SAMPLES = 65  # points of the path between two truncations searched for a split between their disks
_OVERLAP_CAP = 40  # overlap points compared per pair of stems in the local-compatibility check


@dataclass(frozen=True, eq=False)
class SampledStem:
    """Stem function on a disk: a batched evaluator or a polar grid.

    Closed-form-backed stems evaluate anywhere on the disk, which keeps
    finite differencing honest.  Their evaluator takes a list of P disk points
    and returns the (P, 2**N, 4) array of the stem values' quaternion
    components, so a grid or a probe list costs one call; `at` is its one-point
    case.  Grid-backed stems (JSON round trips) store their grid once, as the
    read-only float64 array `samples` of shape (n_r, n_a, 2**N, 4) whose first
    two axes are `grid`, and interpolate bilinearly in polar coordinates.
    Stems compare by identity.
    """

    N: int
    center: complex
    radius: float
    evaluator: Callable[[list[complex]], np.ndarray] | None = None
    grid: tuple[int, int] = DEFAULT_GRID
    samples: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.samples is not None:
            samples = np.array(self.samples, dtype=np.float64, order="C")  # a copy: no caller holds a writeable alias
            if samples.ndim != 4 or samples.shape[2:] != (1 << self.N, 4):
                raise ValueError(f"stem grid must have shape (n_r, n_a, {1 << self.N}, 4), got {samples.shape}")
            samples.setflags(write=False)
            object.__setattr__(self, "samples", samples)
            object.__setattr__(self, "grid", samples.shape[:2])

    @property
    def grid_samples(self) -> tuple | None:
        """The grid as rows of `Quaternion` columns, built from `samples` on every read; None without a grid."""
        if self.samples is None:
            return None
        return tuple(tuple(tuple(Quaternion(*q) for q in col) for col in row) for row in self.samples.tolist())

    def values(self, points: Sequence[complex]) -> np.ndarray:
        """Stem values at the disk points: the (P, 2**N, 4) array of their (w, x, y, z)."""
        points = [complex(z) for z in points]
        bound = self.radius * (1 + DISK_RIM_TOL)
        for z in points:
            if not abs(z - self.center) <= bound:  # written so that NaN fails too
                raise OutOfDomain(f"{z} outside disk of radius {self.radius} at {self.center}")
        if self.evaluator is not None:
            return self.evaluator(points)
        return self._interpolate(points)

    def at(self, z: complex) -> StemValue:
        """Stem value at one disk point."""
        return StemValue(self.N, self.values([z])[0])

    def map(self, transform: Callable[[np.ndarray], np.ndarray]) -> "SampledStem":
        """The stem on the same disk whose values are `transform` of this one's (P, 2**N, 4) value arrays."""
        return replace(self, evaluator=lambda points: transform(self.values(points)), samples=None)

    # -- grid support -------------------------------------------------------

    def sample_grid(self) -> np.ndarray:
        """Polar grid of stem values, radius 0 row included: an (n_r, n_a, 2**N, 4) array from one call.

        A grid-backed stem gives its stored `samples`, so a reloaded system
        exports the numbers it was read from.
        """
        if self.samples is not None:
            return self.samples
        n_r, n_a = self.grid
        directions = [complex(math.cos(phi), math.sin(phi)) for phi in (2 * math.pi * l / n_a for l in range(n_a))]
        points = [self.center + self.radius * k / (n_r - 1) * w for k in range(n_r) for w in directions]
        return self.values(points).reshape(n_r, n_a, 1 << self.N, 4)

    def _interpolate(self, points: list[complex]) -> np.ndarray:
        """Bilinear polar interpolation of the grid at the points: one gather of the four corners.

        Indices and weights are the per-point Python float operations, and the
        sum starts at +0.0 and adds corner * weight corner by corner, so every
        value is bit for bit the `StemValue` sum of the four scaled corners.
        """
        if self.samples is None:
            raise OutOfDomain("grid-backed stem has no samples")
        n_r, n_a = self.grid
        index, weights = [], []  # per point: the corners' (k, k2, l, l2) and their four weights
        for z in points:
            w = z - self.center
            r = abs(w)
            phi = math.atan2(w.imag, w.real) % (2 * math.pi)
            rs = min(r / self.radius * (n_r - 1), n_r - 1 - 1e-12)  # keeps the rim inside the last grid cell
            ps = phi / (2 * math.pi) * n_a
            k, fr = int(rs), rs - int(rs)
            l, fp = int(ps) % n_a, ps - int(ps)
            index.append((k, min(k + 1, n_r - 1), l, (l + 1) % n_a))
            weights.append(((1 - fr) * (1 - fp), (1 - fr) * fp, fr * (1 - fp), fr * fp))
        k, k2, l, l2 = np.array(index, dtype=np.intp).reshape(-1, 4).T
        out = np.zeros((len(points), 1 << self.N, 4))
        for rows, cols, weight in zip((k, k, k2, k2), (l, l2, l, l2), np.array(weights).reshape(-1, 4).T):
            out = out + self.samples[rows, cols] * weight[:, None, None]
        return out


def stem_derivative_family(
    model: SliceFunctionModel, path: NPartPath, radius: float
) -> Callable[..., np.ndarray]:
    """(points, n) -> invariant vectors of the n-th slice derivative at the points.

    The 2**N reference continuations are carried to the path's endpoint once.
    A call then continues them along the closing lines to all its points at
    once and returns the (P, 2**N, 4) array of the vectors' components.
    n = 0, the default, is the stem itself.  A sequence of K orders shares
    that one continuation and one stacked product and returns the
    (K, P, 2**N, 4) array, each order bit for bit its own call.
    """
    center = path.endpoint
    if model.is_branched() and radius >= abs(center):
        message = f"disk of radius {radius} at {center} meets the branch point"
        raise BranchPointCrossing(message, clearance=abs(center) - radius, tolerance=0.0)
    reference = eta(path.parts, UNIT_I)
    inverse = eta_inverse(reference)
    end_states = final_states(model, path, reference.rows)
    # every closing line starts at the centre: a zero-length one checks the start
    continue_segment(model, end_states, Line(center, center))

    def vectors(points: Sequence[complex], n: int | Sequence[int] = 0) -> np.ndarray:
        r, theta = continue_closing_lines(model, end_states, center, points)
        single = np.ndim(n) == 0
        orders = [n] if single else list(n)
        columns = [model.derivative_values(end_states, r, theta, k).transpose(1, 0, 2) for k in orders]
        out = inverse.apply_column(np.concatenate(columns))
        return out if single else out.reshape(len(orders), r.shape[1], *out.shape[1:])

    return vectors


def stem_from_slice(
    model: SliceFunctionModel,
    path: NPartPath,
    radius: float,
    grid: tuple[int, int] = DEFAULT_GRID,
) -> SampledStem:
    """Stem of a built-in model along a path: invariant vectors of extensions."""
    evaluator = stem_derivative_family(model, path, radius)
    return SampledStem(N=path.parts, center=path.endpoint, radius=radius, evaluator=evaluator, grid=grid)


def stem_cr_residual(stem: SampledStem, z: complex) -> float:
    """Max norm of (d/dx + sigma * d/dy) applied by central differences of step FD_STEP."""
    return _cr_residuals(stem, [z])[0]


def _cr_residuals(stem: SampledStem, points: Sequence[complex]) -> list[float]:
    """`stem_cr_residual` at every point, from one call over all their neighbours."""
    points = [complex(z) for z in points]
    for z in points:
        if not abs(z - stem.center) <= stem.radius - 2 * FD_STEP:  # written so that NaN fails too
            raise OutOfDomain(f"{z} too close to the disk rim for step {FD_STEP}")
    neighbours = [w for z in points for w in (z + FD_STEP, z - FD_STEP, z + FD_STEP * 1j, z - FD_STEP * 1j)]
    values = stem.values(neighbours).reshape(len(points), 4, 1 << stem.N, 4)
    fx = (values[:, 0] - values[:, 1]) * (0.5 / FD_STEP)
    fy = (values[:, 2] - values[:, 3]) * (0.5 / FD_STEP)
    return max_norms(fx + sigma_matrix(stem.N).astype(float) @ fy)


def _grid_cr_residual(stem: SampledStem) -> float:
    """CR residual from polar grid neighbours (grid-backed stems only).

    Central differences in r and phi at every interior grid point, turned
    into d/dx and d/dy, in array passes over the stored grid; NaN when any
    residual is NaN.
    """
    n_r, n_a = stem.grid
    samples = stem.samples
    dr = stem.radius / (n_r - 1)
    dphi = 2 * math.pi / n_a
    r = np.array([dr * k for k in range(1, n_r - 1)])[:, None, None, None]
    phi = [dphi * l for l in range(n_a)]
    cos_p = np.array([math.cos(p) for p in phi])[:, None, None]
    sin_p = np.array([math.sin(p) for p in phi])[:, None, None]
    d_r = (samples[2:] - samples[:-2]) * (0.5 / dr)
    d_phi = (np.roll(samples, -1, axis=1) - np.roll(samples, 1, axis=1))[1:-1] * (0.5 / dphi)
    fx = d_r * cos_p - d_phi * (sin_p / r)
    fy = d_r * sin_p + d_phi * (cos_p / r)
    return nan_max([0.0] + max_norms(fx + sigma_matrix(stem.N).astype(float) @ fy))


# -- systems ----------------------------------------------------------------


@dataclass(frozen=True)
class StemEntry:
    """One path of the closure with its truncation bookkeeping and stem."""

    label: str
    anchor: str
    t: float
    closed: bool
    path: NPartPath
    stem: SampledStem


@dataclass(frozen=True)
class StemSystem:
    """Finite radial path family with one stem function per path."""

    x0: float
    entries: tuple[StemEntry, ...]
    anchors: tuple[str, ...]

    def entry(self, label: str) -> StemEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)

    def with_stem(self, label: str, stem: SampledStem) -> "StemSystem":
        out = tuple(replace(e, stem=stem) if e.label == label else e for e in self.entries)
        return replace(self, entries=out)


def _junction(t: float, parts: int) -> int | None:
    """m when t * parts lies within PARAMETER_TOL of the whole number m, else None."""
    m = round(t * parts)
    return m if abs(t * parts - m) < PARAMETER_TOL else None


def _format_t(t: float, parts: int, closed: bool) -> str:
    """m/N at a junction, else the shortest repr of t, so distinct t give distinct labels."""
    m = _junction(t, parts)
    tag = f"{m}/{parts}" if m is not None else repr(t)
    return tag + ("-" if closed else "")


def truncation_lattice(parts: int, extra: Sequence[float] = ()) -> list[tuple[float, bool]]:
    """Junction-multiple (open and closed) truncations plus user t values.

    A user t must be finite and strictly inside (0, 1); anything else is a
    ValueError.  A user t on a junction m/N (within PARAMETER_TOL) is that
    junction's truncation: the open one, or the whole path at m = N.
    """
    ts: list[tuple[float, bool]] = [(0.0, False)]
    for m in range(1, parts + 1):
        ts.append((m / parts, True))
        if m < parts:
            ts.append((m / parts, False))
    for t in extra:
        if not 0.0 < t < 1.0:  # written so that NaN fails too
            raise ValueError(f"extra truncation must lie strictly inside (0, 1), got {t!r}")
        m = _junction(t, parts)
        ts.append((float(t), False) if m is None else (m / parts, m == parts))
    return sorted(set(ts))


def _truncation(name: str, whole: NPartPath, t: float, closed: bool) -> tuple[str, NPartPath]:
    """The label and the path of the truncation at (t, closed) of the anchor `name` with the whole path `whole`."""
    path = whole.truncate_closed(t) if closed else whole.truncate(t)
    return f"{name}[{_format_t(t, whole.parts, closed)}]", path


def build_stem_system(
    model: SliceFunctionModel,
    anchors: Sequence[tuple[str, NPartPath]],
    radius: float,
    grid: tuple[int, int] = DEFAULT_GRID,
    extra_truncations: Sequence[float] = (),
) -> StemSystem:
    """Materialise the truncation closure of the anchors and stem each path."""
    x0 = anchors[0][1].initial_point.real
    entries = []
    for name, path in anchors:
        if abs(path.initial_point - x0) > START_TOL:
            raise IncompatibleSupports("anchor paths must share one initial point")
        for t, closed in truncation_lattice(path.parts, extra_truncations):
            label, truncated = _truncation(name, path, t, closed)
            stem = stem_from_slice(model, truncated, radius, grid)
            entries.append(StemEntry(label, name, t, closed, truncated, stem))
    return StemSystem(x0=x0, entries=tuple(entries), anchors=tuple(n for n, _ in anchors))


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    checked: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tolerance": self.tolerance,
            "checked": self.checked,
        }


@dataclass(frozen=True)
class ValidationReport:
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "conditions": [c.to_dict() for c in self.conditions]}


def _interior_probes(stem: SampledStem, margin: float) -> list[complex]:
    points = [stem.center]
    for frac in (0.3, 0.6, 0.85):
        r = stem.radius * frac
        if r > stem.radius - margin:
            continue
        for l in range(8):
            phi = 2 * math.pi * l / 8
            points.append(stem.center + r * complex(math.cos(phi), math.sin(phi)))
    return points


def validate_stem_system(system: StemSystem) -> ValidationReport:
    """Run the four coherence conditions and report per-condition results."""
    results = [
        _check_holomorphy(system),
        _check_local_compatibility(system),
        _check_axial_compatibility(system),
        _check_initial_compatibility(system),
    ]
    return ValidationReport(tuple(results))


def _check_holomorphy(system: StemSystem) -> ConditionResult:
    worst, checked = 0.0, 0
    for entry in system.entries:
        stem = entry.stem
        if stem.evaluator is None:
            worst = nan_max([worst, _grid_cr_residual(stem)])
            checked += 1
            continue
        residuals = _cr_residuals(stem, _interior_probes(stem, margin=2 * FD_STEP))
        worst = nan_max([worst] + residuals)
        checked += len(residuals)
    bound = HOLOMORPHY_TOL if all(e.stem.evaluator is not None for e in system.entries) else GRID_HOLOMORPHY_TOL
    return ConditionResult("holomorphy", worst <= bound, worst, bound, checked)


def _split_exists(path: NPartPath, t1: float, t2: float, disk1, disk2) -> bool:
    c1, r1 = disk1
    c2, r2 = disk2
    pts = [path.at(t1 + (t2 - t1) * k / (_SPLIT_SAMPLES - 1)) for k in range(_SPLIT_SAMPLES)]
    inside1 = [abs(p - c1) <= r1 for p in pts]
    inside2 = [abs(p - c2) <= r2 for p in pts]
    for split in range(_SPLIT_SAMPLES):
        if all(inside1[: split + 1]) and all(inside2[split:]):
            return True
    return False


def _overlap_points(stem1: SampledStem, stem2: SampledStem) -> list[complex]:
    pts = []
    for z in _interior_probes(stem1, margin=0.05 * stem1.radius):
        if abs(z - stem2.center) <= stem2.radius * 0.98:
            pts.append(z)
        if len(pts) >= _OVERLAP_CAP:
            break
    return pts


def _same_part_interval(t1: float, t2: float, parts: int) -> bool:
    """Both parameters inside one [(m-1)/N, m/N] with t1 < t2."""
    if not t1 < t2:
        return False
    m = math.ceil(t2 * parts - PARAMETER_TOL)
    return t1 >= (m - 1) / parts - PARAMETER_TOL


def _check_local_compatibility(system: StemSystem) -> ConditionResult:
    worst, checked = 0.0, 0
    for anchor in system.anchors:
        entries = [e for e in system.entries if e.anchor == anchor]
        full = next(e for e in entries if e.t == 1.0)
        parts = full.path.parts
        opens = sorted((e for e in entries if not e.closed), key=lambda e: e.t)
        # the closed truncation at a non-junction t coincides with the open one
        for e1 in opens:
            for e2 in entries:
                if not _same_part_interval(e1.t, e2.t, parts):
                    continue
                if e2.path.parts != e1.path.parts:
                    continue
                disk1 = (e1.stem.center, e1.stem.radius)
                disk2 = (e2.stem.center, e2.stem.radius)
                if not _split_exists(full.path, e1.t, e2.t, disk1, disk2):
                    continue
                points = _overlap_points(e1.stem, e2.stem)
                if points:
                    worst = nan_max([worst] + max_norms(e1.stem.values(points) - e2.stem.values(points)))
                    checked += len(points)
    return ConditionResult("local-compatibility", worst <= OVERLAP_TOL, worst, OVERLAP_TOL, checked)


def _check_axial_compatibility(system: StemSystem) -> ConditionResult:
    worst, checked = 0.0, 0
    for anchor in system.anchors:
        by_key = {(e.t, e.closed): e for e in system.entries if e.anchor == anchor}
        full = next(e for e in system.entries if e.anchor == anchor and e.t == 1.0)
        parts = full.path.parts
        for m in range(1, parts):
            t = m / parts
            long_entry = by_key.get((t, False))
            short_entry = by_key.get((t, True))
            if long_entry is None or short_entry is None:
                continue
            center = long_entry.stem.center
            reach = 0.9 * min(long_entry.stem.radius, short_entry.stem.radius)
            points = [complex(x, 0.0) for x in np.linspace(center.real - reach, center.real + reach, 9)]
            short = short_entry.stem.values(points)
            padded = np.concatenate([short, np.zeros_like(short)], axis=1)  # StemValue.padded
            worst = nan_max([worst] + max_norms(long_entry.stem.values(points) - padded))
            checked += len(points)
    return ConditionResult("axial-compatibility", worst <= AXIAL_TOL, worst, AXIAL_TOL, checked)


def _check_initial_compatibility(system: StemSystem) -> ConditionResult:
    worst, checked = 0.0, 0
    initial_entries = [e for e in system.entries if e.t == 0.0]
    if initial_entries:
        reach = 0.9 * min(e.stem.radius for e in initial_entries)
        x0 = system.x0
        points = [complex(x, 0.0) for x in np.linspace(x0 - reach, x0 + reach, 9)]
        columns = [e.stem.values(points) for e in initial_entries]
        for col in columns:
            worst = nan_max([worst] + max_norms(col[:, 1:, None]))  # every entry above the first, one by one
            checked += len(points)
        for col in columns[1:]:
            worst = nan_max([worst] + max_norms(col[:, :1] - columns[0][:, :1]))
    return ConditionResult("initial-compatibility", worst <= INITIAL_TOL, worst, INITIAL_TOL, checked)


def _combine(s1: StemSystem, s2: StemSystem, op, name: str) -> StemSystem:
    """The system whose stems evaluate `op` of the two systems' (P, 2**N, 4) value arrays at the same points."""
    if s1.labels() != s2.labels() or abs(s1.x0 - s2.x0) > SUPPORT_TOL:
        raise IncompatibleSupports(f"cannot {name} systems over different supports")
    entries = []
    for e1, e2 in zip(s1.entries, s2.entries):
        a, b = e1.stem, e2.stem
        if (a.N, a.center, a.radius) != (b.N, b.center, b.radius):
            raise IncompatibleSupports(f"{e1.label}: disks differ")
        combined = replace(a, evaluator=lambda points, a=a, b=b: op(a.values(points), b.values(points)), samples=None)
        entries.append(replace(e1, stem=combined))
    return replace(s1, entries=tuple(entries))


def stem_add(s1: StemSystem, s2: StemSystem) -> StemSystem:
    """The pointwise sum; overflow stays silent, as in `StemValue.__add__`."""
    return _combine(s1, s2, np.errstate(all="ignore")(np.add), "add")


def stem_star(s1: StemSystem, s2: StemSystem) -> StemSystem:
    """The pointwise star product: `star_vector` once per point, on views of the two value arrays."""

    def star(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = x.shape[1].bit_length() - 1
        columns = [star_vector(StemValue._of(n, p), StemValue._of(n, q)).components for p, q in zip(x, y)]
        return np.array(columns).reshape(x.shape)

    return _combine(s1, s2, star, "star")


# -- JSON interface ----------------------------------------------------------


def system_to_json(system: StemSystem) -> str:
    """The system as compact JSON, every stem as its polar grid; a grid holding inf or NaN raises NonFiniteResult.

    orjson, the encoder of every JSON document slicekit writes, takes each
    grid array straight from its float64 buffer.  Every number is spelled
    with its shortest round-trip digits (`1e-7`, `1e16`, `-0.0`), so
    `json.loads` reads back the same bits.
    """
    paths = []
    radii = []
    samples = []
    for index, e in enumerate(system.entries):
        segments = [s.to_json_obj() for s in e.path.segments]
        paths.append({"segments": segments, "label": e.label, "anchor": e.anchor, "t": e.t, "closed": e.closed})
        radii.append(e.stem.radius)
        grid = e.stem.sample_grid()
        if not np.isfinite(grid).all():  # before encoding: orjson would write NaN as null
            raise NonFiniteResult(f"stem grid of {e.label} overflowed", index=index)
        samples.append(np.ascontiguousarray(grid))
    document = {"x0": system.x0, "paths": paths, "radii": radii, "samples": samples}
    return dumps(document, option=OPT_SERIALIZE_NUMPY).decode()


def _json_grid(sample, n: int) -> np.ndarray:
    """The float64 array of a JSON grid; anything but a proper grid is a ValueError.

    A proper grid is a rectangle of at least 3 radii by 3 angles, the fewest
    with a central difference, whose columns hold 2**n entries of four finite
    numbers.  Every leaf is a float or an int, never a bool; orjson reads an
    integer outside the 64-bit range as a float, so no int leaf overflows.
    """
    shape, leaves = [], [sample]
    for _ in range(4):  # radii, angles, entries, components: each level a list of lists of one length
        if set(map(type, leaves)) != {list} or len(lengths := set(map(len, leaves))) != 1:
            break
        shape.append(lengths.pop())
        leaves = list(itertools.chain.from_iterable(leaves))
    numbers = len(shape) == 4 and set(map(type, leaves)) <= {float, int}  # not bool, str, None, dict or list
    grid = np.array(leaves, dtype=np.float64).reshape(shape) if numbers else np.empty(0)
    shaped = numbers and min(shape[:2]) >= 3 and shape[2:] == [1 << n, 4]
    if not (shaped and np.isfinite(grid).all()):
        raise ValueError(f"stem grid must hold at least 3 x 3 columns of {1 << n} finite [w, x, y, z] entries")
    return grid


def system_from_json(text: str) -> StemSystem:
    """The system `system_to_json` wrote, grid-backed; a malformed document is a ValueError.

    `orjson.loads` parses it, refusing NaN, Infinity and numbers beyond the
    float range.  x0 is a number; paths, radii and samples are lists of one
    length; every path object holds at least one segment, a string label and
    anchor, a number t in [0, 1] and a boolean closed, and no two share a
    label; its segments make a path as `make_npart_path` checks it, starting
    within START_TOL of x0; every anchor holds its whole path (t = 1), and
    every path of the anchor is the truncation of that whole path at its t and
    closed, with the label `build_stem_system` gives it; every radius is a
    positive number, and every grid is checked by `_json_grid`.
    A failure names the label or anchor it concerns.
    """
    data = loads(text)
    lists = [data.get(key) if isinstance(data, dict) else None for key in ("paths", "radii", "samples")]
    if not all(isinstance(v, list) for v in lists) or len({len(v) for v in lists}) != 1:
        raise ValueError("stem system JSON needs lists paths, radii and samples of one length")
    x0 = float(_json_number(data.get("x0")))
    entries = []
    for obj, radius, sample in zip(*lists):
        kinds = {"segments": list, "label": str, "anchor": str, "closed": bool}
        typed = isinstance(obj, dict) and all(isinstance(obj.get(k), kind) for k, kind in kinds.items())
        if not typed or not obj["segments"]:
            message = f"stem system JSON expects path objects with segments, label, anchor, t and closed, got {obj!r}"
            raise ValueError(message)
        try:
            path = make_npart_path([segment_from_json_obj(o) for o in obj["segments"]])
        except SliceKitError as exc:  # DisconnectedSegments or NonRealJunction
            raise ValueError(f"stem system JSON path {obj['label']!r}: {exc}") from exc
        if abs(path.initial_point - x0) > START_TOL:
            raise ValueError(f"stem system JSON path {obj['label']!r} starts at {path.initial_point}, not at x0 {x0!r}")
        if not 0.0 <= _json_number(obj.get("t")) <= 1.0:
            raise ValueError(f"stem system JSON path {obj['label']!r} has t = {obj['t']!r} outside [0, 1]")
        if not _json_number(radius) > 0.0:
            raise ValueError(f"stem radius must be a finite positive number, got {radius!r}")
        stem = SampledStem(N=path.parts, center=path.endpoint, radius=radius, samples=_json_grid(sample, path.parts))
        entries.append(StemEntry(obj["label"], obj["anchor"], obj["t"], obj["closed"], path, stem))
    labels = [e.label for e in entries]
    if len(set(labels)) != len(labels):
        raise ValueError(f"stem system JSON repeats a label: {labels}")
    wholes = {e.anchor: e.path for e in entries if e.t == 1.0}
    for e in entries:
        if e.anchor not in wholes:
            raise ValueError(f"stem system JSON anchor {e.anchor!r} has no whole path (t = 1)")
        label, path = _truncation(e.anchor, wholes[e.anchor], e.t, e.closed)
        if (label, path.segments) != (e.label, e.path.segments):
            raise ValueError(f"stem system JSON path {e.label!r} is not the truncation {label!r} its t and closed give")
    return StemSystem(x0=x0, entries=tuple(entries), anchors=tuple(dict.fromkeys(e.anchor for e in entries)))

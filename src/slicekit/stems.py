"""Stem function systems: disk-supported stem functions attached to paths.

Every path gets a stem function on a disk around its endpoint, namely the
invariant vector of the extended path as the disk point varies.  A system is
such an assignment over a truncation-closed family of paths; the four
validation conditions tie the per-disk functions into a single coherent
multi-sheet object (annihilated slicewise by the coupled Cauchy-Riemann
operator, compatible along parts, zero-padded across junctions, and rooted in
one real germ).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BranchPointCrossing, IncompatibleSupports, OutOfDomain
from .monodromy import SliceFunctionModel, continue_segment, final_state
from .paths import Line, NPartPath, segment_from_json_obj
from .quat import I as UNIT_I
from .quat import Quaternion
from .sliceunits import eta, eta_inverse
from .stemtensor import StemValue, apply_real_matrix, nan_max, sigma_matrix, star_vector
from .tolerances import AT_CENTER_TOL, DISK_RIM_TOL, FD_STEP, PARAMETER_TOL, START_TOL, SUPPORT_TOL
from .tolerances import AXIAL_TOL, GRID_HOLOMORPHY_TOL, HOLOMORPHY_TOL, INITIAL_TOL, OVERLAP_TOL  # validator bounds

DEFAULT_GRID = (17, 64)
_SPLIT_SAMPLES = 65  # points of the path between two truncations searched for a split between their disks
_OVERLAP_CAP = 40  # overlap points compared per pair of stems in the local-compatibility check


@dataclass(frozen=True)
class SampledStem:
    """Stem function on a disk: an evaluator plus an optional polar grid.

    Closed-form-backed stems evaluate anywhere on the disk, which keeps
    finite differencing honest.  Grid-backed stems (JSON round trips)
    interpolate bilinearly in polar coordinates.
    """

    N: int
    center: complex
    radius: float
    evaluator: Callable[[complex], StemValue] | None = None
    grid: tuple[int, int] = DEFAULT_GRID
    grid_samples: tuple | None = field(default=None, repr=False)

    def at(self, z: complex) -> StemValue:
        z = complex(z)
        if abs(z - self.center) > self.radius * (1 + DISK_RIM_TOL):
            raise OutOfDomain(f"{z} outside disk of radius {self.radius} at {self.center}")
        if self.evaluator is not None:
            return self.evaluator(z)
        return self._interpolate(z)

    def map(self, transform: Callable[[complex, StemValue], StemValue]) -> "SampledStem":
        """Pointwise-transformed stem on the same disk."""
        return replace(self, evaluator=lambda z: transform(z, self.at(z)), grid_samples=None)

    # -- grid support -------------------------------------------------------

    def sample_grid(self) -> list:
        """Polar grid of stem values: radii x angles, radius 0 row included."""
        n_r, n_a = self.grid
        rows = []
        for k in range(n_r):
            r = self.radius * k / (n_r - 1)
            row = []
            for l in range(n_a):
                phi = 2 * math.pi * l / n_a
                row.append(self.at(self.center + r * complex(math.cos(phi), math.sin(phi))))
            rows.append(row)
        return rows

    def _interpolate(self, z: complex) -> StemValue:
        if self.grid_samples is None:
            raise OutOfDomain("grid-backed stem has no samples")
        n_r, n_a = self.grid
        w = z - self.center
        r = abs(w)
        phi = math.atan2(w.imag, w.real) % (2 * math.pi)
        rs = min(r / self.radius * (n_r - 1), n_r - 1 - 1e-12)  # keeps the rim inside the last grid cell
        ps = phi / (2 * math.pi) * n_a
        k, fr = int(rs), rs - int(rs)
        l, fp = int(ps) % n_a, ps - int(ps)
        l2 = (l + 1) % n_a
        corners = [
            (self.grid_samples[k][l], (1 - fr) * (1 - fp)),
            (self.grid_samples[k][l2], (1 - fr) * fp),
            (self.grid_samples[min(k + 1, n_r - 1)][l], fr * (1 - fp)),
            (self.grid_samples[min(k + 1, n_r - 1)][l2], fr * fp),
        ]
        out = StemValue(self.N, (Quaternion(),) * (1 << self.N))
        for col, weight in corners:
            out = out + StemValue(self.N, col).scale(weight)
        return out


def stem_derivative_family(
    model: SliceFunctionModel, path: NPartPath, radius: float
) -> Callable[[complex, int], StemValue]:
    """(z, n) -> invariant vector of the n-th slice derivative at z.

    The 2**N reference continuations are carried to the path's endpoint once;
    each disk point then only costs one closing line per reference lift.
    n = 0, the default, is the stem itself.
    """
    center = path.endpoint
    if model.is_branched() and radius >= abs(center):
        message = f"disk of radius {radius} at {center} meets the branch point"
        raise BranchPointCrossing(message, clearance=abs(center) - radius, tolerance=0.0)
    reference = eta(path.parts, UNIT_I)
    inverse = eta_inverse(reference)
    end_states = [final_state(model, path, row) for row in reference.rows]

    def vector(z: complex, n: int = 0) -> StemValue:
        if abs(z - center) < AT_CENTER_TOL:
            states = end_states
        else:
            closing = Line(center, z)
            states = [continue_segment(model, s, closing) for s in end_states]
        return StemValue(path.parts, inverse.apply_column([model.derivative_value(s, n) for s in states]))

    return vector


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
    z = complex(z)
    if abs(z - stem.center) > stem.radius - 2 * FD_STEP:
        raise OutOfDomain(f"{z} too close to the disk rim for step {FD_STEP}")
    fx = (stem.at(z + FD_STEP) - stem.at(z - FD_STEP)).scale(0.5 / FD_STEP)
    fy = (stem.at(z + FD_STEP * 1j) - stem.at(z - FD_STEP * 1j)).scale(0.5 / FD_STEP)
    return (fx + apply_real_matrix(sigma_matrix(stem.N), fy)).max_norm()


def _grid_cr_residual(stem: SampledStem) -> float:
    """CR residual from polar grid neighbours (grid-backed stems only).

    Works on the stored entries, not on `StemValue`s: this loop is most of
    the time of grid validation, and a wrapper per neighbour and per
    intermediate would cost more than the quaternion arithmetic itself.
    """
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
            d_phi = [
                (a - b) * (0.5 / dphi)
                for a, b in zip(samples[k][(l + 1) % n_a], samples[k][(l - 1) % n_a])
            ]
            cos_p, sin_p = math.cos(phi), math.sin(phi)
            fx = [a * cos_p - b * (sin_p / r) for a, b in zip(d_r, d_phi)]
            fy = [a * sin_p + b * (cos_p / r) for a, b in zip(d_r, d_phi)]
            sigma_fy = apply_real_matrix(sigma, StemValue(stem.N, fy)).entries
            worst = nan_max([worst] + [(a + b).norm() for a, b in zip(fx, sigma_fy)])
    return worst


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


def _format_t(t: float, parts: int, closed: bool) -> str:
    scaled = t * parts
    if abs(scaled - round(scaled)) < PARAMETER_TOL:
        tag = f"{int(round(scaled))}/{parts}"
    else:
        tag = f"{t:g}"
    return tag + ("-" if closed else "")


def truncation_lattice(parts: int, extra: Sequence[float] = ()) -> list[tuple[float, bool]]:
    """Junction-multiple (open and closed) truncations plus user t values.

    A user t must be finite and strictly inside (0, 1); anything else is a ValueError.
    """
    ts: list[tuple[float, bool]] = [(0.0, False)]
    for m in range(1, parts + 1):
        ts.append((m / parts, True))
        if m < parts:
            ts.append((m / parts, False))
    for t in extra:
        if not 0.0 < t < 1.0:  # written so that NaN fails too
            raise ValueError(f"extra truncation must lie strictly inside (0, 1), got {t!r}")
        ts.append((float(t), False))
    return sorted(set(ts))


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
            truncated = path.truncate_closed(t) if closed else path.truncate(t)
            label = f"{name}[{_format_t(t, path.parts, closed)}]"
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
        for z in _interior_probes(stem, margin=2 * FD_STEP):
            worst = nan_max([worst, stem_cr_residual(stem, z)])
            checked += 1
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
                for z in _overlap_points(e1.stem, e2.stem):
                    worst = nan_max([worst, (e1.stem.at(z) - e2.stem.at(z)).max_norm()])
                    checked += 1
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
            for x in np.linspace(center.real - reach, center.real + reach, 9):
                padded = StemValue.padded(short_entry.stem.at(complex(x, 0.0)))
                worst = nan_max([worst, (long_entry.stem.at(complex(x, 0.0)) - padded).max_norm()])
                checked += 1
    return ConditionResult("axial-compatibility", worst <= AXIAL_TOL, worst, AXIAL_TOL, checked)


def _check_initial_compatibility(system: StemSystem) -> ConditionResult:
    worst, checked = 0.0, 0
    initial_entries = [e for e in system.entries if e.t == 0.0]
    if initial_entries:
        reach = 0.9 * min(e.stem.radius for e in initial_entries)
        x0 = system.x0
        for x in np.linspace(x0 - reach, x0 + reach, 9):
            columns = [e.stem.at(complex(x, 0.0)).entries for e in initial_entries]
            for col in columns:
                for upper in col[1:]:
                    worst = nan_max([worst, upper.norm()])
                checked += 1
            for col in columns[1:]:
                worst = nan_max([worst, (col[0] - columns[0][0]).norm()])
    return ConditionResult("initial-compatibility", worst <= INITIAL_TOL, worst, INITIAL_TOL, checked)


def _combine(s1: StemSystem, s2: StemSystem, op, name: str) -> StemSystem:
    if s1.labels() != s2.labels() or abs(s1.x0 - s2.x0) > SUPPORT_TOL:
        raise IncompatibleSupports(f"cannot {name} systems over different supports")
    entries = []
    for e1, e2 in zip(s1.entries, s2.entries):
        a, b = e1.stem, e2.stem
        if (a.N, a.center, a.radius) != (b.N, b.center, b.radius):
            raise IncompatibleSupports(f"{e1.label}: disks differ")
        combined = replace(a, evaluator=_pointwise(op, a, b), grid_samples=None)
        entries.append(replace(e1, stem=combined))
    return replace(s1, entries=tuple(entries))


def _pointwise(op, a: SampledStem, b: SampledStem):
    return lambda z: op(a.at(z), b.at(z))


def stem_add(s1: StemSystem, s2: StemSystem) -> StemSystem:
    return _combine(s1, s2, operator.add, "add")


def stem_star(s1: StemSystem, s2: StemSystem) -> StemSystem:
    return _combine(s1, s2, star_vector, "star")


# -- JSON interface ----------------------------------------------------------


def system_to_json(system: StemSystem) -> str:
    paths = []
    radii = []
    samples = []
    for e in system.entries:
        obj = json.loads(e.path.to_json())
        obj.update({"label": e.label, "anchor": e.anchor, "t": e.t, "closed": e.closed})
        paths.append(obj)
        radii.append(e.stem.radius)
        grid_rows = e.stem.sample_grid()
        samples.append([[[q.to_list() for q in col.entries] for col in row] for row in grid_rows])
    return json.dumps({"x0": system.x0, "paths": paths, "radii": radii, "samples": samples})


def system_from_json(text: str) -> StemSystem:
    data = json.loads(text)
    entries = []
    anchors: list[str] = []
    for obj, radius, sample in zip(data["paths"], data["radii"], data["samples"]):
        segs = [segment_from_json_obj(o) for o in obj["segments"]]
        path = NPartPath(tuple(segs))
        grid_rows = tuple(
            tuple(tuple(Quaternion.from_list(q) for q in col) for col in row) for row in sample
        )
        n_r = len(grid_rows)
        n_a = len(grid_rows[0])
        stem = SampledStem(
            N=path.parts,
            center=path.endpoint,
            radius=radius,
            evaluator=None,
            grid=(n_r, n_a),
            grid_samples=grid_rows,
        )
        entries.append(StemEntry(obj["label"], obj["anchor"], obj["t"], obj["closed"], path, stem))
        if obj["anchor"] not in anchors:
            anchors.append(obj["anchor"])
    return StemSystem(x0=float(data["x0"]), entries=tuple(entries), anchors=tuple(anchors))

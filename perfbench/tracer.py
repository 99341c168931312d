"""Per-layer spans and counters for slicekit, installed from outside the package.

The tracer wraps public functions and methods of slicekit's modules while a
traced unit runs and restores them afterwards. Modules bind each other's
functions with ``from .x import y``, so a wrapper replaces every binding of
the original object in every loaded ``slicekit`` module, methods are patched
on their class, and the check functions are also replaced inside
``checks.SUITES``. Patching only the home module would miss most calls: the
``stems`` binding of ``continue_segment`` sees several times the calls of the
``monodromy`` one.

A span records calls, total time and self time (total minus the time spent in
wrapped callees). A counter records calls only, for functions so cheap that a
timed wrapper would cost more than the work.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: module -> names recorded as spans: calls, total_ms and (unless a leaf) self_ms
SPANS = {
    "qmat": ("qmat_mul", "qmat_rank", "qmat_inverse", "QuaternionMatrix.apply_column"),
    "sliceunits": (
        "zeta",
        "slice_matrix",
        "eta_inverse",
        "random_slice_unit_matrix",
        "full_slice_rank_permutation",
    ),
    "paths": ("Arc.argument_increment", "Line.argument_increment"),
    "monodromy": ("final_state", "continue_segment", "junction_switch"),
    "representation": ("representation_vector", "invariance_check", "evaluate_via_formula"),
    "stemtensor": ("star_vector", "tensor_mul", "oracle_star", "apply_real_matrix"),
    "stems": (
        "build_stem_system",
        "validate_stem_system",
        "system_to_json",
        "system_from_json",
        "stem_cr_residual",
    ),
    "calculus": (
        "star_product",
        "symmetrization",
        "regular_conjugate",
        "stem_series_check",
        "taylor_eval",
    ),
    "cli": ("main",),
}

#: spans that call no other wrapped function, so self time equals total time
LEAVES = {
    "qmat.qmat_mul",
    "qmat.qmat_rank",
    "qmat.QuaternionMatrix.apply_column",
    "sliceunits.zeta",
    "paths.Arc.argument_increment",
    "paths.Line.argument_increment",
    "monodromy.junction_switch",
    "stemtensor.tensor_mul",
    "stemtensor.oracle_star",
    "stemtensor.apply_real_matrix",
    "stems.system_from_json",
    "calculus.star_product",
    "calculus.regular_conjugate",
    "calculus.taylor_eval",
}

#: names whose calls only are counted during the span pass
COUNTED = {"stems": ("SampledStem.at",)}

#: counted in a pass of their own, so their wrappers do not inflate the spans
QUAT_COUNTED = {"quat": ("hamilton_product", "Quaternion.__init__")}

#: the check functions behind ``slicekit check --suite all``, by name
CHECKS = (
    "check_eta_unitarity",
    "check_rank_permutation",
    "check_sqrt_monodromy",
    "check_log_monodromy",
    "check_representation_vectors",
    "check_j_invariance",
    "check_non_extendability",
    "check_star_oracle",
    "check_zero_padding",
    "check_structure_identities",
    "check_ring_identities",
    "check_reciprocal",
    "check_leibniz",
    "check_taylor_polynomial",
    "check_taylor_sqrt",
    "check_series_sqrt",
    "check_series_routes",
    "check_series_polynomial",
    "check_stem_validator",
)

#: the four conditions of the stem validator, as its reports name them
CONDITIONS = ("holomorphy", "local-compatibility", "axial-compatibility", "initial-compatibility")

VALIDATE = "stems.validate_stem_system"
GRID = "stems.validate_grid"
CLOSED = "stems.validate_closed"
DRAWS = "sliceunits.random_slice_unit_matrix"


def _span_labels() -> list[str]:
    labels = []
    for module, names in SPANS.items():
        for name in names:
            label = f"{module}.{name}"
            labels.extend((CLOSED, GRID) if label == VALIDATE else (label,))
    return labels


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units: dict[str, str] = {}
    for module, names in QUAT_COUNTED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
    for label in _span_labels():
        units[f"{label}.calls"] = "count"
        units[f"{label}.total_ms"] = "ms"
        if label not in LEAVES:
            units[f"{label}.self_ms"] = "ms"
    for module, names in COUNTED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
    units["stems.system_to_json.bytes"] = "bytes"
    units[f"{DRAWS}.draws_per_accept"] = "ratio"
    units[f"{GRID}.failed_conditions"] = "count"
    for condition in CONDITIONS:
        units[f"{GRID}.{condition}.worst_ratio"] = "ratio"
    for check in CHECKS:
        units[f"checks.{check}.total_ms"] = "ms"
    return units


class Tracer:
    """Span and counter records of a traced run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [label, seconds spent in wrapped callees]
        self._depth: dict[str, int] = defaultdict(int)

    def span(self, label: str, fn):
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label
            if label == VALIDATE:
                system = args[0] if args else kwargs["system"]
                grid_backed = any(e.stem.evaluator is None for e in system.entries)
                name = GRID if grid_backed else CLOSED
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                if not depth[name]:  # a recursive call is already inside the outer total
                    self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            self._observe(name, result)
            return result

        return wrapper

    def counter(self, label: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def draw_counter(self, fn):
        """Counts independence tests made directly by random_slice_unit_matrix."""
        stack, sums = self._stack, self.sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == DRAWS:
                sums[DRAWS + ".draws"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "stems.system_to_json":
            self.sums["stems.system_to_json.bytes"] += len(result.encode("utf-8"))
        elif name == GRID:
            for condition in result.conditions:
                if not condition.passed:
                    self.sums[GRID + ".failed_conditions"] += 1
                key = f"{GRID}.{condition.name}.worst_ratio"
                self.maxima[key] = max(self.maxima[key], condition.worst / condition.tolerance)

    def metrics(self) -> dict[str, float]:
        """Per-layer values by metric name; names never reached read 0."""
        out: dict[str, float] = {}
        for name, unit in metric_units().items():
            label, _, field = name.rpartition(".")
            if field == "calls":
                value = self.calls.get(label, 0)
            elif field == "total_ms":
                value = self.total_s.get(label, 0.0) * 1e3
            elif field == "self_ms":
                value = self.self_s.get(label, 0.0) * 1e3
            elif field == "draws_per_accept":
                accepts = self.calls.get(DRAWS, 0)
                value = self.sums.get(DRAWS + ".draws", 0.0) / accepts if accepts else 0.0
            elif field == "worst_ratio":
                value = self.maxima.get(name, 0.0)
            else:
                value = self.sums.get(name, 0.0)
            out[name] = value
        return out


def _slicekit_modules():
    return [m for n, m in list(sys.modules.items()) if n == "slicekit" or n.startswith("slicekit.")]


class Patch:
    """Wrappers for a set of slicekit names, applied and undone around each unit.

    Bindings are looked up once, when the patch is built, against the
    slicekit modules loaded at that time. Names the code no longer defines are
    listed in ``missing`` and read 0 in the metrics.
    """

    def __init__(self, sk, tracer: Tracer, spans=None, counted=None, with_checks=False, draws=False):
        self._swaps: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        modules = _slicekit_modules()
        for module, names in (spans or {}).items():
            for name in names:
                self._wrap(sk, modules, module, name, lambda label, fn: tracer.span(label, fn))
        for module, names in (counted or {}).items():
            for name in names:
                self._wrap(sk, modules, module, name, lambda label, fn: tracer.counter(label, fn))
        if draws:
            fn = getattr(sk.sliceunits, "is_left_slice_linearly_independent", None)
            if fn is not None:
                self._swaps.append((sk.sliceunits, "is_left_slice_linearly_independent", fn, tracer.draw_counter(fn)))
        self._suites = None
        if with_checks:
            self._suites = {
                suite: tuple(tracer.span(f"checks.{fn.__name__}", fn) for fn in fns)
                for suite, fns in sk.checks.SUITES.items()
            }
            self._original_suites = dict(sk.checks.SUITES)
            self._checks = sk.checks

    def _wrap(self, sk, modules, module, name, make) -> None:
        home = getattr(sk, module)
        label = f"{module}.{name}"
        owner_name, _, attr = name.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(label)
                return
            self._swaps.append((owner, attr, original, make(label, original)))
            return
        original = getattr(home, name, None)
        if original is None:
            self.missing.append(label)
            return
        wrapper = make(label, original)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._swaps.append((mod, binding, original, wrapper))

    def __enter__(self):
        for owner, attr, _original, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        if self._suites is not None:
            self._checks.SUITES.update(self._suites)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _wrapper in self._swaps:
            setattr(owner, attr, original)
        if self._suites is not None:
            self._checks.SUITES.update(self._original_suites)
        return False


def span_patch(sk, tracer: Tracer) -> Patch:
    """Spans on every layer plus the cheap counters; quaternion counters excluded."""
    return Patch(sk, tracer, spans=SPANS, counted=COUNTED, with_checks=True, draws=True)


def quat_patch(sk, tracer: Tracer) -> Patch:
    """Only the quaternion scalar counters."""
    return Patch(sk, tracer, counted=QUAT_COUNTED)

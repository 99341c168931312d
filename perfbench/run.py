"""slicekit benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check_all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics over ``--seconds``
seconds of unit time, rounded up to a whole cycle of the workload's mix. With
``--trace 1`` it runs a fixed list of units three times: untraced, with spans
on every layer, and with the quaternion counters alone, and reports the
per-layer metrics. The last line of standard output is one JSON object; the
lines before it are a readable record of the run. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread for this process only; must be set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "quat", "qmat", "sliceunits", "paths", "monodromy", "representation",
    "stemtensor", "stems", "calculus", "checks", "cli",
)  # fmt: skip

#: fresh imports plus warm-up units per run; setup_s is their median
SETUP_REPEATS = 3

#: percentiles tried for unit_tail_ms, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SetupError(Exception):
    """The program under test cannot be found or imported."""


def load_slicekit() -> SimpleNamespace:
    """Import slicekit afresh from this checkout's src/ and return its modules.

    Earlier imports are dropped first, so module bodies run again and every
    lru cache starts empty.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "slicekit" or n.startswith("slicekit.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("slicekit")
        modules = {name: importlib.import_module(f"slicekit.{name}") for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import slicekit from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent != SRC / "slicekit":
        raise SetupError(f"slicekit imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**modules)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it (else 50)."""
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    if p == 50.0:
        return statistics.median(ordered)
    # nearest rank: the smallest value with at least p percent of samples at or below it
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


class Outcome:
    """Units run, their latencies, and the worst checked deviation ratio."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.max_dev_ratio = 0.0
        self.errors: list[str] = []

    def record(self, wl, spec, run) -> None:
        """Time ``run(spec)``, then check its output outside the timing."""
        start = time.perf_counter()
        try:
            out = run(spec)
        except Exception as exc:  # a unit that raises counts as failed, the run goes on
            self.latencies.append(time.perf_counter() - start)
            self._fail(f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            ratio = wl.check(spec, out)
        except Exception as exc:  # unparsable output is a failed unit too
            self._fail(f"check raised {type(exc).__name__}: {exc}")
            return
        self.max_dev_ratio = max(self.max_dev_ratio, ratio)
        if not ratio <= 1.0:
            self._fail(f"deviation ratio {ratio:g} above 1")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure_setup(wl) -> tuple[SimpleNamespace, list[float]]:
    """Fresh import plus one warm-up unit, SETUP_REPEATS times; returns the last modules."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sk = load_slicekit()
        imported = time.perf_counter()
        wl.bind(sk)  # input construction, not set-up
        start += time.perf_counter() - imported
        wl.run_unit(sk, wl.pool[0])
        samples.append(time.perf_counter() - start)
    return sk, samples


def timed_loop(wl, sk, seconds: float) -> Outcome:
    """Closed loop over the pool until `seconds` of unit time, ending on a whole cycle."""
    outcome = Outcome()
    idx = 0
    while sum(outcome.latencies) < seconds or idx % wl.cycle:
        outcome.record(wl, wl.pool[idx % len(wl.pool)], lambda spec: wl.run_unit(sk, spec))
        idx += 1
    return outcome


def traced_passes(wl, sk) -> tuple[Outcome, dict[str, float], list[str]]:
    """The fixed unit list untraced, then with spans, then with quaternion counters."""
    k = wl.trace_units
    records = tracer.Tracer()
    span_patch = tracer.span_patch(sk, records)
    quat_patch = tracer.quat_patch(sk, records)

    def under(patch):
        def unit(spec):
            with patch:
                return wl.run_unit(sk, spec)

        return unit

    outcome = Outcome()
    for run_unit in (lambda spec: wl.run_unit(sk, spec), under(span_patch), under(quat_patch)):
        for spec in wl.pool[:k]:
            outcome.record(wl, spec, run_unit)
    untraced_ups = k / sum(outcome.latencies[:k])
    traced_ups = k / sum(outcome.latencies[k : 2 * k])
    metrics = records.metrics()
    metrics["trace.untraced_units_per_s"] = untraced_ups
    metrics["trace.traced_units_per_s"] = traced_ups
    metrics["trace.overhead_ratio"] = untraced_ups / traced_ups
    metrics["max_dev_ratio"] = outcome.max_dev_ratio
    return outcome, metrics, span_patch.missing + quat_patch.missing


#: per-layer metrics the traced run adds to the tracer's own
TRACE_EXTRA_UNITS = {
    "trace.untraced_units_per_s": "1/s",
    "trace.traced_units_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "max_dev_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    return {**tracer.metric_units(), **TRACE_EXTRA_UNITS}


END_TO_END_UNITS = {"units_per_s": "1/s", "unit_p50_ms": "ms", "unit_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(outcome: Outcome, setup_samples: list[float]) -> tuple[dict[str, float], list[str]]:
    """End-to-end values of an untraced run, and the lines that record them."""
    n, busy = outcome.attempted, sum(outcome.latencies)
    p_tail = tail_percentile(n)
    values = {
        "units_per_s": n / busy,
        "unit_p50_ms": statistics.median(outcome.latencies) * 1e3,
        "unit_tail_ms": percentile(outcome.latencies, p_tail) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail_note = f"p{p_tail:g} of {n} samples"
    if n * (1 - p_tail / 100) < 10:
        tail_note += "; fewer than 20, so no percentile above the median has ten beyond it"
    record = [
        f"units_per_s    {values['units_per_s']!r} 1/s  ({n} units in {busy:.3f} s of unit time)",
        f"unit_p50_ms    {values['unit_p50_ms']!r} ms",
        f"unit_tail_ms   {values['unit_tail_ms']!r} ms  ({tail_note})",
        f"max_dev_ratio  {outcome.max_dev_ratio!r} ratio  (worst deviation over its pinned tolerance)",
        f"failed_frac    {outcome.failed / n!r} ratio  ({outcome.failed} of {n})",
        f"setup_s        {values['setup_s']!r} s  (median of {len(setup_samples)}: "
        + ", ".join(f"{s:.4f}" for s in setup_samples)
        + ")",
        f"peak_rss_mb    {values['peak_rss_mb']!r} MB",
    ]
    return values, record


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy without the dict mode
        return "unknown"


def environment_lines(load_start) -> list[str]:
    return [
        f"revision: {git_revision()}",
        f"python: {platform.python_version()}  numpy: {np.__version__}  blas: {blas_version()}",
        f"nproc: {os.cpu_count()}  OPENBLAS_NUM_THREADS: {os.environ['OPENBLAS_NUM_THREADS']}",
        "loadavg start: {:.2f} {:.2f} {:.2f}".format(*load_start)
        + "  end: {:.2f} {:.2f} {:.2f}".format(*os.getloadavg()),
    ]


NOTES = (
    "inputs are passed as files: a literal JSON argument longer than 255 bytes fails"
    " with 'File name too long' (ROADMAP open item 5)",
    "the grid verdict of a reloaded stem system is the validator's answer about"
    " interpolated data and does not count as a failed unit",
)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    load_start = os.getloadavg()
    sk = load_slicekit()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        wl = WORKLOADS[workload](sk, seed, tmp)
        lines = [f"slicekit benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}"]
        if trace:
            wl.bind(sk)
            wl.run_unit(sk, wl.pool[0])  # warm-up, untimed
            wl.prepare(sk)
            outcome, metrics, missing = traced_passes(wl, sk)
            units = per_layer_units()
            lines += [f"traced units: {wl.trace_units} per pass, three passes"]
            lines += [f"{name:60s} {metrics[name]!r} {unit}" for name, unit in units.items()]
            if missing:
                lines.append("not found in this slicekit, reported as 0: " + ", ".join(missing))
            result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        else:
            sk, setup_samples = measure_setup(wl)
            wl.prepare(sk)
            outcome = timed_loop(wl, sk, seconds)
            values, record = end_to_end(outcome, setup_samples)
            lines += record
            units = END_TO_END_UNITS
            result_metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        lines += [f"failure: {e}" for e in outcome.errors]
        lines += environment_lines(load_start)
        lines += [f"note: {note}" for note in NOTES]
        result = {
            "correct": outcome.failed == 0 and outcome.max_dev_ratio <= 1.0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": result_metrics,
        }
        return lines, result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

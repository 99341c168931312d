"""Self-tests of the benchmark: run with ``python -m pytest perfbench -q``.

They run the benchmark the way a harness does, as a subprocess from the root
of the checkout, so they take a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_the_code():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", NAMES)
def test_short_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = (result_of(bench(*args)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = {"count", "bytes"}
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in exact}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in exact}
    assert any(v > 0 for k, v in counts.items() if k.endswith(".calls") and not k.startswith("quat."))
    assert counts["quat.Quaternion.__init__.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_star_references_agree_with_the_program():
    sk = run.load_slicekit()
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        a, b = rng.uniform(-1, 1, (2, 1 << n, 4))
        pair = [sk.stemtensor.StemValue(n, tuple(sk.quat.Quaternion(*q) for q in x)) for x in (a, b)]
        expected = np.array([q.to_list() for q in sk.stemtensor.oracle_star(*pair).entries])
        np.testing.assert_allclose(workloads.kron_star_reference(a, b), expected, atol=1e-12)
    f, g = rng.uniform(-1, 1, (2, 9, 4))
    polys = [sk.calculus.SliceRegularPoly(tuple(sk.quat.Quaternion(*q) for q in x)) for x in (f, g)]
    expected = np.array([q.to_list() for q in sk.calculus.star_product(*polys).coefficients])
    np.testing.assert_allclose(workloads.convolve_reference(f, g), expected, atol=1e-12)


def test_tracer_patches_every_binding():
    sk = run.load_slicekit()
    original = sk.monodromy.continue_segment
    spans = tracer.Tracer()
    with tracer.span_patch(sk, spans):
        assert sk.stems.continue_segment is not original
        assert sk.monodromy.continue_segment is sk.stems.continue_segment
    assert sk.stems.continue_segment is original and sk.monodromy.continue_segment is original


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2000) == 99.0
    assert run.tail_percentile(250) == 95.0
    assert run.tail_percentile(19) == 50.0

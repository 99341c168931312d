import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicekit
from slicekit import checks, cli
from slicekit.calculus import SliceRegularPoly
from slicekit.cli import SEED_ENV, build_parser, main
from slicekit.errors import NonFiniteResult
from slicekit.monodromy import final_states, model_by_name
from slicekit.paths import Line, NPartPath, beta_path, half_turns, make_npart_path
from slicekit.quat import Quaternion, quat_inverse, random_imaginary_unit
from slicekit.sliceunits import SliceUnitMatrix, eta, random_slice_unit_matrix, unit_from_json

from oracles import per_lift_final_state, per_lift_representation_vector, scalar_germ_key, strict_loads


@pytest.fixture
def beta_file(tmp_path):
    target = tmp_path / "beta.json"
    target.write_text(beta_path().to_json())
    return str(target)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_monodromy_sqrt_beta(capsys, beta_file):
    code, out, _ = _run(
        capsys,
        ["monodromy", "--model", "sqrt", "--path", beta_file, "--units", "[1,0,0];[0,1,0]"],
    )
    assert code == 0
    payload = json.loads(out)
    # j^-1 * i = -j*i = k
    value = Quaternion.from_list(payload["value"])
    assert (value - Quaternion(0, 0, 0, 1)).norm() < 1e-9
    assert payload["parts"] == 2
    assert (Quaternion.from_list(payload["germ_key"]["point"]) - Quaternion(1)).norm() < 1e-9


def test_monodromy_log_beta_with_analytic(capsys, beta_file):
    code, out, _ = _run(
        capsys,
        [
            "monodromy",
            "--model",
            "log",
            "--path",
            beta_file,
            "--units",
            "[1,0,0];[0,1,0]",
            "--check-analytic",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    expected = Quaternion(0, math.pi, -math.pi, 0)
    assert (Quaternion.from_list(payload["value"]) - expected).norm() < 1e-9
    assert payload["analytic_deviation"] < 1e-9


def test_monodromy_csv(capsys, beta_file):
    code, out, _ = _run(
        capsys,
        [
            "monodromy",
            "--model",
            "sqrt",
            "--path",
            beta_file,
            "--units",
            "[1,0,0];[0,1,0]",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("value_w,")
    assert len(lines) == 2


def test_monodromy_parse_error(capsys):
    code, _, err = _run(
        capsys, ["monodromy", "--model", "sqrt", "--path", "{bad", "--units", "[1,0,0]"]
    )
    assert code == 2
    assert "error" in err


def test_monodromy_branch_crossing(capsys, tmp_path):
    crossing = make_npart_path([Line(1 + 0j, -1 + 0j)])
    target = tmp_path / "crossing.json"
    target.write_text(crossing.to_json())
    code, _, err = _run(
        capsys,
        ["monodromy", "--model", "sqrt", "--path", str(target), "--units", "[1,0,0]"],
    )
    assert code == 3
    assert "domain error" in err


def test_monodromy_polynomial(capsys, beta_file):
    code, out, _ = _run(
        capsys,
        [
            "monodromy",
            "--model",
            "poly",
            "--coeffs",
            '{"coeffs": [[0,0,0,0],[0,0,0,0],[1,0,0,0]]}',
            "--path",
            beta_file,
            "--units",
            "[1,0,0];[0,1,0]",
        ],
    )
    assert code == 0
    value = Quaternion.from_list(json.loads(out)["value"])
    assert (value - Quaternion(1)).norm() < 1e-9  # (beta ends at 1) squared


def test_repformula_log(capsys, beta_file):
    code, out, _ = _run(
        capsys,
        ["repformula", "--model", "log", "--path", beta_file, "--units", "[1,0,0];[0,1,0]"],
    )
    assert code == 0
    payload = json.loads(out)
    g = [Quaternion.from_list(entry) for entry in payload["G"]]
    expected = [Quaternion(), Quaternion(math.pi), Quaternion(), Quaternion(math.pi)]
    assert all((a - b).norm() < 1e-9 for a, b in zip(g, expected))
    assert payload["invariance_dev"] < 1e-8
    value = Quaternion.from_list(payload["value"])
    assert (value - Quaternion(0, math.pi, -math.pi, 0)).norm() < 1e-9


def test_repformula_with_explicit_reference_file(capsys, beta_file, tmp_path):
    from slicekit.quat import ImaginaryUnit
    from slicekit.sliceunits import eta

    j_file = tmp_path / "reference.json"
    j_file.write_text(eta(2, ImaginaryUnit(0, 0, 1)).to_json())
    code, out, _ = _run(
        capsys,
        ["repformula", "--model", "sqrt", "--path", beta_file, "--J", str(j_file)],
    )
    assert code == 0
    payload = json.loads(out)
    g = [Quaternion.from_list(entry) for entry in payload["G"]]
    expected = [Quaternion(), Quaternion(), Quaternion(-1), Quaternion()]
    assert all((a - b).norm() < 1e-9 for a, b in zip(g, expected))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("model", ["sqrt", "log"])
def test_repformula_computes_each_vector_once(n, model, capsys, monkeypatch, tmp_path, rng):
    up = half_turns(1)
    path_file, j_file = tmp_path / "loop.json", tmp_path / "J.json"
    path_file.write_text(make_npart_path([up if k % 2 == 0 else up.reversed() for k in range(n)]).to_json())
    j_file.write_text(random_slice_unit_matrix(n, rng).to_json())
    calls = []

    def counted(*args):
        calls.append(args)
        return final_states(*args)

    monkeypatch.setattr(slicekit.representation, "final_states", counted)
    code, out, _ = _run(capsys, ["repformula", "--model", model, "--path", str(path_file), "--J", str(j_file)])
    # one continuation of the path for the rows of J and of the comparison stack
    assert code == 0 and len(calls) == 1 and len(calls[0][2]) == 2 << n
    fn = model_by_name(model)
    path, j = NPartPath.from_json(path_file.read_text()), SliceUnitMatrix.from_json(j_file.read_text())
    g = per_lift_representation_vector(fn, path, j)
    deviation = (g - per_lift_representation_vector(fn, path, eta(n, Quaternion(0, 0, 1, 0)))).max_norm()
    # shortest round-trip digits tell signed zeros apart, so equal text is equal bits
    assert out == orjson.dumps({"G": [q.to_list() for q in g.entries], "invariance_dev": deviation}).decode() + "\n"


@pytest.mark.parametrize("model", ["sqrt", "log"])
def test_monodromy_matches_the_per_lift_fold(model, capsys, beta_file, rng):
    fn = model_by_name(model)
    for _ in range(5):
        text = ";".join(json.dumps(random_imaginary_unit(rng).to_list()) for _ in range(2))
        code, out, _ = _run(capsys, ["monodromy", "--model", model, "--path", beta_file, "--units", text])
        units = [unit_from_json(json.loads(part)) for part in text.split(";")]  # as the CLI parses them
        key = scalar_germ_key(fn, per_lift_final_state(fn, beta_path(), units))
        payload = {
            "value": key.value.to_list(),
            "germ_key": {"point": key.point.to_list(), "value": key.value.to_list()},
            "parts": 2,
        }
        assert code == 0 and out == orjson.dumps(payload).decode() + "\n"


_MONODROMY_POLY = [[0.5, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -0.25], [1.0, 0.0, 0.0, 0.5], [-0.0, 0.0, 0.75, 0.0]]
_CSV_HEADER = "value_w,value_x,value_y,value_z,point_w,point_x,point_y,point_z,parts\n"


@pytest.mark.parametrize("parts", [2, 3], ids=["beta", "loop3"])
@pytest.mark.parametrize("model", ["sqrt", "log", "poly"])
def test_monodromy_output_matches_the_oracle(model, parts, capsys, tmp_path, rng):
    # JSON, CSV and --check-analytic, each byte for byte the output built from the scalar formulas
    up = half_turns(1)
    path = beta_path() if parts == 2 else make_npart_path([up, up.reversed(), up])
    path_file = tmp_path / "path.json"
    path_file.write_text(path.to_json())
    fn = SliceRegularPoly(_MONODROMY_POLY) if model == "poly" else model_by_name(model)
    for _ in range(3):
        text = ";".join(json.dumps(random_imaginary_unit(rng).to_list()) for _ in range(parts))
        argv = ["monodromy", "--model", model, "--path", str(path_file), "--units", text]
        argv += ["--coeffs", json.dumps({"coeffs": _MONODROMY_POLY})] if model == "poly" else []
        units = [unit_from_json(json.loads(part)) for part in text.split(";")]
        key = scalar_germ_key(fn, per_lift_final_state(fn, path, units))
        value, point = key.value.to_list(), key.point.to_list()
        payload = {"value": value, "germ_key": {"point": point, "value": value}, "parts": parts}
        assert _run(capsys, argv)[:2] == (0, orjson.dumps(payload).decode() + "\n")
        row = ",".join(f"{c!r}" for c in value + point) + f",{parts}\n"
        assert _run(capsys, argv + ["--format", "csv"])[:2] == (0, _CSV_HEADER + row)
        if parts == 2 and model != "poly":  # the loop formula exists for the two-part loop only
            k1, k2 = units
            expected = quat_inverse(k2) * k1 if model == "sqrt" else math.pi * k1 - math.pi * k2
            payload["analytic_deviation"] = (key.value - expected).norm()
        assert _run(capsys, argv + ["--check-analytic"])[:2] == (0, orjson.dumps(payload).decode() + "\n")


def test_monodromy_one_part_counterexample(capsys, tmp_path):
    from slicekit.paths import half_turns, make_npart_path

    path_file = tmp_path / "five.json"
    path_file.write_text(make_npart_path([half_turns(5)]).to_json())
    code, out, _ = _run(
        capsys,
        ["monodromy", "--model", "log", "--path", str(path_file), "--units", "[0.8,0.6,0]"],
    )
    assert code == 0
    payload = json.loads(out)
    key_point = Quaternion.from_list(payload["germ_key"]["point"])
    key_value = Quaternion.from_list(payload["germ_key"]["value"])
    assert (key_point - Quaternion(-1)).norm() < 1e-9
    expected = 5 * math.pi * Quaternion(0, 0.8, 0.6, 0)
    assert (key_value - expected).norm() < 1e-9


def test_starprod_symmetrization(capsys):
    code, out, _ = _run(
        capsys,
        ["starprod", "--f", '{"coeffs": [[0,-1,0,0],[1,0,0,0]]}', "--op", "sym"],
    )
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert coeffs == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]


def test_starprod_long_literal_matches_file(capsys, tmp_path):
    # a literal longer than any file name is still read as JSON
    literal = json.dumps({"coeffs": [[k, -0.5 * k, 0.25, 1.0 / (k + 1)] for k in range(60)]})
    target = tmp_path / "f.json"
    target.write_text(literal)
    code_literal, via_literal, _ = _run(capsys, ["starprod", "--f", literal, "--op", "conj"])
    code_file, via_file, _ = _run(capsys, ["starprod", "--f", str(target), "--op", "conj"])
    assert code_literal == code_file == 0
    assert via_literal == via_file


def test_starprod_product(capsys):
    code, out, _ = _run(
        capsys,
        [
            "starprod",
            "--f",
            '{"coeffs": [[0,0,0,0],[0,1,0,0]]}',
            "--g",
            '{"coeffs": [[0,0,0,0],[0,0,1,0]]}',
        ],
    )
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert coeffs == [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


def _poly_json(coeffs) -> str:
    return json.dumps({"coeffs": coeffs})


@pytest.mark.parametrize("length", [1, 17])  # 17 * 17 = 289 live pairs: the array kernel runs
def test_starprod_overflow_is_domain_error(capsys, length):
    small = [[0.5, -0.25, 0.125, 0.0]] * length
    # star: f_5 * g_3 = 1e600 first lands in coefficient 8; sym: f_k * conj(f_k) = |f_k|^2 in 2k, x = -inf + inf
    f, g, k = list(small), list(small), min(5, length - 1)
    f[k], g[min(3, length - 1)] = [1e300, 0.0, 0.0, 0.0], [1e300, 0.0, 0.0, 0.0]
    star_index = k + min(3, length - 1)
    code, out, err = _run(capsys, ["starprod", "--f", _poly_json(f), "--g", _poly_json(g), "--op", "star"])
    assert (code, out) == (3, "")
    assert f"op=star overflowed: coefficient {star_index} is [inf, " in err
    f[k] = [1e300, 1e300, 0.0, 0.0]
    code, out, err = _run(capsys, ["starprod", "--f", _poly_json(f), "--op", "sym"])
    assert (code, out) == (3, "")
    assert f"op=sym overflowed: coefficient {2 * k} is [inf, nan, " in err


def test_starprod_overflow_carries_the_index():
    f = [[0.5, 0.0, 0.0, 0.0]] * 17
    f[9] = [1e300, 0.0, 0.0, 0.0]
    args = build_parser().parse_args(["starprod", "--f", _poly_json(f), "--g", _poly_json(f)])
    with pytest.raises(NonFiniteResult) as caught:
        args.fn(args)
    assert caught.value.index == 18


def test_starprod_large_finite_product_is_printed(capsys):
    # near the overflow line but finite: output as before
    f = [[2.0**500, 0.0, 0.0, 0.0]] * 17
    code, out, _ = _run(capsys, ["starprod", "--f", _poly_json(f), "--g", _poly_json(f)])
    assert code == 0
    assert json.loads(out)["coeffs"][16] == [17 * 2.0**1000, 0.0, 0.0, 0.0]


_HUGE_POLY = _poly_json([[1e308, 0.0, 0.0, 0.0], [1e308, 0.0, 0.0, 0.0]])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_monodromy_overflow_is_domain_error(capsys, beta_file, fmt):
    # p(q) = 1e308 + q * 1e308 at q = 1: JSON has no inf, and a CSV row of it would be no number either
    argv = ["monodromy", "--model", "poly", "--coeffs", _HUGE_POLY, "--path", beta_file, "--units", "[1,0,0];[0,1,0]"]
    code, out, err = _run(capsys, argv + ["--format", fmt])
    assert (code, out, err) == (3, "", "domain error: monodromy overflowed: value is [inf, 0.0, 0.0, 0.0]\n")
    args = build_parser().parse_args(argv + ["--check-analytic"])
    with pytest.raises(NonFiniteResult) as caught:
        args.fn(args)
    assert caught.value.index == 0


def test_repformula_overflow_is_domain_error(capsys, beta_file):
    argv = ["repformula", "--model", "poly", "--coeffs", _HUGE_POLY, "--path", beta_file, "--units", "[1,0,0];[0,1,0]"]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (3, "", "domain error: repformula overflowed: G entry 0 is [inf, nan, nan, nan]\n")
    args = build_parser().parse_args(argv)
    with pytest.raises(NonFiniteResult) as caught:
        args.fn(args)
    assert caught.value.index == 0


def test_stem_overflow_is_domain_error(capsys, beta_file):
    # p(q) = 1e308 + q * 1e308: the report's worst values overflow to NaN and inf, which JSON cannot carry
    argv = ["stem", "--model", "poly", "--coeffs", _HUGE_POLY, "--path", beta_file]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (3, "", "domain error: stem overflowed: holomorphy worst is [nan]\n")
    args = build_parser().parse_args(argv)
    with pytest.raises(NonFiniteResult) as caught:
        args.fn(args)
    assert caught.value.index == 0


def test_stem_overflow_writes_no_file(capsys, beta_file, tmp_path):
    out_file = tmp_path / "system.json"
    argv = ["stem", "--model", "poly", "--coeffs", _HUGE_POLY, "--path", beta_file, "--out", str(out_file)]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (3, "", "domain error: stem overflowed: holomorphy worst is [nan]\n")
    assert not out_file.exists()


def _segments_json(*segments) -> str:
    return json.dumps({"segments": list(segments)})


_LONG_LINE = _segments_json({"kind": "line", "from": [1, 0], "to": [2e154, 0]})  # abs(d) ** 2 overflows
_WIDE_LINE = _segments_json({"kind": "line", "from": [1, 0], "to": [1.5e308, 1.5e308]})  # abs(d) overflows


@pytest.mark.parametrize(
    "path, reason",
    [(_LONG_LINE, "Numerical result out of range"), (_WIDE_LINE, "absolute value too large")],
    ids=["square", "abs"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["monodromy", "--model", "sqrt", "--units", "[1,0,0]"],
        ["repformula", "--model", "log"],
        ["stem", "--model", "sqrt"],
    ],
    ids=["monodromy", "repformula", "stem"],
)
def test_coordinates_beyond_float_arithmetic_are_domain_errors(capsys, argv, path, reason):
    code, out, err = _run(capsys, argv + ["--path", path])
    assert (code, out, err) == (3, "", f"domain error: input too large for float arithmetic ({reason})\n")


def test_large_coordinates_inside_the_float_range_still_run(capsys):
    # an arc of radius 1.5e308 keeps every intermediate finite: it runs as it always did
    path = _segments_json({"kind": "arc", "center": [0, 0], "radius": 1.5e308, "theta0": 0, "theta1": 1})
    code, out, _ = _run(capsys, ["monodromy", "--model", "sqrt", "--path", path, "--units", "[1,0,0]"])
    fn = model_by_name("sqrt")
    key = scalar_germ_key(fn, per_lift_final_state(fn, NPartPath.from_json(path), [unit_from_json([1, 0, 0])]))
    value, point = key.value.to_list(), key.point.to_list()
    payload = {"value": value, "germ_key": {"point": point, "value": value}, "parts": 1}
    assert (code, out) == (0, orjson.dumps(payload).decode() + "\n")
    code, out, _ = _run(capsys, ["stem", "--model", "sqrt", "--path", path])
    assert code == 0 and json.loads(out)["passed"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(slicekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "slicekit", "starprod", "--f", _poly_json([[1, 2, 3, 4]]), "--op", "conj"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"coeffs": [[1.0, -2.0, -3.0, -4.0]]}


def test_stem_command(capsys, beta_file, tmp_path):
    out_file = tmp_path / "system.json"
    code, out, _ = _run(
        capsys,
        [
            "stem",
            "--model",
            "sqrt",
            "--path",
            beta_file,
            "--radius",
            "0.8",
            "--extra-truncations",
            "0.25,0.75",
            "--out",
            str(out_file),
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert {c["name"] for c in report["conditions"]} == {
        "holomorphy",
        "local-compatibility",
        "axial-compatibility",
        "initial-compatibility",
    }
    assert out_file.exists()
    saved = json.loads(out_file.read_text())
    assert set(saved) == {"x0", "paths", "radii", "samples"}


def test_check_suite_passes(capsys):
    code, out, _ = _run(capsys, ["check", "--suite", "unitarity", "--seed", "7"])
    assert code == 0
    assert "pass  eta-unitarity" in out


def test_check_json_deterministic(capsys):
    code1, out1, _ = _run(capsys, ["check", "--suite", "ring", "--seed", "3", "--format", "json"])
    code2, out2, _ = _run(capsys, ["check", "--suite", "ring", "--seed", "3", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SLICEKIT_SEED", "11")
    _, with_env, _ = _run(capsys, ["check", "--suite", "ring", "--format", "json"])
    monkeypatch.delenv("SLICEKIT_SEED")
    _, explicit, _ = _run(capsys, ["check", "--suite", "ring", "--seed", "11", "--format", "json"])
    assert with_env == explicit


def _leaves(obj, path=""):
    """(path, value) of every leaf of a JSON document, in document order."""
    if isinstance(obj, dict):
        return [leaf for key, value in obj.items() for leaf in _leaves(value, f"{path}.{key}")]
    if isinstance(obj, list):
        return [leaf for k, value in enumerate(obj) for leaf in _leaves(value, f"{path}[{k}]")]
    return [(path, obj)]


def _json_commands(seed: int) -> list[list[str]]:
    """One argv per command that prints JSON, its inputs drawn from `seed`; starprod at degree 64."""
    rng = np.random.default_rng(seed)
    units = ";".join(json.dumps(random_imaginary_unit(rng).to_list()) for _ in range(2))
    j = random_slice_unit_matrix(2, rng).to_json()
    # 65 coefficients whose magnitudes span 1e-9..1e9, so exponents are spelled
    f, g = (_poly_json((rng.standard_normal((65, 4)) * 10.0 ** rng.integers(-9, 9, (65, 4))).tolist()) for _ in "fg")
    return [
        ["monodromy", "--model", "log", "--path", _BETA, "--units", units, "--check-analytic"],
        ["repformula", "--model", "sqrt", "--path", _BETA, "--units", units, "--J", j],
        ["starprod", "--f", f, "--g", g, "--op", "star"],
        ["starprod", "--f", f, "--op", "conj"],
        ["starprod", "--f", f, "--op", "sym"],
        ["stem", "--model", "sqrt", "--path", _BETA, "--radius", repr(rng.uniform(0.5, 0.8))],
        ["check", "--seed", str(seed), "--format", "json"],
    ]


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_printed_numbers_are_the_bits_of_the_stdlib_spelling(capsys, monkeypatch, seed):
    # the payload each command hands the encoder, printed as orjson writes it: strict JSON whose every
    # number parses to the float64 that `json.dumps` of the same payload parses to, signed zeros included
    payloads = []
    monkeypatch.setattr(cli, "dumps", lambda obj: payloads.append(obj) or orjson.dumps(obj))
    for argv in _json_commands(seed):
        code, out, _ = _run(capsys, argv)
        (payload,) = payloads
        payloads.clear()
        assert code == 0 and out == orjson.dumps(payload).decode() + "\n"
        assert all(type(v) in (float, int, bool, str) for _, v in _leaves(payload))  # no numpy scalar
        printed, stdlib = _leaves(strict_loads(out)), _leaves(json.loads(json.dumps(payload)))
        assert [(p, type(v)) for p, v in printed] == [(p, type(v)) for p, v in stdlib]
        floats = [np.array([v for _, v in leaves if type(v) is float]) for leaves in (printed, stdlib)]
        assert floats[0].size and np.array_equal(floats[0].view(np.uint64), floats[1].view(np.uint64))
        assert [v for _, v in printed if type(v) is not float] == [v for _, v in stdlib if type(v) is not float]


@pytest.mark.parametrize("deviation", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_check_deviation_is_printed_as_null(capsys, monkeypatch, deviation):
    monkeypatch.setitem(checks.SUITES, "ring", (lambda rng: checks._result("broken", "ring", deviation, 1e-9),))
    code, out, _ = _run(capsys, ["check", "--suite", "ring", "--seed", "3", "--format", "json"])
    broken = {"name": "broken", "suite": "ring", "deviation": None, "tolerance": 1e-9, "passed": False}
    assert (code, strict_loads(out)) == (1, {"seed": 3, "checks": [broken]})
    code, out, _ = _run(capsys, ["check", "--suite", "ring", "--seed", "3"])
    assert (code, out) == (1, f"FAIL  broken  deviation={deviation:.3e}  tolerance=1.0e-09\n")


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(10**30), "1.5", "abc", ""])
def test_seed_outside_the_printable_range_is_a_usage_error(capsys, seed):
    code, out, err = _run(capsys, ["check", "--suite", "ring", "--format", "json", f"--seed={seed}"])
    assert (code, out) == (2, "")
    assert f"argument --seed: must be an integer in [0, 2**64), got {seed!r}" in err


@pytest.mark.parametrize("seed", ["abc", str(2**64), "-1"])
def test_seed_env_outside_the_printable_range_is_a_usage_error(capsys, monkeypatch, seed):
    monkeypatch.setenv(SEED_ENV, seed)
    code, out, err = _run(capsys, ["check", "--suite", "ring", "--format", "json"])
    assert (code, out, err) == (2, "", f"error: {SEED_ENV} must be an integer in [0, 2**64), got {seed!r}\n")


def test_largest_seed_runs_and_is_printed(capsys, monkeypatch):
    largest = 2**64 - 1
    code, out, _ = _run(capsys, ["check", "--suite", "ring", "--format", "json", "--seed", str(largest)])
    assert code == 0 and strict_loads(out)["seed"] == largest
    monkeypatch.setenv(SEED_ENV, str(largest))
    assert _run(capsys, ["check", "--suite", "ring", "--format", "json"])[:2] == (0, out)


def test_corrupted_structure_matrix_fails_check(capsys, monkeypatch):
    import numpy as np

    from slicekit import checks
    from slicekit.stemtensor import sigma_matrix

    def corrupted(n):
        good = sigma_matrix(n).copy()  # never edit the cached array itself
        good[0, :] = -good[0, :]  # sign bug
        return good

    monkeypatch.setattr(checks, "sigma_matrix", corrupted)
    result = checks.check_structure_identities(np.random.default_rng(0))
    assert not result.passed
    assert result.name == "structure-identities"


def test_tolerance_flag_gates_exit_code(capsys, beta_file):
    base = [
        "monodromy",
        "--model",
        "sqrt",
        "--path",
        beta_file,
        "--units",
        "[1,0,0];[0,1,0]",
        "--check-analytic",
    ]
    assert main(base + ["--tol", "1e-9"]) == 0
    capsys.readouterr()
    assert main(base + ["--tol", "1e-30"]) == 1
    capsys.readouterr()


def test_nan_unit_is_usage_error(capsys, beta_file):
    argv = ["monodromy", "--model", "sqrt", "--path", beta_file, "--units", "[NaN,0,0];[0,1,0]"]
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out == ""


def test_nan_arc_radius_is_usage_error(capsys, tmp_path):
    obj = json.loads(beta_path().to_json())
    obj["segments"][0]["radius"] = math.nan
    target = tmp_path / "nan.json"
    target.write_text(json.dumps(obj))
    argv = ["monodromy", "--model", "sqrt", "--path", str(target), "--units", "[1,0,0];[0,1,0]"]
    code, _, err = _run(capsys, argv)
    assert code == 2
    position = json.dumps(obj).index("NaN")  # the parser refuses the NaN literal itself and names where it stands
    assert err == f"error: --path: unexpected character: line 1 column {position + 1} (char {position})\n"


def test_usage_error_exit_code(capsys, beta_file):
    assert main(["monodromy", "--model", "sqrt"]) == 2
    assert main(["nonsense"]) == 2
    # only check samples, so only check takes --seed; the rest of each argv is valid
    seeded = ["--seed", "1"]
    lifted = ["--model", "sqrt", "--path", beta_file, "--units", "[1,0,0];[0,1,0]"]
    assert main(["monodromy", *seeded, *lifted]) == 2
    assert main(["repformula", *seeded, *lifted]) == 2
    assert main(["starprod", *seeded, "--f", '{"coeffs": [[1,0,0,0]]}', "--op", "conj"]) == 2
    assert main(["stem", *seeded, "--model", "sqrt", "--path", beta_file]) == 2


@pytest.mark.parametrize("command", ["monodromy", "repformula", "stem"])
def test_polynomial_model_needs_coeffs(capsys, beta_file, command):
    argv = [command, "--model", "poly", "--path", beta_file]
    argv += ["--units", "[1,0,0];[0,1,0]"] if command != "stem" else []
    assert _run(capsys, argv) == (2, "", "error: --coeffs is required for the polynomial model\n")


@pytest.mark.parametrize(
    "command, units",
    [
        ("monodromy", "[1,0,0]"),
        ("monodromy", "[1,0,0];[0,1,0];[0,0,1]"),
        ("repformula", "[1,0,0]"),
        ("repformula", "[1,0,0];[0,1,0];[0,0,1]"),
    ],
)
def test_unit_count_must_match_path_parts(capsys, beta_file, command, units):
    code, out, err = _run(capsys, [command, "--model", "sqrt", "--path", beta_file, "--units", units])
    assert code == 2
    assert out == ""
    assert "2-part path needs 2 units" in err


@pytest.mark.parametrize("extra", ["nan", "inf", "0", "1", "1.5", "-3", "0.25,nan"])
def test_stem_extra_truncations_outside_unit_interval_are_usage_errors(capsys, beta_file, extra):
    argv = ["stem", "--model", "sqrt", "--path", beta_file, "--extra-truncations", extra]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "extra truncation" in err


@pytest.mark.parametrize("radius", ["nan", "-0.5", "inf", "0"])
def test_stem_radius_must_be_finite_and_positive(capsys, beta_file, radius):
    code, out, err = _run(capsys, ["stem", "--model", "sqrt", "--path", beta_file, "--radius", radius])
    assert code == 2
    assert out == ""
    assert "--radius" in err


@pytest.mark.parametrize(
    "path",
    [
        '{"segments": 5}',
        "[1]",
        "null",
        '{"segments": [1]}',
        '{"segments": [{"kind": "line", "from": ["a", 0], "to": [1, 0]}]}',
        '{"segments": [{"kind": "line", "from": [1, 0, 0], "to": [1, 0]}]}',
        '{"segments": [{"kind": "arc", "center": [0, 0], "radius": "1", "theta0": 0, "theta1": 1}]}',
        '{"segments": [{"kind": "arc", "center": [0,0], "radius": 1%s, "theta0": 0, "theta1": 1}]}' % ("0" * 400),
        '{"segments": [{"kind": "chain", "pieces": 7}]}',
    ],
    ids=[
        "segments-not-a-list",
        "document-a-list",
        "document-null",
        "segment-not-an-object",
        "string-coordinate",
        "three-coordinates",
        "string-radius",
        "radius-beyond-float-range",
        "pieces-not-a-list",
    ],
)
def test_malformed_path_json_is_usage_error(capsys, path):
    code, out, err = _run(capsys, ["monodromy", "--model", "sqrt", "--path", path, "--units", "[1,0,0]"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


_BETA = beta_path().to_json()
_ETA = eta(2, Quaternion(0, 0, 1, 0)).to_json()


def _non_finite_inputs():
    """(id, argv): every JSON input of the CLI with one number spelled as a literal with no finite float reading."""
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        poly = '{"coeffs":[[1,0,0,%s]]}' % literal
        path, j = _BETA.replace('"radius":1.0', '"radius":' + literal, 1), _ETA.replace("1.0", literal, 1)
        assert literal in path and literal in j
        units = ["--units", "[1,0,0];[0,1,0]"]
        yield f"f-{literal}", ["starprod", "--f", poly, "--op", "conj"]
        yield f"g-{literal}", ["starprod", "--f", '{"coeffs":[[1,0,0,0]]}', "--g", poly]
        yield f"coeffs-{literal}", ["monodromy", "--model", "poly", "--coeffs", poly, "--path", _BETA, *units]
        yield f"path-{literal}", ["monodromy", "--model", "sqrt", "--path", path, *units]
        yield f"J-{literal}", ["repformula", "--model", "sqrt", "--path", _BETA, "--J", j]
        bad_units = ["--units", f"[{literal},0,0];[0,1,0]"]
        yield f"units-{literal}", ["monodromy", "--model", "sqrt", "--path", _BETA, *bad_units]


_NON_FINITE_INPUTS = list(_non_finite_inputs())


@pytest.mark.parametrize(
    "argv",
    [
        ["monodromy", "--model", "sqrt", "--path", _BETA, "--units", "5"],
        ["monodromy", "--model", "sqrt", "--path", _BETA, "--units", '[0,0,"x"];[0,1,0]'],
        ["repformula", "--model", "sqrt", "--path", _BETA, "--J", "5"],
        ["repformula", "--model", "sqrt", "--path", _BETA, "--J", "[[1]]"],
        ["repformula", "--model", "sqrt", "--path", _BETA, "--J", '{"N":2,"rows":5}'],
        ["repformula", "--model", "sqrt", "--path", _BETA, "--J", '{"N":2,"rows":[[[1,0,0],[0,1,0]]]}'],
        ["starprod", "--f", "5", "--op", "conj"],
        ["starprod", "--f", '{"coeffs":5}', "--op", "conj"],
        ["starprod", "--f", '{"coeffs":[5]}', "--op", "conj"],
        ["starprod", "--f", '{"coeffs":[[1,0,0,NaN]]}', "--op", "conj"],
        ["monodromy", "--model", "poly", "--coeffs", "5", "--path", _BETA, "--units", "[1,0,0];[0,1,0]"],
        *(argv for _, argv in _NON_FINITE_INPUTS),
    ],
    ids=[
        "units-a-number",
        "units-string-coordinate",
        "J-a-number",
        "J-a-list",
        "J-rows-a-number",
        "J-one-row-of-four",
        "poly-a-number",
        "coeffs-a-number",
        "coefficient-a-number",
        "coefficient-nan",
        "model-coeffs-a-number",
        *(name for name, _ in _NON_FINITE_INPUTS),
    ],
)
def test_malformed_units_j_and_polynomial_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name, argv", _NON_FINITE_INPUTS, ids=[name for name, _ in _NON_FINITE_INPUTS])
def test_json_parse_error_names_its_option(capsys, name, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --{name.partition('-')[0]}: ")


def test_integer_json_numbers_read_as_their_floats(capsys):
    big = [10**30, 2**64 + 1, -(2**63) - 1, 7]
    code, out, _ = _run(capsys, ["starprod", "--f", json.dumps({"coeffs": [big]}), "--op", "conj"])
    assert code == 0
    assert json.loads(out)["coeffs"] == [[float(big[0]), -float(big[1]), -float(big[2]), -float(big[3])]]


@pytest.mark.parametrize("degree", [3, 40])  # 4 x 4 pairs run the loop, 41 x 41 the array kernel
def test_starprod_builds_no_quaternion(capsys, monkeypatch, degree):
    rng = np.random.default_rng(degree)
    f, g = (_poly_json(rng.uniform(-1, 1, (degree + 1, 4)).tolist()) for _ in range(2))
    built = []
    init = Quaternion.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quaternion, "__init__", counted)
    for op in ("star", "conj", "sym"):
        assert _run(capsys, ["starprod", "--f", f, "--g", g, "--op", op])[0] == 0
    assert built == []


@pytest.mark.parametrize(
    "option,value",
    [("--tol", "nan"), ("--tol", "-1e-9"), ("--tol", "inf"), ("--x0", "nan"), ("--x0", "-inf")],
)
def test_tol_and_x0_must_be_finite(capsys, beta_file, option, value):
    argv = ["monodromy", "--model", "sqrt", "--path", beta_file, "--units", "[1,0,0];[0,1,0]", "--check-analytic"]
    code, out, err = _run(capsys, argv + [f"{option}={value}"])  # "=" keeps "-1e-9" from reading as a flag
    assert code == 2
    assert out == ""
    assert option in err


def _is_point_coordinate(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_NOT_NUMBER = _JSON.filter(lambda v: not _is_point_coordinate(v))
_NOT_POINT = _JSON.filter(
    lambda v: not (isinstance(v, list) and len(v) == 2 and all(map(_is_point_coordinate, v)))
)


@st.composite
def _malformed_path_json(draw) -> str:
    """The beta path JSON with one defect of shape or type somewhere."""
    doc = json.loads(beta_path().to_json())
    segments = doc["segments"]
    defect = draw(st.sampled_from(["document", "segments", "segment", "chain", "field", "missing"]))
    idx = draw(st.integers(0, len(segments) - 1))
    if defect == "document":
        doc = draw(_JSON.filter(lambda v: not (isinstance(v, dict) and isinstance(v.get("segments"), list))))
    elif defect == "segments":
        doc["segments"] = draw(_JSON.filter(lambda v: not isinstance(v, list)))
    elif defect == "segment":
        segments[idx] = draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    elif defect == "chain":
        segments[idx] = {"kind": "chain", "pieces": draw(_JSON.filter(lambda v: not isinstance(v, list)))}
    else:
        segment = segments[idx]
        key = draw(st.sampled_from(sorted(segment)))
        if defect == "missing":
            del segment[key]
        elif key == "kind":
            segment[key] = draw(_JSON.filter(lambda v: v != "arc"))
        elif key == "center":
            segment[key] = draw(_NOT_POINT)
        else:
            segment[key] = draw(_NOT_NUMBER)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(path=_malformed_path_json())
def test_malformed_path_json_fuzz(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["monodromy", "--model", "sqrt", "--path", path, "--units", "[1,0,0];[0,1,0]"])
    assert code in (2, 3)
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


_NOT_UNIT = _JSON.filter(
    lambda v: not (isinstance(v, list) and len(v) == 3 and all(map(_is_point_coordinate, v)))
)


@st.composite
def _malformed_units_argv(draw) -> list[str]:
    """Two valid lift units with one replaced by a malformed one."""
    units = ["[1,0,0]", "[0,1,0]"]
    units[draw(st.integers(0, 1))] = json.dumps(draw(_NOT_UNIT))
    return ["monodromy", "--model", "sqrt", "--path", _BETA, "--units", ";".join(units)]


@st.composite
def _malformed_j_argv(draw) -> list[str]:
    """The eta stack of order 2 as JSON with one defect of shape or type."""
    doc = json.loads(eta(2, Quaternion(0, 0, 1, 0)).to_json())
    defect = draw(st.sampled_from(["document", "N", "rows", "row", "unit", "missing"]))
    row = draw(st.integers(0, 3))
    if defect == "document":
        doc = draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    elif defect == "N":
        doc["N"] = draw(_JSON.filter(lambda v: v != 2))
    elif defect == "rows":
        doc["rows"] = draw(_JSON.filter(lambda v: not isinstance(v, list)))
    elif defect == "row":
        doc["rows"][row] = draw(_JSON.filter(lambda v: not isinstance(v, list)))
    elif defect == "unit":
        doc["rows"][row][draw(st.integers(0, 1))] = draw(_NOT_UNIT)
    else:
        del doc[draw(st.sampled_from(["N", "rows"]))]
    return ["repformula", "--model", "sqrt", "--path", _BETA, "--J", json.dumps(doc)]


@st.composite
def _malformed_poly_argv(draw) -> list[str]:
    """A two-term polynomial as JSON with one defect of shape or type."""
    doc = {"coeffs": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    defect = draw(st.sampled_from(["document", "coeffs", "coefficient", "component"]))
    idx = draw(st.integers(0, 1))
    if defect == "document":
        doc = draw(_JSON.filter(lambda v: not (isinstance(v, dict) and isinstance(v.get("coeffs"), list))))
    elif defect == "coeffs":
        doc["coeffs"] = draw(_JSON.filter(lambda v: not isinstance(v, list)))
    elif defect == "coefficient":
        doc["coeffs"][idx] = draw(
            _JSON.filter(lambda v: not (isinstance(v, list) and len(v) == 4 and all(map(_is_point_coordinate, v))))
        )
    else:
        doc["coeffs"][idx][draw(st.integers(0, 3))] = draw(_NOT_NUMBER)
    return ["starprod", "--f", json.dumps(doc), "--op", "conj"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=st.one_of(_malformed_units_argv(), _malformed_j_argv(), _malformed_poly_argv()))
def test_malformed_units_j_and_polynomial_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (2, 3)
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    """A usage error, a starprod and two seeded checks in one process, each as a fresh process prints it."""
    build_parser.cache_clear()
    f, g = '{"coeffs": [[1,2,0,0],[0,0,1,0]]}', '{"coeffs": [[0,1,0,0],[3,0,0,1]]}'
    starprod = ["starprod", "--f", f, "--g", g]
    check = ["check", "--suite", "star", "--format", "json"]
    runs = [(["starprod", "--op", "bogus", "--f", "{}"], None), (starprod, None), (check, "7"), (check, "11")]
    in_process = []
    for argv, seed in runs:
        if seed is None:
            monkeypatch.delenv(SEED_ENV, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV, seed)
        in_process.append(_run(capsys, argv))
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
    assert in_process[2][1] != in_process[3][1]

    src = str(Path(slicekit.__file__).resolve().parents[1])
    for (argv, seed), got in zip(runs, in_process):
        env = {k: v for k, v in os.environ.items() if k != SEED_ENV}
        env["PYTHONPATH"] = src
        if seed is not None:
            env[SEED_ENV] = seed
        fresh = subprocess.run(
            [sys.executable, "-m", "slicekit.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)

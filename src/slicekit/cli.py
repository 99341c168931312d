"""Command-line front end: monodromy runs, representation vectors, star
products, stem-system validation, and the seeded verification suites.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 domain
error (branch-point crossing and friends, a result that overflowed to inf or
NaN, or input so large that its arithmetic leaves the float range).  Output
is JSON by default; `monodromy` can also emit a one-row CSV table.

Every JSON document is written by orjson: compact, each number in its
shortest round-trip digits (`1e-7`, `1e16`, `-0.0`), so `json.loads` reads
back the same float64 bits.  A payload holds Python floats, ints, bools and
strings only.  A NaN or infinite `check` deviation is written as `null`; the
other commands raise `NonFiniteResult` before printing.  Every JSON input
(`--f`, `--g`, `--coeffs`, `--path`, `--J` and `--units`) is read by
`orjson.loads`, which refuses `NaN`, `Infinity` and numbers beyond the float
range as it parses, and reads an integer outside the 64-bit range as its
nearest float; a parse error names the option it came from (`--g: ...`).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from orjson import JSONDecodeError, dumps, loads

from . import checks
from .calculus import SliceRegularPoly, regular_conjugate, star_product, symmetrization
from .errors import NonFiniteResult, SliceKitError
from .monodromy import SliceFunctionModel, final_states, germ_key, model_by_name
from .paths import NPartPath
from .quat import ImaginaryUnit, Quaternion
from .representation import evaluate_via_formula, representation_vectors
from .sliceunits import SliceUnitMatrix, eta, unit_from_json
from .stems import build_stem_system, system_to_json, validate_stem_system

SEED_ENV = "SLICEKIT_SEED"


def _read_maybe_file(arg: str) -> str | bytes:
    """The bytes of the file named `arg`, for orjson to read; `arg` itself when no such file exists."""
    if not os.path.exists(arg):  # also false for a name too long, or otherwise impossible, as a file name
        return arg
    with open(arg, "rb") as handle:
        return handle.read()


def _decoded(option: str, parse: Callable, text: str | bytes):
    """`parse(text)`; a JSON syntax error in `text` becomes a usage error (exit 2) that names `option`."""
    try:
        return parse(text)
    except JSONDecodeError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _parse_units(text: str, path: NPartPath) -> tuple[ImaginaryUnit, ...]:
    """One lift unit per part of `path`; a different count is a usage error (exit 2)."""
    units = tuple(unit_from_json(_decoded("--units", loads, p)) for p in text.split(";") if p.strip())
    if len(units) != path.parts:
        raise ValueError(f"{path.parts}-part path needs {path.parts} units, got {len(units)}")
    return units


def _parse_path(arg: str) -> NPartPath:
    return _decoded("--path", NPartPath.from_json, _read_maybe_file(arg))


def _parse_poly(option: str, arg: str) -> SliceRegularPoly:
    return SliceRegularPoly.from_json_obj(_decoded(option, loads, _read_maybe_file(arg)))


def _finite_float(admissible, requirement: str):
    """argparse type: a finite float that `admissible` accepts; anything else is a usage error (exit 2)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and admissible(value)):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_positive_radius = _finite_float(lambda value: value > 0.0, "a finite positive number")
_tolerance = _finite_float(lambda value: value >= 0.0, "a finite number >= 0")
_real_point = _finite_float(lambda value: True, "a finite number")


def _require_finite(label: str, rows: list[list[float]], name: Callable[[int], str]) -> None:
    """JSON has no inf or NaN: an output that overflowed is a domain error (exit 3), not output.

    `rows` are the output's numbers in print order, one list per entry, and
    `name(k)` names entry k; NonFiniteResult's `index` is the first entry
    holding a non-finite number.
    """
    if all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        return
    index = next(k for k, row in enumerate(rows) if not all(map(math.isfinite, row)))
    raise NonFiniteResult(f"{label} overflowed: {name(index)} is {rows[index]}", index=index)


def _build_model(args) -> SliceFunctionModel:
    if args.model == "poly":
        if not getattr(args, "coeffs", None):
            raise ValueError("--coeffs is required for the polynomial model")
        return _parse_poly("--coeffs", args.coeffs)
    return model_by_name(args.model)


def _seed_value(text: str) -> int:
    """argparse type: a seed 0 <= s < 2**64, an integer the JSON output can write; else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text!r}")
    return value


def _seed(args) -> int:
    """--seed, else $SLICEKIT_SEED, else 0; a seed outside [0, 2**64) in the environment is a ValueError (exit 2)."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if not env:
        return 0
    try:
        return _seed_value(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{SEED_ENV} {exc}") from None


def cmd_monodromy(args) -> int:
    model = _build_model(args)
    path = _parse_path(args.path)
    units = _parse_units(args.units, path)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below, as NonFiniteResult
        (key,) = germ_key(model, final_states(model, path, [units], args.x0))
    value = key.value
    payload = {
        "value": value.to_list(),
        "germ_key": {"point": key.point.to_list(), "value": key.value.to_list()},
        "parts": path.parts,
    }
    rows = [payload["value"], payload["germ_key"]["point"]]
    exit_code = 0
    if args.check_analytic and path.parts == 2 and args.model in checks.BETA_LOOP_VALUES:
        deviation = (value - checks.BETA_LOOP_VALUES[args.model](*units)).norm()
        payload["analytic_deviation"] = deviation
        rows.append([deviation])
        if args.tol is not None and deviation > args.tol:
            exit_code = 1
    _require_finite("monodromy", rows, ("value", "germ_key point", "analytic_deviation").__getitem__)
    if args.format == "csv":
        header = (
            "value_w,value_x,value_y,value_z,"
            "point_w,point_x,point_y,point_z,parts"
        )
        row = ",".join(f"{c!r}" for c in value.to_list() + key.point.to_list()) + f",{path.parts}"
        print(header)
        print(row)
    else:
        print(dumps(payload).decode())
    return exit_code


def cmd_repformula(args) -> int:
    model = _build_model(args)
    path = _parse_path(args.path)
    if args.J:
        j = _decoded("--J", SliceUnitMatrix.from_json, _read_maybe_file(args.J))
        if j.N != path.parts:  # a usage error (exit 2), as a wrong count of --units is
            raise ValueError(f"--J: {path.parts}-part path needs an order-{path.parts} unit matrix, got order {j.N}")
    else:
        j = eta(path.parts, Quaternion(0, 1, 0, 0))
    units = _parse_units(args.units, path) if args.units else None
    # invariance_check(model, path, j, alt, x0), with g kept: the rows of J and of alt continue in one call
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below, as NonFiniteResult
        g, g_alt = representation_vectors(model, path, [j, eta(path.parts, Quaternion(0, 0, 1, 0))], args.x0)
    deviation = (g - g_alt).max_norm()
    payload = {
        "G": g.components.tolist(),
        "invariance_dev": deviation,
    }
    if units:
        payload["value"] = evaluate_via_formula(g, units).to_list()
    size = len(payload["G"])
    rows = payload["G"] + [[deviation]] + ([payload["value"]] if units else [])
    _require_finite("repformula", rows, lambda k: f"G entry {k}" if k < size else ("invariance_dev", "value")[k - size])
    print(dumps(payload).decode())
    return 1 if args.tol is not None and deviation > args.tol else 0


def cmd_starprod(args) -> int:
    f = _parse_poly("--f", args.f)
    if args.op == "star":
        if not args.g:
            raise ValueError("--g is required for op=star")
        out = star_product(f, _parse_poly("--g", args.g))
    elif args.op == "conj":
        out = regular_conjugate(f)
    elif args.op == "sym":
        out = symmetrization(f)
    else:
        raise ValueError(f"unknown op {args.op!r}")
    payload = out.to_json_obj()
    if not np.isfinite(out.components).all():  # one array pass; the rows' check only names the culprit
        _require_finite(f"op={args.op}", payload["coeffs"], "coefficient {}".format)
    print(dumps(payload).decode())
    return 0


def cmd_stem(args) -> int:
    model = _build_model(args)
    anchors = []
    for idx, path_arg in enumerate(args.path):
        anchors.append((f"path{idx}" if len(args.path) > 1 else "path", _parse_path(path_arg)))
    extra = tuple(float(t) for t in args.extra_truncations.split(",") if t) if args.extra_truncations else ()
    system = build_stem_system(model, anchors, radius=args.radius, extra_truncations=extra)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below, as NonFiniteResult
        report = validate_stem_system(system)
        conditions = report.conditions
        _require_finite("stem", [[c.worst] for c in conditions], lambda k: f"{conditions[k].name} worst")
        if args.out:
            Path(args.out).write_text(system_to_json(system))  # a non-finite grid raises before the file is opened
    print(dumps(report.to_dict()).decode())
    return 0 if report.passed else 1


def cmd_check(args) -> int:
    seed = _seed(args)
    results = checks.run_suite(args.suite, seed)
    if args.format == "json":  # a NaN or inf deviation is written as null
        print(dumps({"seed": seed, "checks": [r.to_dict() for r in results]}).decode())
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every `main` call."""
    parser = argparse.ArgumentParser(prog="slicekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_units=True):
        p.add_argument("--model", required=True, choices=["sqrt", "log", "poly"])
        p.add_argument("--path", required=True, help="path JSON file or literal JSON")
        p.add_argument("--coeffs", help="polynomial coefficients JSON (for --model poly)")
        p.add_argument("--x0", type=_real_point, default=None, help="expected real starting point")
        p.add_argument(
            "--tol", type=_tolerance, default=None, help="fail (exit 1) when the reported deviation exceeds this"
        )
        if with_units:
            p.add_argument("--units", help='lift units, e.g. "[0,0,1];[0,1,0]"')

    p_mono = sub.add_parser("monodromy", help="continue a model along a lifted path")
    common(p_mono)
    p_mono.add_argument("--format", choices=["json", "csv"], default="json")
    p_mono.add_argument(
        "--check-analytic",
        action="store_true",
        help="report deviation from the two-part loop formula (beta path)",
    )
    p_mono.set_defaults(fn=cmd_monodromy, units_required=True)

    p_rep = sub.add_parser("repformula", help="invariant vector and formula evaluation")
    common(p_rep)
    p_rep.add_argument("--J", help="slice-unit matrix JSON file (default: eta stack over i)")
    p_rep.set_defaults(fn=cmd_repformula)

    p_star = sub.add_parser("starprod", help="star product / conjugate / symmetrization")
    p_star.add_argument("--f", required=True, help="polynomial JSON file or literal")
    p_star.add_argument("--g", help="second polynomial (for op=star)")
    p_star.add_argument("--op", choices=["star", "conj", "sym"], default="star")
    p_star.set_defaults(fn=cmd_starprod)

    p_stem = sub.add_parser("stem", help="build and validate a stem system")
    p_stem.add_argument("--model", required=True, choices=["sqrt", "log", "poly"])
    p_stem.add_argument("--path", required=True, nargs="+", help="anchor path JSON file(s)")
    p_stem.add_argument("--coeffs", help="polynomial coefficients JSON")
    p_stem.add_argument("--radius", type=_positive_radius, default=0.8)
    p_stem.add_argument("--extra-truncations", default="", help='comma list, e.g. "0.25,0.75"')
    p_stem.add_argument("--out", help="write sampled system JSON here")
    p_stem.set_defaults(fn=cmd_stem)

    p_check = sub.add_parser("check", help="run seeded verification suites")
    p_check.add_argument(
        "--seed", type=_seed_value, default=None, help=f"sampling seed in [0, 2**64) (default ${SEED_ENV} or 0)"
    )
    p_check.add_argument(
        "--suite",
        default="all",
        choices=sorted(checks.SUITES) + ["all"],
    )
    p_check.add_argument("--format", choices=["json", "lines"], default="lines")
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "units_required", False) and not args.units:
            raise ValueError("--units is required for this command")
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SliceKitError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # finite input whose arithmetic leaves the float range, as abs(1.5e308 + 1.5e308j)
        print(f"domain error: input too large for float arithmetic ({exc.args[-1]})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Every third-party module the package imports is declared in pyproject.toml; orjson is the one JSON encoder, and
the one decoder."""

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slicekit"


def _nodes():
    """(file name, node) for every syntax-tree node of the package, function bodies included."""
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            yield source.name, node


def _imported_modules() -> dict[str, set[str]]:
    """Top-level module -> the package files importing it, function-local imports included."""
    found: dict[str, set[str]] = {}
    for source, node in _nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay inside the package
            names = [node.module]
        else:
            continue
        for name in names:
            found.setdefault(name.partition(".")[0], set()).add(source)
    return found


def _declared() -> set[str]:
    """The distribution names of `[project] dependencies`, normalised to module spelling."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_") for spec in project["dependencies"]}


def test_every_third_party_import_is_declared():
    imported = _imported_modules()
    third_party = {name: files for name, files in imported.items() if name not in sys.stdlib_module_names}
    third_party.pop("slicekit", None)
    assert {"numpy", "orjson"} <= set(third_party)
    undeclared = {name: sorted(files) for name, files in third_party.items() if name.lower() not in _declared()}
    assert not undeclared, f"imported but not in pyproject.toml [project] dependencies: {undeclared}"


def test_no_module_encodes_with_the_stdlib():
    # orjson writes every JSON document: a second encoder would spell the same numbers differently
    encoders = {"dump", "dumps", "JSONEncoder"}
    found = []
    for source, node in _nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"{source}:{node.lineno} json.{a.name}" for a in node.names if a.name in encoders]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
            found += [f"{source}:{node.lineno} json.{node.attr}"] if node.attr in encoders else []
    assert not found, f"JSON written without orjson: {found}"


def test_no_module_decodes_with_the_stdlib():
    # orjson reads every JSON input, the stem system files of stems.system_from_json too
    decoders = {"load", "loads", "JSONDecoder"}
    found = []
    for source, node in _nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"{source}:{node.lineno} json.{a.name}" for a in node.names if a.name in decoders]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
            found += [f"{source}:{node.lineno} json.{node.attr}"] if node.attr in decoders else []
    assert not found, f"JSON read without orjson: {found}"


def test_orjson_reads_the_float_bits_json_reads():
    rng = np.random.default_rng(20260810)
    patterns = rng.integers(0, 2**64, 61_000, dtype=np.uint64).view(np.float64)
    subnormals = rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    doubles = np.concatenate([patterns[np.isfinite(patterns)], subnormals, -subnormals, rng.uniform(-1, 1, 20_000)])
    doubles = doubles.tolist()[: 100_000 - len(extremes)] + extremes
    assert len(doubles) == 100_000

    def bits(values):
        return np.array(values, dtype=np.float64).view(np.uint64).tolist()

    for form in (repr, "%.17g".__mod__, "%.25g".__mod__):
        text = "[" + ",".join(map(form, doubles)) + "]"
        assert bits(orjson.loads(text)) == bits(json.loads(text))
    # "%.17g" writes -0.0 as -0, an integer; the other doubles read back as written in both shortest forms
    assert bits(orjson.loads("[" + ",".join(map(repr, doubles)) + "]")) == bits(doubles)

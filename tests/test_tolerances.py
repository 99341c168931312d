"""The cut-off table: its values are pinned, and no module keeps a cut-off of its own."""

import ast
from pathlib import Path

import slicekit
from slicekit import tolerances

PINNED = {
    "TOL": 1e-12,
    "UNIT_TOL": 1e-9,
    "RANK_CUTOFF": 1e-10,
    "JUNCTION_TOL": 1e-9,
    "PARAMETER_TOL": 1e-12,
    "BRANCH_TOL": 1e-9,
    "REAL_TOL": 1e-9,
    "START_TOL": 1e-9,
    "SEGMENT_START_TOL": 1e-7,
    "GERM_TOL": 1e-9,
    "VALUE_TOL": 1e-8,
    "FD_STEP": 1e-5,
    "DISK_RIM_TOL": 1e-12,
    "AT_CENTER_TOL": 1e-15,
    "SUPPORT_TOL": 1e-12,
    "HOLOMORPHY_TOL": 1e-6,
    "GRID_HOLOMORPHY_TOL": 5e-2,
    "OVERLAP_TOL": 1e-8,
    "AXIAL_TOL": 1e-9,
    "INITIAL_TOL": 1e-9,
    "SYMMETRIZATION_ZERO_TOL": 1e-9,
    "ON_AXIS_TOL": 1e-15,
}

#: numeric guards that stay inline, by (module, enclosing function, value); each carries a comment
INLINE_GUARDS = {
    ("calculus", "taylor_eval", 1e-250),  # underflow break of the star-power recursion
    ("stems", "_interpolate", 1e-12),  # index clamp keeping the rim inside the last grid cell
    ("quat", "random_imaginary_unit", 1e-6),  # redraw of a Gaussian triple too short to normalise
}

#: modules whose small float literals are not cut-offs of the program
EXEMPT_MODULES = {"tolerances", "checks"}  # checks.py prints its per-check tolerances beside each check

PACKAGE = Path(slicekit.__file__).parent


def test_table_values_are_pinned():
    defined = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert defined == PINNED
    assert all(type(value) is float for value in defined.values())


def _module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _small_float_literals(tree: ast.Module) -> list[tuple[str, float]]:
    """(enclosing function, value) of every float literal in (0, 1e-4), negated or not."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-4:
            found.append((function, abs(node.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_no_cut_off_outside_the_table():
    stray_names, stray_literals = [], []
    for source in sorted(PACKAGE.glob("*.py")):
        module = source.stem
        if module == "tolerances":
            continue
        tree = ast.parse(source.read_text(), filename=str(source))
        for name in _module_level_names(tree):
            if name.endswith(("_TOL", "_CUTOFF")) or name == "FD_STEP":
                stray_names.append(f"{module}.{name}")
        if module in EXEMPT_MODULES:
            continue
        for function, value in _small_float_literals(tree):
            if (module, function, value) not in INLINE_GUARDS:
                stray_literals.append(f"{module}.{function}: {value!r}")
    assert stray_names == []
    assert stray_literals == []


def test_scan_sees_a_stray_cut_off():
    tree = ast.parse("EPS_TOL = 1e-9\n\ndef f(x):\n    return abs(x) < 2.5e-7 or x > -1e-12\n")
    assert _module_level_names(tree) == ["EPS_TOL"]
    assert _small_float_literals(tree) == [("<module>", 1e-9), ("f", 2.5e-7), ("f", 1e-12)]

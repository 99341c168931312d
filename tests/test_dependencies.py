"""Every third-party module the package imports is declared in pyproject.toml."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slicekit"


def _imported_modules() -> dict[str, set[str]]:
    """Top-level module -> the package files importing it, function-local imports included."""
    found: dict[str, set[str]] = {}
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay inside the package
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], set()).add(source.name)
    return found


def _declared() -> set[str]:
    """The distribution names of `[project] dependencies`, normalised to module spelling."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_") for spec in project["dependencies"]}


def test_every_third_party_import_is_declared():
    imported = _imported_modules()
    third_party = {name: files for name, files in imported.items() if name not in sys.stdlib_module_names}
    third_party.pop("slicekit", None)
    assert {"numpy", "orjson"} <= set(third_party)  # orjson is imported inside a function only
    undeclared = {name: sorted(files) for name, files in third_party.items() if name.lower() not in _declared()}
    assert not undeclared, f"imported but not in pyproject.toml [project] dependencies: {undeclared}"


def test_only_the_export_imports_orjson():
    # the commands that write no stem system run without the encoder loaded
    script = (
        "import sys, io, contextlib\n"
        "from slicekit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['starprod', '--f', '{\"coeffs\": [[0,-1,0,0],[1,0,0,0]]}', '--op', 'sym'])\n"
        "print('orjson' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"

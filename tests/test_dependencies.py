"""The package has no runtime dependency: no module of ``rotlat`` imports
mpmath, which is only the tests' oracle for the embed's leaves and cells,
and those oracles are pinned to the mpmath release they repeat."""

import ast
from pathlib import Path

import mpmath

SRC = Path(__file__).resolve().parent.parent / "src" / "rotlat"


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_of_the_package_imports_mpmath():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    importers = [p.name for p in modules if "mpmath" in set(_imported_roots(p))]
    assert importers == []


def test_the_mpmath_oracles_run_against_the_release_they_repeat():
    # ivcos and digits repeat mpmath 1.3.0's pure-Python iv.cos, mpf and
    # nstr bit for bit; pyproject's test extra pins that release
    assert mpmath.__version__ == "1.3.0"

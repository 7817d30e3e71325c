"""The scripts under scripts/ run end to end against the package in src/,
and every public name of the package has a reader outside the tests."""

import ast
import importlib.util
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import rotlat
from helpers import BATTERY, get_module
from rotlat.distance import min_norm_search
from rotlat.verify import VerificationReport

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_certify_constructions_certifies_the_battery():
    done = _run("certify_constructions")
    assert done.returncode == 0, done.stderr
    verdicts = [line for line in done.stdout.splitlines() if line.strip().startswith("verdict")]
    assert len(verdicts) == len(BATTERY) == 11
    assert all("rotated D_n CERTIFIED" in line for line in verdicts)
    lines = [line.strip() for line in done.stdout.splitlines()]
    assert [line for line in lines if line.startswith("index =")] == ["index = 2"] * 11


def test_certify_constructions_searches_every_box_within_the_budget():
    done = _run("certify_constructions", "--norm-bound", "1")
    assert done.returncode == 0, done.stderr
    norms = [line for line in done.stdout.splitlines() if line.strip().startswith("min |norm|")]
    assert len(norms) == len(BATTERY) == 11
    assert "skipped" not in done.stdout
    assert all(line.rstrip().endswith(" determinants)") for line in norms)


def test_certify_constructions_exits_1_when_a_module_fails(monkeypatch, capsys):
    script = _load("certify_constructions")
    failing = VerificationReport(checks=(("ambient Z^n", False),), verdict=False, transform=None)
    monkeypatch.setattr(script, "BATTERY", [("p32", {"p": 7})])
    monkeypatch.setattr(script, "verify_rotated_dn", lambda module: failing)
    monkeypatch.setattr(sys, "argv", ["certify_constructions"])
    assert script.main() == 1
    assert "NOT certified" in capsys.readouterr().out


def test_certify_constructions_searches_a_box_beyond_the_budget_that_holds_a_unit():
    # 5^10 - 1 vectors, past the budget, but a unit turns up in the first
    # shell: the second vector walked, one of each pair +-x
    line = _load("certify_constructions").norm_line(get_module("p37", p1=5, p2=11), 2)
    assert line.startswith("min |norm| over box 2: 1 at ")
    assert line.endswith(" (2 vectors, 2 determinants)")


def test_certify_constructions_marks_a_search_stopped_at_the_budget_partial(monkeypatch):
    # a small budget: the full box 6 of p31 r=5 is 13^8 - 1 vectors
    script = _load("certify_constructions")
    monkeypatch.setattr(script, "min_norm_search", partial(min_norm_search, budget=20_000))
    with pytest.warns(RuntimeWarning, match="stopped at the work budget 20000"):
        line = script.norm_line(get_module("p31", r=5), 6)
    assert line.startswith("min |norm| over box 6: 2 at ")
    assert line.endswith(" determinants), partial: the search stopped at its work budget")
    assert "(20000 vectors, " in line


def test_certify_constructions_battery_matches_the_tests():
    assert tuple(_load("certify_constructions").BATTERY) == BATTERY


def test_feasibility_survey_prints_one_row_per_field():
    done = _run("feasibility_survey", "--max-r", "4", "--max-p", "7")
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == len(_load("feasibility_survey").survey(4, 7)) == 9


PUBLIC = {
    "CycloElt", "cyclotomic_polynomial", "real_embedding_bounds",
    "FieldDesc", "coords_on_basis", "discriminant_2adic_valuation", "embedding_reps",
    "field_from_json", "field_to_json", "is_element", "is_totally_positive", "make_field",
    "norm_real", "subfield_degrees",
    "IdealCheck", "IdealityWitness", "TwistedModule", "build", "in_module", "is_ideal",
    "module_from_json", "module_index", "module_to_json",
    "GramMatrix", "det_exact", "det_via_formula", "embedding_csv", "gram",
    "VerificationReport", "lll_reduce", "verify_ambient_zn", "verify_rotated_dn",
    "DistanceResult", "NormSearchResult", "TABLE_ROWS", "TableRow", "dp_closed_form",
    "dp_rel_exponents", "dp_unscaled_exponents", "min_norm_search", "per_dimension",
    "table1", "table1_csv",
    "FeasibilityReport", "dn_feasibility", "splitting_of_two",
}


def test_public_names_are_pinned():
    assert sorted(rotlat.__all__) == sorted(PUBLIC)


def _names_read(path):
    """The names a file loads, imports or reads as attributes, leaving out
    each top-level definition's reads of its own name."""
    names = set()
    for statement in ast.parse(path.read_text()).body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            found.discard(statement.name)
        names |= found
    return names


def test_every_public_name_has_a_reader_outside_the_tests():
    package = ROOT / "src" / "rotlat"
    files = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    files += [*(ROOT / "perfbench").glob("*.py"), *SCRIPTS.glob("*.py")]
    read = set().union(*map(_names_read, files))
    assert [name for name in rotlat.__all__ if name not in read] == []

"""The scripts under scripts/ run end to end against the package in src/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from helpers import BATTERY, get_module
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


def test_certify_constructions_skips_a_box_beyond_the_budget():
    line = _load("certify_constructions").norm_line(get_module("p31", r=5), 6)
    assert line == f"skipped: box of {13**8 - 1} vectors exceeds the budget"


def test_certify_constructions_battery_matches_the_tests():
    assert tuple(_load("certify_constructions").BATTERY) == BATTERY


def test_feasibility_survey_prints_one_row_per_field():
    done = _run("feasibility_survey", "--max-r", "4", "--max-p", "7")
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == len(_load("feasibility_survey").survey(4, 7)) == 9

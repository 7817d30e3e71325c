import json
import sys
import warnings
from fractions import Fraction

import pytest

from rotlat.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_UNVERIFIED, main
from rotlat.constructions import module_to_json
from rotlat.cyclo import trace_form
from rotlat.linalg import gram_schmidt, pivot_inverse
from rotlat import TwistedModule
from helpers import BATTERY, get_module


def test_construct_writes_module(tmp_path, capsys):
    out = tmp_path / "module.json"
    code = main(["construct", "--construction", "p34", "--r", "3", "--p", "5",
                 "--out", str(out)])
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["c"] == 20
    assert obj["construction"] == "p34"
    assert obj["field"]["family"] == "comp-pow2-odd"


def test_construct_validation_messages(tmp_path, capsys):
    code = main(["construct", "--construction", "p32", "--p", "4",
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT_ERROR
    assert "p must be a prime >= 7" in capsys.readouterr().err

    code = main(["construct", "--construction", "p37", "--p1", "5", "--p2", "5",
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT_ERROR
    assert "p1 != p2" in capsys.readouterr().err

    code = main(["construct", "--construction", "p34", "--r", "3",
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT_ERROR
    assert "--p" in capsys.readouterr().err


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "module.json"
    assert main(["construct", "--construction", "p32", "--p", "7", "--out", str(out)]) == EXIT_OK
    code = main(["verify", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    report = json.loads(captured.out)
    assert report["verdict"] is True
    assert report["det_cross_check"]["equal"] is True
    assert report["det_cross_check"]["gram"] == report["det_cross_check"]["formula"] == "1372"


def test_verify_false_module_exits_one(tmp_path, capsys):
    m = get_module("p34", r=3, p=5)
    K = m.field
    ambient = TwistedModule(K, K.basis, m.alpha, m.c, "ambient")
    path = tmp_path / "ambient.json"
    path.write_text(json.dumps(module_to_json(ambient)))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_UNVERIFIED
    report = json.loads(captured.out)
    assert report["verdict"] is False
    assert report["checks"]["index_is_2"] is False


def test_verify_corrupted_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["verify", str(path)])
    assert code == EXIT_INPUT_ERROR
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "embed"])
def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys, command):
    # json parses a 5000-digit integer with int, past its default 4300-digit limit
    good = json.dumps(module_to_json(get_module("p32", p=7)))
    text = good.replace('"c": 7', '"c": ' + "9" * 5000)
    with pytest.raises(ValueError) as raised:
        json.loads(text)
    path = tmp_path / "module.json"
    path.write_text(text)
    assert main([command, str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: parse error in module file: {raised.value}"]


@pytest.mark.parametrize("command", ["verify", "embed"])
def test_repeated_gamma_element_is_not_full_rank(tmp_path, capsys, command):
    obj = module_to_json(get_module("p32", p=7))
    obj["gamma"][1] = obj["gamma"][0]
    path = tmp_path / "module.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: gamma is not full rank"]


def _malform(obj, shape):
    if shape == "params-list":
        obj["field"]["params"] = []
    elif shape == "gamma-null":
        obj["gamma"] = None
    elif shape == "field-string":
        obj["field"] = "abc"
    elif shape == "top-level-list":
        obj = [obj]
    elif shape == "alpha-zero-denominator":
        obj["alpha"]["coeffs"][0] = "1/0"
    elif shape == "params-float":
        obj["field"]["params"]["p"] = 7.5
    elif shape == "alpha-m-float":
        obj["alpha"]["m"] = 7.9
    elif shape == "alpha-m-string":
        obj["alpha"]["m"] = "7"
    elif shape == "gamma-coeff-float":
        # the same value, written as a JSON float instead of a string
        coeffs = obj["gamma"][0]["coeffs"]
        coeffs[0] = float(Fraction(coeffs[0]))
    elif shape == "field-m-string":
        obj["field"]["m"] = str(obj["field"]["m"])
    elif shape == "field-disc-int":
        obj["field"]["disc"] = int(obj["field"]["disc"])
    elif shape == "construction-int":
        obj["construction"] = 32
    elif shape == "field-params-extra":
        obj["field"]["params"]["q"] = 3
    elif shape == "coeff-exponent":
        # parsing this would build a 33-million-bit integer
        obj["gamma"][0]["coeffs"][0] = "1e9999999"
    elif shape == "coeff-decimal":
        obj["alpha"]["coeffs"][0] = "0.5"
    return obj


@pytest.mark.parametrize(
    "shape",
    ["params-list", "gamma-null", "field-string", "top-level-list",
     "alpha-zero-denominator", "params-float", "alpha-m-float", "alpha-m-string",
     "gamma-coeff-float", "field-m-string", "field-disc-int", "construction-int",
     "field-params-extra", "coeff-exponent", "coeff-decimal"],
)
@pytest.mark.parametrize("command", ["verify", "embed"])
def test_malformed_module_json_exits_two(tmp_path, capsys, shape, command):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(_malform(module_to_json(get_module("p32", p=7)), shape)))
    assert main([command, str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def _drop_key(obj, where):
    if where == "gamma[0].m":
        del obj["gamma"][0]["m"]
    elif where == "field.params":
        del obj["field"]["params"]
    elif where == "alpha":
        del obj["alpha"]
    return obj


@pytest.mark.parametrize("where, key", [("gamma[0].m", "m"), ("field.params", "params"),
                                        ("alpha", "alpha")])
@pytest.mark.parametrize("command", ["verify", "embed"])
def test_missing_module_key_is_named(tmp_path, capsys, where, key, command):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(_drop_key(module_to_json(get_module("p32", p=7)), where)))
    assert main([command, str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: module file is missing key {key!r}"]


@pytest.mark.parametrize("element", ["gamma", "alpha"])
def test_foreign_conductor_is_rejected_before_decoding(tmp_path, capsys, element):
    # 999999999989 is prime: decoding the element would factor it by trial division
    obj = module_to_json(get_module("p32", p=7))
    (obj["gamma"][0] if element == "gamma" else obj["alpha"])["m"] = 999999999989
    path = tmp_path / "module.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: conductor mismatch between field and elements"]


def test_field_params_are_checked_before_the_discriminant(tmp_path, capsys):
    # a p = 1000003 field has a discriminant of about 3 million digits; the
    # stored m and n of the p = 7 file already contradict the params
    obj = module_to_json(get_module("p32", p=7))
    obj["field"]["params"] = {"p": 1000003}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: stored field data does not match its parameters"]


def test_warning_is_one_line(tmp_path, capsys):
    out = tmp_path / "module.json"
    with warnings.catch_warnings():
        # tests/conftest.py silences RuntimeWarning; this test needs it shown
        warnings.simplefilter("always", RuntimeWarning)
        code = main(["construct", "--construction", "p31", "--r", "3", "--out", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "warning: p31 with r=3 extends the construction below its stated range (r >= 5); "
        "certification decides empirically"
    ]
    assert json.loads(out.read_text())["field"]["params"] == {"r": 3}


def test_verify_builds_the_module_gram_once(tmp_path, capsys, monkeypatch):
    # rotlat.gram is the function gram; its module is reached through sys.modules
    gram_mod = sys.modules["rotlat.gram"]
    module = get_module("p32", p=7)
    forms = []

    def counted(xs, twist=None):
        forms.append(tuple(xs))
        return trace_form(xs, twist)

    gram_mod.gram.cache_clear()
    monkeypatch.setattr(gram_mod, "trace_form", counted)
    # and eliminates the coordinate matrix once: the load's rank check, the
    # index check and the determinant formula all read that one solve
    import rotlat.constructions

    solves = []

    def counted_solve(rows):
        solves.append(rows)
        return pivot_inverse(rows)

    rotlat.constructions._gamma_solver.cache_clear()
    monkeypatch.setattr(rotlat.constructions, "pivot_inverse", counted_solve)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(module)))
    assert main(["verify", str(path)]) == EXIT_OK
    assert forms.count(module.gamma) == 1
    assert len(solves) == 1
    assert json.loads(capsys.readouterr().out)["det_cross_check"]["equal"] is True


@pytest.mark.parametrize("code, params", BATTERY[:4])
def test_verify_runs_the_gram_schmidt_kernel_three_times(tmp_path, capsys, monkeypatch,
                                                         code, params):
    # one pass per GramMatrix built: the ambient Gram, the reduced T G T^t
    # (the LLL certificate) and the module Gram
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return gram_schmidt(rows)

    sys.modules["rotlat.gram"].gram.cache_clear()
    # rotlat.verify no longer imports the kernel; a call from it would count too
    for name in ("rotlat.gram", "rotlat.verify"):
        monkeypatch.setattr(sys.modules[name], "gram_schmidt", counted, raising=False)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(get_module(code, **params))))
    assert main(["verify", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 3


def test_verify_missing_file_exits_two(tmp_path, capsys):
    code = main(["verify", str(tmp_path / "absent.json")])
    assert code == EXIT_INPUT_ERROR


def test_table1_stdout_and_file(tmp_path, capsys):
    assert main(["table1"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "n,p,r,r1,p1,p2,p3,K1,K2,K3,K4,note" in text
    row3 = next(line for line in text.splitlines() if line.startswith("3,"))
    assert "0.369646" in row3
    row20 = next(line for line in text.splitlines() if line.startswith("20,"))
    assert "0.121175" in row20 and "0.104475" in row20
    row_big = next(line for line in text.splitlines() if line.startswith("32768,"))
    assert "0.00276258" in row_big and "0.00276222" in row_big
    n15 = next(line for line in text.splitlines() if line.startswith("15,"))
    assert "0.1380198" in n15

    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == text


def test_feasibility_commands(capsys):
    assert main(["feasibility", "--family", "odd-prime", "--p", "11"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "ImpossibleOddDisc"

    assert main(["feasibility", "--family", "pow2", "--r", "4"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "KnownConstruction"

    assert main(["feasibility", "--family", "comp-odd-odd", "--p1", "5", "--p2", "7"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "ImpossibleOddDisc"

    assert main(["feasibility", "--family", "odd-prime", "--p", "6"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["feasibility", "--family", "pow2", "--r", "3", "--p", "5"], "--p"),
    (["feasibility", "--family", "odd-prime", "--p", "7", "--p2", "11"], "--p2"),
    (["construct", "--construction", "p32", "--p", "7", "--r", "3"], "--r"),
])
def test_stray_parameter_flag_exits_two(tmp_path, capsys, argv, flag):
    out = ["--out", str(tmp_path / "x.json")] if argv[0] == "construct" else []
    assert main(argv + out) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "x.json").exists()
    assert captured.err.splitlines() == [f"error: unexpected parameter {flag} for {argv[2]}"]


def test_feasibility_pow2_r16_needs_no_basis(capsys):
    # the verdict reads invariants only; the basis would be 16384 x 32768
    assert main(["feasibility", "--family", "pow2", "--r", "16"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["e"], report["f"], report["g"], report["z"]) == (16384, 1, 1, 245759)


def test_embed_precision_env_override(tmp_path, capsys, monkeypatch):
    out = tmp_path / "module.json"
    assert main(["construct", "--construction", "p32", "--p", "7", "--out", str(out)]) == EXIT_OK
    monkeypatch.setenv("ROTLAT_PRECISION", "64")
    assert main(["embed", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("# precision_bits=64")
    monkeypatch.delenv("ROTLAT_PRECISION")
    assert main(["embed", str(out), "--precision", "96"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("# precision_bits=96")
    # the flag and the variable share one check: an integer >= 8, else exit
    # 2; a precision whose working precision is above the cap is exit 2 too
    cap = "precision 16369 is above the maximum of 16368 bits"
    for argv, env, message in (
        (["--precision", "0"], None, "--precision must be an integer >= 8, got '0'"),
        (["--precision", "-5"], None, "--precision must be an integer >= 8, got '-5'"),
        (["--precision", "16369"], None, cap),
        ([], "4", "ROTLAT_PRECISION must be an integer >= 8, got '4'"),
        ([], "abc", "ROTLAT_PRECISION must be an integer >= 8, got 'abc'"),
        ([], "16369", cap),
    ):
        if env is not None:
            monkeypatch.setenv("ROTLAT_PRECISION", env)
        assert main(["embed", str(out), *argv]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["construct", "--construction", "p37", "--p1", "5", "--p2", "7",
                     "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    ta, tb = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (ta, tb):
        assert main(["table1", "--out", str(path)]) == EXIT_OK
    assert ta.read_bytes() == tb.read_bytes()


@pytest.mark.parametrize("command, layer, name, message", [
    ("verify", "rotlat.verify", "lll_reduce", "LLL transform failed its own certificate check"),
    ("embed", "rotlat.gram", "embedding_enclosure_rows", "requested precision unreachable"),
])
def test_internal_runtime_error_exits_two(tmp_path, capsys, monkeypatch, command, layer, name,
                                          message):
    # a failed self-check is not a "not verified" verdict: one line, exit 2
    import importlib

    def fail(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr(importlib.import_module(layer), name, fail)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(get_module("p32", p=7))))
    assert main([command, str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_python_dash_m_runs_from_a_checkout():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "rotlat", "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: rotlat ")

#!/usr/bin/env python3
"""Self-test of the benchmark's own parts (about half a minute).

    python3 perfbench/selftest.py

Checks that the gate flags tampered outputs, that the metrics the driver
prints match BENCHMARK.json, that span self-times are never negative, and
that traced runs give the same outputs as untraced ones.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import cases
import hostspeed
import run
from gate import Gate, load_expected
from hostspeed import HostSpeed
from tracer import NAME, PARENT, self_times, span_metrics

sys.path.insert(0, str(run.SRC))

MODULE_CASE = ("p32", {"p": 41})  # a pinned certify case that runs in about 2 s


def certify_outputs(bench_run: run.Run, traced: bool) -> dict:
    """construct, verify and embed of MODULE_CASE through the driver's CLI runner."""
    code, params = MODULE_CASE
    out = {}
    for name, argv in (
        ("construct", ["construct", "--construction", code, *cases.cli_params(params), "--out", "m.json"]),
        ("verify", ["verify", "m.json"]),
        ("embed", ["embed", "m.json", "--out", "e.csv"]),
    ):
        done = bench_run.cli(name, argv, traced)
        if done.returncode != 0:
            raise RuntimeError(f"{name} exited {done.returncode}: {done.stderr}")
        out[name] = done.stdout if name == "verify" else (
            bench_run.work / ("e.csv" if name == "embed" else "m.json")).read_bytes()
    return out


def feasibility_outputs(trace: bool) -> dict:
    cmd = [sys.executable, str(run.BENCH / "worker.py"), "feasibility", "--seed", "7"] + ["--trace"] * trace
    proc = subprocess.run(cmd, env=run.child_env(), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=run.BENCH)
        cls.work = Path(cls.tmp.name)
        (cls.work / "plain").mkdir()
        (cls.work / "traced").mkdir()
        cls.traced_run = run.Run(0, 0, True, Gate(load_expected()), cls.work / "traced")
        cls.plain = certify_outputs(run.Run(0, 0, False, Gate(None), cls.work / "plain"), False)
        cls.traced = certify_outputs(cls.traced_run, True)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def gate(self) -> Gate:
        return Gate(load_expected())

    def test_gate_accepts_pinned_outputs(self):
        gate = self.gate()
        key = cases.case_key(*MODULE_CASE)
        for name, output in self.plain.items():
            gate.cli(name, key, 0, None if name == "verify" else output, output if name == "verify" else "")
        self.assertEqual(gate.failures, [])
        self.assertEqual(gate.attempted, 3)

    def test_gate_flags_tampered_outputs(self):
        key = cases.case_key(*MODULE_CASE)
        report = json.loads(self.plain["verify"])
        tampered_reports = []
        for edit in (
            lambda r: r["checks"].update(even=False),
            lambda r: r.update(verdict=False),
            lambda r: r["det_cross_check"].update(equal=False),
            lambda r: r["det_cross_check"].update(gram="1"),
            lambda r: r.pop("checks"),
        ):
            copy = json.loads(json.dumps(report))
            edit(copy)
            tampered_reports.append(json.dumps(copy))
        for text in tampered_reports:
            gate = self.gate()
            gate.cli("verify", key, 0, None, text)
            self.assertEqual(gate.failed, 1, text)
        for name in ("construct", "embed"):
            data = bytearray(self.plain[name])
            data[len(data) // 2] ^= 1
            gate = self.gate()
            gate.cli(name, key, 0, bytes(data), "")
            self.assertEqual(gate.failed, 1, name)
        gate = self.gate()
        gate.cli("construct", key, 1, self.plain["construct"], "")
        gate.cli("embed", key, 0, None, "")
        self.assertEqual(gate.failed, 2)

    def test_gate_ignores_the_transform_and_new_keys(self):
        report = json.loads(self.plain["verify"])
        report["transform"] = [[1]]
        report["evidence"] = {"index": 2}
        gate = self.gate()
        gate.cli("verify", cases.case_key(*MODULE_CASE), 0, None, json.dumps(report))
        self.assertEqual(gate.failures, [])

    def test_gate_flags_wrong_decisions(self):
        gate = self.gate()
        gate.ideal("p31 r=7", True, [])
        gate.membership("p31 r=7", "gamma", True, True)
        self.assertEqual(gate.failed, 0)
        gate.ideal("p31 r=7", False, [])
        gate.ideal("p32 p=7", False, ["witness product lies in the module"])
        gate.membership("p31 r=7", "outside", False, True)
        pinned = gate.expected["oracle"]["p31 r=5 bound=1"]
        gate.oracle("p31 r=5", 1, pinned, False)
        gate.oracle("p31 r=5", 1, pinned.replace("True", "False"), True)
        gate.feasibility("comp-pow2-odd r=4 p=5", None)
        gate.table1("n,p\n")
        self.assertEqual(gate.failed, 7)

    def test_gate_on_feasibility_reports(self):
        import rotlat

        key = "comp-pow2-odd r=4 p=5"
        text = rotlat.feasibility.report_json(rotlat.dn_feasibility(rotlat.make_field("comp-pow2-odd", r=4, p=5)))
        gate = self.gate()
        gate.feasibility(key, text)
        gate.table1(rotlat.table1_csv())
        self.assertEqual(gate.failures, [])
        gate.feasibility(key, text.replace("NecessaryConditionHolds", "ImpossibleResidueCondition"))
        gate.feasibility(key, text.replace('"f": 2', '"f": 1'))
        self.assertEqual(gate.failed, 2)

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            fake = run.Run(0, 0, trace, self.gate(), self.work)
            fake.setup = [0.2]
            fake.samples = {"a": [{"pass_s": 3.0, "verdict_s": 2.0, "followup_s": 1.0}]}
            fake.traced = {"a": [{"pass_s": 3.1, "gram.gram_s": 0.5}]}
            printed = run.metrics_of(fake)
            self.assertEqual({k: v["unit"] for k, v in printed.items()}, wanted)

    def test_metrics_sum_the_unit_medians(self):
        fake = run.Run(0, 0, False, self.gate(), self.work)
        fake.setup = [0.3, 0.1, 0.2]
        fake.samples = {"a": [{"pass_s": 1.0}, {"pass_s": 3.0}, {"pass_s": 2.0}], "b": [{"pass_s": 0.5}]}
        printed = run.metrics_of(fake)
        self.assertAlmostEqual(printed["pass_s"]["value"], 2.5)
        self.assertAlmostEqual(printed["setup_s"]["value"], 0.2)

    def test_every_unit_runs_at_least_once(self):
        fake = run.Run(0, 0, False, self.gate(), self.work)
        seen = []
        fake.measure(["a", "b", "c"], lambda unit, traced: seen.append(unit) or {"pass_s": 1.0})
        self.assertEqual(seen, ["a", "b", "c"])

    def test_host_speed_rescales_by_the_probes_of_the_interval(self):
        speed = HostSpeed()
        ref = hostspeed.REF_PROBE_S
        speed.samples = [(0.0, ref), (1.0, 2 * ref), (1.1, 2 * ref), (5.0, ref / 2)]
        self.assertAlmostEqual(speed.scale(1.0, 1.1), 0.5)  # the CPU ran at half speed
        self.assertAlmostEqual(speed.scale(3.0, 3.0), 0.5)  # no probe there: the nearest
        self.assertAlmostEqual(speed.scale(4.95, 5.0), 2.0)
        speed.probe()
        self.assertGreater(speed.samples[-1][1], 0)

    def test_span_self_times_are_not_negative(self):
        spans = self.traced_run.tracer.spans
        roots = [s for s in spans if s[PARENT] is None]
        self.assertEqual([s[NAME] for s in roots], ["cli.construct", "cli.verify", "cli.embed"])
        self.assertTrue(all(v >= 0 for v in self_times(spans).values()))
        names = {s[NAME] for s in spans}
        self.assertLessEqual({"verify.lll_reduce", "gram.gram", "constructions.module_from_json"}, names)
        metrics = span_metrics(spans, self.traced_run.tracer.counters)
        self.assertTrue(all(v >= 0 for k, v in metrics.items() if k.endswith("self_s")))

    def test_tracing_does_not_change_certify_outputs(self):
        self.assertEqual(self.traced, self.plain)

    def test_tracing_does_not_change_feasibility_outputs(self):
        plain, traced = feasibility_outputs(False), feasibility_outputs(True)
        self.assertFalse(plain["spans"])
        self.assertTrue(traced["spans"])
        self.assertEqual(plain["reports"], traced["reports"])
        self.assertEqual(plain["table1"], traced["table1"])


if __name__ == "__main__":
    if not (run.SRC / "rotlat" / "cli.py").is_file():
        print(f"error: no rotlat sources under {run.SRC}", file=sys.stderr)
        sys.exit(2)
    unittest.main()

#!/usr/bin/env python3
"""Benchmark of the rotlat pipeline: construct -> certify -> tabulate/decide.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One driver process, pinned to one CPU,
starts one worker at a time (the CLI itself for the certify workload,
perfbench/worker.py for the others) against the sources in src/.  The units
of a workload repeat in seeded order for about --seconds, at least once
each; every output is checked against the pins in expected.json after its
unit.  Times are CPU seconds rescaled to a fixed host speed (hostspeed.py).
The last line of stdout is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a run whose units are
traced from outside (see README.md).  Results and spans also go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import cases
from gate import Gate, load_expected
from hostspeed import REF_PROBE_S, HostSpeed, pin_to_one_cpu
from tracer import ID, OP, PARENT, Tracer, span_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_s": "s",
    "followup_s": "s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.construct_s": "s",
    "cli.verify_s": "s",
    "cli.embed_s": "s",
    "cli.table1_s": "s",
    "cli.feasibility_s": "s",
    "fields.make_field_s": "s",
    "constructions.build_s": "s",
    "constructions.module_from_json_s": "s",
    "constructions.is_ideal_s": "s",
    "constructions.in_module_s": "s",
    "constructions.ideal_products": "count",
    "gram.gram_s": "s",
    "gram.det_exact_s": "s",
    "gram.det_via_formula_s": "s",
    "gram.embedding_csv_s": "s",
    "verify.verify_rotated_dn_s": "s",
    "verify.verify_ambient_zn_s": "s",
    "verify.ambient_gram_s": "s",
    "verify.lll_reduce_s": "s",
    "distance.dp_closed_form_s": "s",
    "distance.min_norm_search_s": "s",
    "distance.min_norm_evaluated": "count",
    "distance.table1_csv_s": "s",
    "feasibility.dn_feasibility_s": "s",
    "cli.self_s": "s",
    "fields.self_s": "s",
    "constructions.self_s": "s",
    "gram.self_s": "s",
    "verify.self_s": "s",
    "distance.self_s": "s",
    "feasibility.self_s": "s",
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 3  # decide-warm: worker set-ups per run, of which setup_s is the median
IMPORT_PROBES = 7  # cold workloads: fresh-interpreter imports, of which setup_s is the median
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROTLAT_PRECISION", None)  # embed must use its default precision
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Done:
    """A finished child process: exit code, output, and its CPU seconds
    rescaled to the reference host speed (``seconds``) and raw (``cpu_s``)."""

    returncode: int
    stdout: str
    stderr: str
    seconds: float
    cpu_s: float


class Run:
    """Samples, outputs and spans of one benchmark run.

    A workload is a list of units (a certify case, a decide-warm module, a
    feasibility-survey step).  A sample is one run of one unit: a dict of
    rescaled seconds per phase.  A metric is the sum over the units of the
    unit's median, i.e. the time of one pass over all units."""

    def __init__(self, seed: int, seconds: float, trace: bool, gate: Gate, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.gate = gate
        self.work = work
        self.env = child_env()
        self.speed = HostSpeed()
        self.setup: list[float] = []
        self.setup_cpu: list[float] = []
        self.samples: dict[str, list[dict]] = {}  # untraced, per unit
        self.traced: dict[str, list[dict]] = {}
        self.spans: list[list[list]] = []  # per traced sample
        self.warnings = 0
        self.tracer = Tracer()
        self.stop = False

    def measure(self, units: list[str], one_unit) -> None:
        """Cycle through ``units`` in their seeded order: every unit once,
        then another unit starts while the time used plus that unit's last
        wall time is within --seconds.  A traced run makes one untraced
        cycle first, for the tracing overhead.  A unit that sets ``stop``
        (its worker died) ends the run."""
        if self.trace:
            for unit in units:
                self.samples.setdefault(unit, []).append(one_unit(unit, False))
        store = self.traced if self.trace else self.samples
        start = time.perf_counter()
        last: dict[str, float] = {}
        for unit in itertools.cycle(units):
            if self.stop or (unit in last and time.perf_counter() - start + last[unit] > self.seconds):
                break
            t0 = time.perf_counter()
            sample = one_unit(unit, self.trace)
            t1 = time.perf_counter()
            last[unit] = t1 - t0
            if self.trace:
                spans, counters = self.tracer.take()
                scale = self.speed.scale(t0, t1)
                sample.update({k: v * scale if k.endswith("_s") else v
                               for k, v in span_metrics(spans, counters).items()})
                sample["trace.spans"] = len(spans)
                self.spans.append(spans)
            store.setdefault(unit, []).append(sample)

    def spawn(self, argv: list[str]) -> Done:
        """One child process in the work directory, its output to files, its
        CPU time rescaled by the probes taken while it ran."""
        out, err = self.work / "child.out", self.work / "child.err"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=stdout, stderr=stderr)
            cpu = self.speed.wait_exit(proc, CHILD_TIMEOUT_S)
            t1 = time.perf_counter()
        done = Done(proc.returncode, out.read_text(), err.read_text(), cpu * self.speed.scale(t0, t1), cpu)
        out.unlink()
        err.unlink()
        return done

    def probe_imports(self) -> None:
        """Set-up of the cold workloads: a fresh interpreter importing the program."""
        for _ in range(IMPORT_PROBES):
            done = self.spawn([sys.executable, "-c", "import rotlat.cli"])
            if done.returncode != 0:
                raise RuntimeError(f"import rotlat.cli failed: {done.stderr[-400:]}")
            self.setup.append(done.seconds)
            self.setup_cpu.append(done.cpu_s)

    def cli(self, name: str, argv: list[str], traced: bool) -> Done:
        """One ``rotlat <argv>`` command in a fresh interpreter, in the work
        directory; traced, its spans hang under a ``cli.<name>`` span."""
        self.tracer.op += 1
        spans_path = self.work / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv]
            span = self.tracer.begin(f"cli.{name}")
        else:
            cmd = [sys.executable, "-m", "rotlat.cli", *argv]
        done = self.spawn(cmd)
        if traced:
            self.tracer.end(span)
            if spans_path.exists():
                child = json.loads(spans_path.read_text())
                self.merge_child_spans(span, child["spans"], child["counters"])
                spans_path.unlink()
        return done

    def phase_seconds(self, phase: list[float] | None) -> float:
        """A worker's ``[start, end, cpu]`` phase in rescaled seconds."""
        if phase is None:
            return 0.0
        start, end, cpu = phase
        return cpu * self.speed.scale(start, end)

    def merge_child_spans(self, parent: list | None, spans: list[list], counters: dict[str, int]) -> None:
        """Add the spans a child process recorded, its roots under ``parent``."""
        offset = len(self.tracer.spans)
        for span in spans:
            span[ID] += offset
            if span[PARENT] is not None:
                span[PARENT] += offset
            elif parent is not None:
                span[PARENT] = parent[ID]
            if parent is not None:
                span[OP] = parent[OP]
            self.tracer.spans.append(span)
        for key, value in counters.items():
            self.tracer.counters[key] = self.tracer.counters.get(key, 0) + value


# -- certify ------------------------------------------------------------------


def run_certify(run: Run) -> None:
    run.probe_imports()
    order = [cases.case_key(code, params) for code, params in cases.CERTIFY]
    random.Random(run.seed).shuffle(order)
    params_of = {cases.case_key(code, params): (code, params) for code, params in cases.CERTIFY}

    def one_unit(key: str, traced: bool) -> dict:
        code, params = params_of[key]
        stem = key.replace(" ", "_").replace("=", "")
        module, csv = f"{stem}.json", f"{stem}.csv"
        done, seconds = [], {}
        for name, argv in (
            ("construct", ["construct", "--construction", code, *cases.cli_params(params), "--out", module]),
            ("verify", ["verify", module]),
            ("embed", ["embed", module, "--out", csv]),
        ):
            result = run.cli(name, argv, traced)
            seconds[name] = result.seconds
            output = None if name == "verify" else run.work / (csv if name == "embed" else module)
            done.append((name, result, output.read_bytes() if output is not None and output.exists() else None))
        for name, result, data in done:
            run.gate.cli(name, key, result.returncode, data, result.stdout, result.stderr)
        for path in run.work.iterdir():
            path.unlink()
        verdict = seconds["construct"] + seconds["verify"]
        return {"pass_s": verdict + seconds["embed"], "verdict_s": verdict, "followup_s": seconds["embed"],
                "commands": seconds, "cpu_s": sum(r.cpu_s for _, r, _ in done)}

    run.measure(order, one_unit)


# -- decide-warm --------------------------------------------------------------


class DecideWorker:
    def __init__(self, run: Run, index: int):
        self.speed = run.speed
        self.stderr_path = run.work / f"decide-{index}.err"
        self.stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "decide", "--seed", str(run.seed)],
            cwd=run.work, env=run.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
        )
        self.buffer = bytearray()

    def request(self, command: str | None) -> dict:
        """Send ``command`` (None: just read) and read the JSON reply,
        probing the host speed while the worker computes."""
        if command is not None:
            self.proc.stdin.write(command.encode() + b"\n")
            self.proc.stdin.flush()
        line = self.speed.read_line(self.proc.stdout.fileno(), self.buffer)
        if not line.endswith(b"\n"):
            code = self.proc.wait()
            raise RuntimeError(f"decide worker ended early, exit code {code}: {self.stderr_path.read_text()[-400:]}")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b"quit\n")
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.stderr.close()


def run_decide(run: Run) -> None:
    worker = None
    try:
        for index in range(SETUP_REPEATS):
            if worker is not None:
                worker.close()
            t0 = time.perf_counter()
            worker = DecideWorker(run, index)
            ready = worker.request(None)
            run.setup.append(ready["cpu_s"] * run.speed.scale(t0, time.perf_counter()))
            run.setup_cpu.append(ready["cpu_s"])
            run.warnings = ready["warnings"]
        tracing = False

        def one_unit(key: str, traced: bool) -> dict:
            nonlocal tracing
            if traced and not tracing:
                worker.request("trace")
                tracing = True
            try:
                result = worker.request(f"module {key}")
            except (RuntimeError, OSError) as exc:
                run.gate.op(f"decide-warm {key}", [str(exc)])
                run.stop = True
                return {}
            key_, is_ideal, witness_problems = result["ideal"]
            run.gate.ideal(key_, is_ideal, witness_problems)
            for key_, kind, expected, got in result["membership"]:
                run.gate.membership(key_, kind, expected, got)
            if result["oracle"] is not None:
                run.gate.oracle(*result["oracle"])
            run.merge_child_spans(None, result["spans"], result["counters"])
            ideal = run.phase_seconds(result["ideal_phase"])
            oracle = run.phase_seconds(result["oracle_phase"])
            cpu = sum(phase[2] for phase in (result["ideal_phase"], result["oracle_phase"]) if phase)
            return {"pass_s": ideal + oracle, "verdict_s": ideal, "followup_s": oracle, "cpu_s": cpu}

        run.measure(ready["order"], one_unit)
    finally:
        if worker is not None:
            worker.close()


# -- feasibility-survey -------------------------------------------------------


def run_feasibility(run: Run) -> None:
    run.probe_imports()
    family, params = cases.FEASIBILITY_CLI
    feasibility_key = cases.case_key(family, params)
    cli_commands = {
        "table1": ["table1"],
        "feasibility": ["feasibility", "--family", family, *cases.cli_params(params)],
    }
    units = ["survey", *cli_commands]
    random.Random(run.seed).shuffle(units)

    def survey(traced: bool) -> dict:
        done = run.spawn([sys.executable, str(BENCH / "worker.py"), "feasibility", "--seed", str(run.seed)]
                         + ["--trace"] * traced)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
        if not result:
            run.gate.op("feasibility-survey worker", [f"exit code {done.returncode}: {done.stderr[-400:]}"])
        reports = result.get("reports", {})
        for family, params in cases.SURVEY_FIELDS:
            key = cases.case_key(family, params)
            run.gate.feasibility(key, reports.get(key))
        run.gate.table1(result.get("table1"))
        run.merge_child_spans(None, result.get("spans", []), result.get("counters", {}))
        phases = result.get("phases", {}).values()
        verdicts = sum(run.phase_seconds(phase) for phase in phases)
        return {"pass_s": verdicts, "verdict_s": verdicts, "followup_s": 0.0,
                "cpu_s": sum(phase[2] for phase in phases)}

    def one_unit(unit: str, traced: bool) -> dict:
        if unit == "survey":
            return survey(traced)
        done = run.cli(unit, cli_commands[unit], traced)
        run.gate.cli(unit, unit if unit == "table1" else feasibility_key, done.returncode, None,
                     done.stdout, done.stderr)
        return {"pass_s": done.seconds, "verdict_s": 0.0, "followup_s": done.seconds, "cpu_s": done.cpu_s}

    run.measure(units, one_unit)


WORKLOADS = {
    "certify": run_certify,
    "decide-warm": run_decide,
    "feasibility-survey": run_feasibility,
}


# -- reporting ----------------------------------------------------------------


def pass_total(store: dict[str, list[dict]], key: str) -> float:
    """One pass over all units: the sum of each unit's median."""
    return sum(statistics.median(s.get(key, 0) for s in samples) for samples in store.values())


def metrics_of(run: Run) -> dict:
    if run.trace:
        values = {name: pass_total(run.traced, name) for name in PER_LAYER}
        values["trace.pass_s"] = pass_total(run.traced, "pass_s")
        values["trace.overhead_s"] = values["trace.pass_s"] - pass_total(run.samples, "pass_s")
        units = PER_LAYER
    else:
        attempted = max(run.gate.attempted, 1)
        values = {
            "setup_s": statistics.median(run.setup),
            "pass_s": pass_total(run.samples, "pass_s"),
            "verdict_s": pass_total(run.samples, "verdict_s"),
            "followup_s": pass_total(run.samples, "followup_s"),
            "ok_ratio": (attempted - run.gate.failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def probe_summary(speed: HostSpeed) -> dict:
    """How fast the pinned CPU ran during the run, as probe times."""
    times = sorted(p for _, p in speed.samples)
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"ref_probe_s": REF_PROBE_S, "probes": len(times), "min": times[0] if times else None,
            "quartiles": quartiles, "max": times[-1] if times else None}


def child_cpu_seconds() -> float:
    """Raw CPU time of all finished worker processes, next to the rescaled
    times of the run."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def environment() -> dict:
    try:
        mpmath_version = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath_version = None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "git_rev": git_revision(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, gate: Gate) -> tuple[Run, dict]:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    cpu = pin_to_one_cpu()
    run = Run(seed, seconds, trace, gate, work)
    env_start = environment()
    try:
        WORKLOADS[workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = metrics_of(run)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": {**env_start, "loadavg_end": os.getloadavg(), "pinned_cpu": cpu},
        "samples": {"setup": run.setup, "setup_cpu_s": run.setup_cpu, "units": run.samples,
                    "traced_units": run.traced},
        "sample_counts": {"setup": len(run.setup), "units": sum(map(len, run.samples.values())),
                          "traced_units": sum(map(len, run.traced.values()))},
        "host_speed": probe_summary(run.speed),
        "warnings": run.warnings,
        "child_cpu_s": child_cpu_seconds(),
        "attempted": gate.attempted, "failed": gate.failed, "failures": gate.failures,
        "metrics": metrics,
    }
    return run, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "rotlat" / "cli.py").is_file():
        print(f"error: no rotlat sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    run, record = execute(args.workload, args.seed, args.seconds, bool(args.trace), Gate(load_expected()))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if run.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps({"traced_samples": run.spans}) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Worker processes of the in-process workloads; the driver starts one at a time.

    python perfbench/worker.py feasibility --seed N [--trace]

runs one feasibility-survey pass in this fresh interpreter and prints one
JSON line with its timings and outputs.

    python perfbench/worker.py decide --seed N

builds the decide-warm modules and queries, warms the caches, prints a
``ready`` line, then answers the commands ``module KEY`` (the closure test,
membership queries and oracle confirmation of one module), ``trace`` (turn
spans on for the following commands) and ``quit`` read one per line from
stdin, with one JSON line each.

A timed phase is reported as ``[start, end, cpu]``: ``time.perf_counter``
at its start and end, which the driver shares (CLOCK_MONOTONIC), and the
process CPU seconds it took, which the driver rescales to a fixed host
speed (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import warnings

import cases
from tracer import Tracer, install


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _timed(fn, *args):
    """``fn(*args)`` and its phase ``[start, end, cpu]``."""
    start, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    cpu = time.process_time() - cpu
    return result, [start, time.perf_counter(), cpu]


def _verdict(rotlat, family, params):
    return rotlat.dn_feasibility(rotlat.make_field(family, **params))


def feasibility_pass(seed: int, trace: bool) -> dict:
    import rotlat

    tracer = Tracer()
    if trace:
        install(tracer)
    fields = list(cases.SURVEY_FIELDS)
    random.Random(seed).shuffle(fields)
    reports, phases = {}, {}
    for family, params in fields:
        tracer.op += 1
        key = cases.case_key(family, params)
        report, phases[key] = _timed(_verdict, rotlat, family, params)
        reports[key] = rotlat.feasibility.report_json(report)
    tracer.op += 1
    table = rotlat.table1_csv()
    spans, counters = tracer.take()
    return {
        "phases": phases,
        "reports": reports,
        "table1": table,
        "spans": spans,
        "counters": counters,
    }


class DecideWarm:
    """The decide-warm modules, their seeded queries, and the work on each."""

    def __init__(self, seed: int):
        import rotlat

        self.rotlat = rotlat
        rng = random.Random(seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.modules = {
                cases.case_key(code, params): rotlat.build(code, **params)
                for code, params in cases.DECIDE_MODULES
            }
        self.warnings = len(caught)
        self.order = list(self.modules)
        rng.shuffle(self.order)
        self.queries = {key: self._queries(rng, key) for key in self.order}
        for queries in self.queries.values():
            rng.shuffle(queries)
        self.oracle = {cases.case_key(code, params): bound for code, params, bound in cases.ORACLE_BOUNDS}
        # Warm the caches the queries read: builds fill the basis solvers and
        # coordinate matrices, one membership query per module the gamma inverses.
        for key in self.order:
            rotlat.in_module(self.modules[key], self.modules[key].gamma[0])
        self.tracer = Tracer()

    def _queries(self, rng: random.Random, key: str):
        """Membership queries whose answers are known by construction."""
        module = self.modules[key]
        field = module.field

        def combo(elements, scale=1):
            acc = self.rotlat.CycloElt.zero(field.m)
            for element in elements:
                acc = acc + scale * rng.randint(-cases.QUERY_COEFF, cases.QUERY_COEFF) * element
            return acc

        members = [("gamma", combo(module.gamma)) for _ in range(cases.GAMMA_QUERIES)]
        members += [("2*basis", combo(field.basis, 2)) for _ in range(cases.DOUBLE_BASIS_QUERIES)]
        if key in cases.OUTSIDE_PRODUCTS:
            i, j = cases.OUTSIDE_PRODUCTS[key]
            outside = field.basis[i] * module.gamma[j]
        else:
            outside = self.rotlat.CycloElt.one(field.m)
        out = [(kind, True, x) for kind, x in members]
        out += [("outside", False, outside + combo(module.gamma)) for _ in range(cases.OUTSIDE_QUERIES)]
        return out

    def run_module(self, key: str) -> dict:
        """The closure test and the membership queries of one module (the
        ``ideal`` phase), then its oracle confirmation if it has one (the
        ``oracle`` phase)."""
        rotlat, tracer, module = self.rotlat, self.tracer, self.modules[key]

        def decide():
            tracer.op += 1
            check = rotlat.is_ideal(module)
            answers = []
            for kind, expected, x in self.queries[key]:
                tracer.op += 1
                answers.append([key, kind, expected, rotlat.in_module(module, x)])
            return check, answers

        (check, answers), ideal_phase = _timed(decide)
        bound = self.oracle.get(key)
        oracle, oracle_phase = None, None
        if bound is not None:
            tracer.op += 1
            d, oracle_phase = _timed(lambda: rotlat.dp_closed_form(module, confirm_bound=bound))
            oracle = [key, bound, _distance_text(d), d.oracle_confirmed]
        spans, counters = tracer.take()
        ideal = [key, check.is_ideal, self._witness_problems(key, check)]
        tracer.take()  # the witness checks are not part of the timed phases
        return {
            "ideal_phase": ideal_phase,
            "oracle_phase": oracle_phase,
            "ideal": ideal,
            "membership": answers,
            "oracle": oracle,
            "spans": spans,
            "counters": counters,
        }

    def _witness_problems(self, key: str, check) -> list[str]:
        """Checked after the timed phases: a witness is an algebraic integer times a
        module element whose product lies outside the module."""
        if check.witness is None:
            return [] if check.is_ideal else ["no witness for a non-ideal"]
        rotlat, module, witness = self.rotlat, self.modules[key], check.witness
        problems = []
        if any(q.denominator != 1 for q in rotlat.coords_on_basis(module.field, witness.basis_factor)):
            problems.append("witness factor is not an algebraic integer")
        if not rotlat.in_module(module, witness.module_factor):
            problems.append("witness factor is not in the module")
        if witness.product != witness.basis_factor * witness.module_factor:
            problems.append("witness product is not the product of its factors")
        if rotlat.in_module(module, witness.product):
            problems.append("witness product lies in the module")
        return problems


def _distance_text(d) -> str:
    return repr((d.dp_unscaled, d.dp_rel, d.dp_rel_per_dim, d.min_norm_assumed, d.oracle_confirmed))


def serve_decide(seed: int) -> None:
    state = DecideWarm(seed)
    _emit({"event": "ready", "warnings": state.warnings, "order": state.order, "cpu_s": time.process_time()})
    for line in sys.stdin:
        command, _, arg = line.strip().partition(" ")
        if command == "module":
            _emit(state.run_module(arg))
        elif command == "trace":
            install(state.tracer)
            _emit({"event": "tracing"})
        elif command == "quit":
            break
        else:
            raise ValueError(f"unknown command {command!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["feasibility", "decide"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "feasibility":
        _emit(feasibility_pass(args.seed, args.trace))
    else:
        serve_decide(args.seed)


if __name__ == "__main__":
    main()

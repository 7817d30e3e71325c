#!/usr/bin/env python3
"""Record expected.json: the output digests the correctness gate compares to.

    python3 perfbench/pin.py

runs one untraced pass of every workload with a recording gate.  The pins
were recorded once from the seed commit of the benchmark.  Re-recording
them on a later commit would make the gate accept whatever that commit
outputs, so only do it when an output is meant to change, and say why.
"""

import json
import sys

from gate import EXPECTED_PATH, Gate
from run import SRC, WORKLOADS, execute


def main() -> int:
    if not (SRC / "rotlat" / "cli.py").is_file():
        print(f"error: no rotlat sources under {SRC}", file=sys.stderr)
        return 2
    pins: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        gate = Gate(None)
        execute(workload, seed=0, seconds=0, trace=False, gate=gate)
        if gate.failed:
            print(f"{workload}: {gate.failures}", file=sys.stderr)
            return 1
        for kind, values in gate.recorded.items():
            pins.setdefault(kind, {}).update(values)
    EXPECTED_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

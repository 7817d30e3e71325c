"""Run one rotlat CLI command in this fresh interpreter with spans around
rotlat's public functions, then write the spans as JSON.

    python perfbench/traced_cli.py SPANS.json construct --construction p31 --r 7 --out m.json

The command goes through ``rotlat.cli.main`` itself, so it makes the calls
``cli._cmd_*`` makes, in the same order, with the same output and exit code.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import rotlat.cli

    try:
        return rotlat.cli.main(argv)
    finally:
        spans, counters = tracer.take()
        with open(spans_path, "w") as handle:
            json.dump({"spans": spans, "counters": counters}, handle)


if __name__ == "__main__":
    sys.exit(main())

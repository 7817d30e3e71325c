"""Command-line front end: construct modules, certify them, tabulate
minimum product distances, and run ideal-feasibility checks.

Exit codes: 0 success (or verified), 1 verified-false, 2 input error or
any other failure (a failed internal self-check prints one error line
rather than a traceback, so 1 always means "not verified").
Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .constructions import CONSTRUCTIONS, build, module_from_json, module_to_json
from .distance import table1_csv
from .feasibility import dn_feasibility, report_json as feasibility_json
from .fields import FAMILIES, make_field
from .gram import det_exact, det_via_formula, embedding_csv, gram
from .verify import verify_rotated_dn

EXIT_OK = 0
EXIT_UNVERIFIED = 1
EXIT_INPUT_ERROR = 2

DEFAULT_PRECISION = 128


# every parameter name, in table order: r, p, p1, p2
_PARAMS = tuple(dict.fromkeys(name for family in FAMILIES.values() for name, _ in family))


def _precision(flag: int | None) -> int:
    """Output precision in bits from --precision, else ROTLAT_PRECISION,
    else the default; either source must give an integer >= 8."""
    if flag is not None:
        source, raw = "--precision", str(flag)
    else:
        source, raw = "ROTLAT_PRECISION", os.environ.get("ROTLAT_PRECISION", str(DEFAULT_PRECISION))
    if not raw.strip().isdecimal() or int(raw) < 8:
        raise ValueError(f"{source} must be an integer >= 8, got {raw!r}")
    return int(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotlat",
        description="construct and certify rotated D_n lattices from real cyclotomic subfields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a twisted module and write its JSON")
    construct.add_argument("--construction", required=True, choices=list(CONSTRUCTIONS))
    for name in _PARAMS:
        construct.add_argument(f"--{name}", type=int)
    construct.add_argument("--out", default="module.json")

    verify = sub.add_parser("verify", help="certify that a module's lattice is a rotated D_n")
    verify.add_argument("module", help="path to a module JSON file")
    verify.add_argument("--out", help="also write the report JSON to this path")

    sub.add_parser("table1", help="emit the distance comparison table as CSV").add_argument(
        "--out", help="write the CSV to this path instead of stdout"
    )

    feas = sub.add_parser("feasibility", help="ideal-based feasibility verdict for a field")
    feas.add_argument("--family", required=True, choices=list(FAMILIES))
    for name in _PARAMS:
        feas.add_argument(f"--{name}", type=int)
    feas.add_argument("--out", help="also write the report JSON to this path")

    embed = sub.add_parser("embed", help="emit the floating generator matrix as CSV")
    embed.add_argument("module", help="path to a module JSON file")
    embed.add_argument("--precision", type=int, default=None, help="bits (default 128)")
    embed.add_argument("--out", help="write the CSV to this path instead of stdout")

    return parser


def _collect_params(args, kind: str, family: str) -> dict:
    """The family's parameter flags; a flag it needs but lacks, or one it
    does not take, is an error that names the flag."""
    takes = dict(FAMILIES[family])
    for name in _PARAMS:
        given = getattr(args, name) is not None
        if given != (name in takes):
            problem = "unexpected" if given else "missing required"
            raise ValueError(f"{problem} parameter --{name} for {kind}")
    return {name: getattr(args, name) for name in takes}


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    params = _collect_params(args, args.construction, CONSTRUCTIONS[args.construction].family)
    module = build(args.construction, **params)
    _write_text(args.out, json.dumps(module_to_json(module), indent=2) + "\n")
    return EXIT_OK


def _load_module(path: str):
    with open(path) as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:  # bad JSON, or an integer past the int-str digit limit
            raise ValueError(f"parse error in module file: {exc}") from None
    try:
        return module_from_json(obj)
    except KeyError as exc:
        raise ValueError(f"module file is missing key {exc.args[0]!r}") from None


def _cmd_verify(args) -> int:
    module = _load_module(args.module)
    report = verify_rotated_dn(module)
    payload = report.to_json()
    det_gram = det_exact(gram(module))
    det_formula = det_via_formula(module)
    payload["det_cross_check"] = {
        "gram": str(det_gram),
        "formula": str(det_formula),
        "equal": det_gram == det_formula,
    }
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    return EXIT_OK if report.verdict else EXIT_UNVERIFIED


def _cmd_table1(args) -> int:
    _emit(table1_csv(), args.out)
    return EXIT_OK


def _cmd_feasibility(args) -> int:
    params = _collect_params(args, args.family, args.family)
    field = make_field(args.family, **params)
    text = feasibility_json(dn_feasibility(field))
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    return EXIT_OK


def _cmd_embed(args) -> int:
    precision = _precision(args.precision)
    module = _load_module(args.module)
    _emit(embedding_csv(module, precision), args.out)
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "table1": _cmd_table1,
    "feasibility": _cmd_feasibility,
    "embed": _cmd_embed,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

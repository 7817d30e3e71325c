#!/usr/bin/env python3
"""Certify the full battery of lattice constructions and print the evidence:
per-check verdicts, the exact determinant identity, the module's index in
the ring of integers, and ideal-closure status.  Exits 1 when a module is
not certified or its determinant identity fails."""

import argparse
import sys
import time
import warnings

from rotlat import (
    build,
    det_exact,
    det_via_formula,
    gram,
    is_ideal,
    min_norm_search,
    module_index,
    verify_rotated_dn,
)

BATTERY = [
    ("p31", {"r": 3}), ("p31", {"r": 4}), ("p31", {"r": 5}),
    ("p32", {"p": 7}), ("p32", {"p": 11}), ("p32", {"p": 13}),
    ("p34", {"r": 3, "p": 5}), ("p34", {"r": 4, "p": 5}), ("p34", {"r": 3, "p": 7}),
    ("p37", {"p1": 5, "p2": 7}), ("p37", {"p1": 5, "p2": 11}),
]


def norm_line(module, bound):
    """The exact norm minimum over the coefficient box, marked partial when
    the search stopped at its work budget before reaching the module's
    proven norm floor (1, or the index of an ideal)."""
    res = min_norm_search(module, bound)
    line = (f"min |norm| over box {bound}: {res.min_abs_norm} at {res.witness} "
            f"({res.evaluated} vectors, {res.determinants} determinants)")
    return line if res.exhaustive else f"{line}, partial: the search stopped at its work budget"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--norm-bound", type=int, default=0,
                        help="also search the exact norm minimum up to this bound (0 = skip)")
    args = parser.parse_args()

    warnings.simplefilter("ignore", RuntimeWarning)
    failed = 0
    for code, params in BATTERY:
        started = time.monotonic()
        module = build(code, **params)
        report = verify_rotated_dn(module)
        det_g = det_exact(gram(module))
        det_f = det_via_formula(module)
        ideal = is_ideal(module)
        elapsed = time.monotonic() - started
        label = f"{code} {params}"
        print(f"== {label}  (n = {module.field.n}, c = {module.c}, {elapsed:.2f}s)")
        for name, flag in report.checks:
            print(f"   {name:14s} {'ok' if flag else 'FAIL'}")
        print(f"   verdict        {'rotated D_n CERTIFIED' if report.verdict else 'NOT certified'}")
        print(f"   det(gram) = {det_g}  formula = {det_f}  equal = {det_g == det_f}")
        print(f"   index = {module_index(module)}")
        print(f"   ideal in the ring of integers: {ideal.is_ideal}")
        if args.norm_bound:
            print(f"   {norm_line(module, args.norm_bound)}")
        print()
        failed += not (report.verdict and det_g == det_f)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

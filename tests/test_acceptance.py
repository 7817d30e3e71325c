"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from math import lcm

import pytest

from rotlat import (
    CycloElt,
    det_exact,
    det_via_formula,
    dn_feasibility,
    gram,
    in_module,
    is_ideal,
    lll_reduce,
    make_field,
    min_norm_search,
    norm_real,
    subfield_degrees,
    table1,
    table1_csv,
    verify_ambient_zn,
    verify_rotated_dn,
)
from rotlat.numtheory import euler_phi
from helpers import (BATTERY, PUBLISHED_CELLS, agrees_significant, conjugates, get_module,
                     mat_mul, trace_by_form, trace_via_mult_matrix, transpose)


def _line(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")


# -- criterion 1: table reproduction ----------------------------------------


def test_criterion_1_table_reproduction():
    started = time.monotonic()
    rows = {rec["n"]: rec for rec in table1()}
    failures = []
    for (n, col), printed in PUBLISHED_CELLS.items():
        if not agrees_significant(rows[n][col], printed, sig_cap=5):
            failures.append((n, col, rows[n][col], printed))
    # the comp-odd-odd cell at n = 15 is emitted with both values and a flag
    n15 = rows[15]
    flagged = (
        n15["K4"] is not None
        and "0.1380198" in n15["note"]
        and not agrees_significant(n15["K4"], "0.1380198")
    )
    csv_text = table1_csv()
    flagged = flagged and "0.1380198" in csv_text
    elapsed = time.monotonic() - started
    ok = not failures and flagged and elapsed < 10.0
    _line(1, "table reproduction", ok)
    assert not failures, failures
    assert flagged
    assert elapsed < 10.0, f"table took {elapsed:.2f}s"


# -- criterion 2: D_n certification ------------------------------------------


def test_criterion_2_dn_certification():
    slow = []
    for code, params in BATTERY:
        started = time.monotonic()
        module = get_module(code, **params)
        report = verify_rotated_dn(module)
        elapsed = time.monotonic() - started
        assert report.verdict, (code, params, report.checks)
        assert all(flag for _, flag in report.checks), (code, params, report.checks)
        if elapsed >= 30.0:
            slow.append((code, params, elapsed))
    ok = not slow
    _line(2, "D_n certification", ok)
    assert not slow, slow


# -- criterion 3: determinant identity ----------------------------------------


def test_criterion_3_determinant_identity():
    for code, params in BATTERY:
        module = get_module(code, **params)
        lhs = det_exact(gram(module))
        rhs = det_via_formula(module)
        assert lhs == rhs, (code, params)
        assert lhs == 4 * Fraction(module.c) ** module.field.n, (code, params)
        if code == "p34":
            r, p = params["r"], params["p"]
            n1, n2 = 2 ** (r - 2), (p - 1) // 2
            assert lhs == 4 * (2 ** (r - 1) * p) ** (n1 * n2)
        if code == "p37":
            p1, p2 = params["p1"], params["p2"]
            n1, n2 = (p1 - 1) // 2, (p2 - 1) // 2
            assert lhs == 4 * (p1 * p2) ** (n1 * n2)
    _line(3, "determinant identity", True)


# -- criterion 4: trace table ---------------------------------------------------


def test_criterion_4_p34_gram_diagonal():
    for r, p in [(3, 5), (4, 5), (3, 7)]:
        module = get_module("p34", r=r, p=p)
        n1, n2 = subfield_degrees(module.field)
        G = gram(module)
        assert G.den == 1
        pos = 0
        for i in range(n1):
            for j in range(1, n2 + 1):
                entry = G.num[pos][pos]
                if i == 0 and j == n2:
                    assert entry == 4 * (2 * n1 * p), (r, p, i, j)  # doubled vector
                elif i != 0 and j != n2:
                    assert entry == 8 * n1 * p, (r, p, i, j)
                else:
                    assert entry == 4 * n1 * p, (r, p, i, j)
                assert entry in (4 * n1 * p, 8 * n1 * p)
                pos += 1
    _line(4, "trace table", True)


# -- criterion 5: ideal tests ----------------------------------------------------


def test_criterion_5_ideal_tests():
    for r in (3, 4, 5):
        assert is_ideal(get_module("p31", r=r)).is_ideal, r
    for code, params in (
        ("p32", {"p": 7}),
        ("p34", {"r": 3, "p": 5}),
        ("p37", {"p1": 5, "p2": 7}),
    ):
        module = get_module(code, **params)
        check = is_ideal(module)
        assert not check.is_ideal, (code, params)
        witness = check.witness
        assert witness is not None
        assert witness.product == witness.basis_factor * witness.module_factor
        assert not in_module(module, witness.product), (code, params)
    _line(5, "ideal tests", True)


# -- criterion 6: norm-minimum oracle ---------------------------------------------


def test_criterion_6_norm_minimum_oracle():
    for code, params in (
        ("p32", {"p": 7}),
        ("p34", {"r": 3, "p": 5}),
        ("p37", {"p1": 5, "p2": 7}),
    ):
        module = get_module(code, **params)
        result = min_norm_search(module, 2)
        assert result.exhaustive, (code, params)
        assert result.min_abs_norm == 1, (code, params, result.min_abs_norm)
        witness = sum(a * g for a, g in zip(result.witness, module.gamma))
        assert abs(norm_real(witness, module.field)) == 1
    _line(6, "norm-minimum oracle", True)


# -- criterion 7: feasibility verdicts ---------------------------------------------


def test_criterion_7_feasibility_verdicts():
    cases = [
        ("odd-prime", {"p": 7}, "ImpossibleOddDisc"),
        ("odd-prime", {"p": 11}, "ImpossibleOddDisc"),
        ("odd-prime", {"p": 13}, "ImpossibleOddDisc"),
        ("comp-odd-odd", {"p1": 5, "p2": 7}, "ImpossibleOddDisc"),
        ("comp-pow2-odd", {"r": 3, "p": 7}, "ImpossibleResidueCondition"),
    ] + [("pow2", {"r": r}, "KnownConstruction") for r in range(3, 10)]
    for family, params, expected in cases:
        field = make_field(family, **params)
        report = dn_feasibility(field)
        assert report.verdict == expected, (family, params, report.verdict)
        assert report.e * report.f * report.g == field.n, (family, params)
    _line(7, "feasibility verdicts", True)


def test_criterion_7_comp_pow2_odd_4_5_as_stated():
    # Mixed compositum K = Q(zeta_{2^r})^+ . Q(zeta_p)^+ at r = 4, derived here
    # without the program's splitting or valuation helpers.  2 is totally
    # ramified in the 2-power factor (e = 2^(r-2)) and unramified in the odd
    # factor, where f is the order of 2 in (Z/pZ)^*/{+-1}.  z = v2(d_K) has the
    # closed form n2 * ((r-1) 2^(r-2) - 1).  For p = 5: f = 2 and z = 22, so f
    # divides 2 - z = -20 and neither impossibility rule fires (d_K is even);
    # the verdict is NecessaryConditionHolds.  For p = 7: f = 3 and z = 33, so
    # f does not divide 2 - z = -31 and the residue rule must fire.
    r = 4
    n1 = 2 ** (r - 2)

    def derived(p):
        field = make_field("comp-pow2-odd", r=r, p=p)
        n2 = (p - 1) // 2
        f = next(t for t in range(1, p) if pow(2, t, p) in (1, p - 1))
        e = n1
        g = field.n // (e * f)
        assert field.n == n1 * n2 and e * f * g == field.n, (p, field.n, e, f)
        z = 0
        d = field.disc
        while d % 2 == 0:
            d //= 2
            z += 1
        assert z == n2 * ((r - 1) * 2 ** (r - 2) - 1), (p, z)
        report = dn_feasibility(field)
        assert (report.e, report.f, report.g, report.z) == (e, f, g, z), (p, report)
        assert report.disc_odd is False, p
        return field, report, f, z

    field, report, f, z = derived(5)
    assert field.disc == 2**22 * 5**4
    assert (f, z) == (2, 22)
    assert z != 0 and (2 - z) % f == 0
    assert report.verdict == "NecessaryConditionHolds", report.verdict
    assert "f=2" in report.rule and "2 - z = -20" in report.rule, report.rule
    assert "not decided" in report.rule, report.rule

    field, report, f, z = derived(7)
    assert field.disc == 2**33 * 7**8
    assert (f, z) == (3, 33)
    assert (2 - z) % f != 0
    assert report.verdict == "ImpossibleResidueCondition", report.verdict
    assert "f=3" in report.rule and "2 - z = -31" in report.rule, report.rule
    _line("7b", "comp-pow2-odd r=4: f | 2 - z at p=5, residue rule fires at p=7", True)


# -- criterion 8: arithmetic property suite -------------------------------------------


def _random_cyclo(rng, m, span=9):
    phi = euler_phi(m)
    return CycloElt.from_coeffs(m, [Fraction(rng.randint(-span, span)) for _ in range(phi)])


def _random_member(rng, field, span=4):
    acc = CycloElt.zero(field.m)
    for w in field.basis:
        acc = acc + rng.randint(-span, span) * w
    return acc


def test_criterion_8_arithmetic_properties():
    fields = [
        make_field("pow2", r=4),
        make_field("odd-prime", p=7),
        make_field("comp-pow2-odd", r=3, p=5),
        make_field("comp-odd-odd", p1=5, p2=7),
    ]
    rng = random.Random(20260811)
    for field in fields:
        for _ in range(200):
            x = _random_cyclo(rng, field.m)
            assert trace_by_form(x) == trace_via_mult_matrix(x)
        for _ in range(200):
            x = _random_member(rng, field)
            y = _random_member(rng, field)
            assert norm_real(x * y, field) == norm_real(x, field) * norm_real(y, field)
        for _ in range(200):
            x = _random_member(rng, field)
            enclosures = conjugates(x, field, 96)
            total = enclosures[0]
            for e in enclosures[1:]:
                total = total + e
            assert total.contains(trace_by_form(x) / field.codegree)
    _line(8, "arithmetic property suite", True)


# -- criterion 9: LLL certificate soundness --------------------------------------------


def _ambient_gram_rows(field, alpha, c):
    idx = field.codegree
    n = field.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    twisted = [alpha * w for w in field.basis]
    for i in range(n):
        for j in range(i, n):
            v = trace_by_form(twisted[i] * field.basis[j]) / idx / c
            rows[i][j] = rows[j][i] = v
    return rows


def _rational_rows(g):
    return [[Fraction(e, g.den) for e in row] for row in g.num]


def test_criterion_9_lll_certificates():
    from rotlat import GramMatrix

    for code, params in BATTERY:
        module = get_module(code, **params)
        rows = _ambient_gram_rows(module.field, module.alpha, module.c)
        den = lcm(*(q.denominator for row in rows for q in row))
        reduced, transform = lll_reduce(
            GramMatrix(tuple(tuple(int(q * den) for q in row) for row in rows), den))
        t_rows = [list(r) for r in transform]
        product = mat_mul(mat_mul(t_rows, rows), transpose(t_rows))
        assert product == _rational_rows(reduced)
        ambient, t2 = verify_ambient_zn(module.field, module.alpha, module.c)
        assert ambient
        product2 = mat_mul(mat_mul([list(r) for r in t2], rows),
                           transpose([list(r) for r in t2]))
        n = module.field.n
        assert product2 == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    _line(9, "LLL certificate soundness", True)


@pytest.mark.parametrize("code, params", [("p37", {"p1": 7, "p2": 11}), ("p31", {"r": 7})])
def test_kernel_grams_match_trace_oracle_at_certify_sizes(code, params):
    # the integer trace-form kernel against per-product traces, beyond the n <= 12 battery
    from rotlat.verify import ambient_gram

    module = get_module(code, **params)
    K, alpha, c = module.field, module.alpha, module.c
    assert _rational_rows(ambient_gram(K, alpha, c)) == _ambient_gram_rows(K, alpha, c)
    entries = _rational_rows(gram(module))
    for i, x in enumerate(module.gamma):
        twisted = alpha * x
        for j in range(i, K.n):
            expected = trace_by_form(twisted * module.gamma[j]) / K.codegree
            assert entries[i][j] == entries[j][i] == expected

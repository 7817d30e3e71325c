import warnings
from fractions import Fraction
from math import prod

import pytest

from rotlat import (
    TABLE_ROWS,
    dp_closed_form,
    dp_rel_exponents,
    dp_unscaled_exponents,
    min_norm_search,
    norm_real,
    per_dimension,
    table1,
    table1_csv,
)
from rotlat import distance
from rotlat.constructions import lookup
from rotlat.distance import (
    _abs_norm,
    _embedding_steps,
    _mult_matrices,
    _pruning_bounds,
    exponents_to_square_radicand,
    lattice_dimension,
    scale_exponents,
)
from helpers import (
    BATTERY,
    PUBLISHED_CELLS,
    agrees_significant,
    box_in_scan_order,
    get_module,
    half_box_in_scan_order,
    min_norm_search_oracle,
    widen_leaves,
)


def test_per_dim_convention_pins_down_published_cells():
    # the published table lists the n-th root of the relative distance;
    # the n-th-root convention is confirmed across several rows at once
    checks = [
        ("p32", {"p": 7}, 3, "0.369646"),
        ("p32", {"p": 31}, 15, "0.142402"),
        ("p32", {"p": 17}, 8, "0.20472"),
        ("p34", {"r": 3, "p": 7}, 6, "0.219793"),
        ("p34", {"r": 4, "p": 5}, 8, "0.182317"),
    ]
    for code, params, n, printed in checks:
        value = per_dimension(dp_rel_exponents(code, **params), n)
        assert agrees_significant(value, printed), (code, params, value, printed)


def test_dp_rel_closed_forms():
    assert dp_rel_exponents("p32", p=7) == {2: Fraction(-3, 2), 7: Fraction(-1)}
    assert dp_rel_exponents("p31", r=4) == {2: Fraction(3 - 4 * 4, 2)}
    # compositum of the power-of-two and odd-prime fields, r=3, p=7 (n=6)
    assert dp_rel_exponents("p34", r=3, p=7) == {2: Fraction(-18 + 3, 2), 7: Fraction(-6 + 2, 2)}
    # compositum of two odd-prime fields (5, 7): n1=2, n2=3, n=6
    assert dp_rel_exponents("p37", p1=5, p2=7) == {
        2: Fraction(-3),
        5: Fraction(-6 + 3, 2),
        7: Fraction(-6 + 2, 2),
    }


def test_dp_rel_derives_from_unscaled_and_scale():
    # d_rel = d_p * 2^(-n/2) * c^(-n/2), checked as exponent arithmetic
    for code, params in (
        ("p31", {"r": 4}),
        ("p32", {"p": 11}),
        ("p34", {"r": 3, "p": 5}),
        ("p37", {"p1": 5, "p2": 7}),
    ):
        n = lattice_dimension(code, **params)
        table = dict(dp_unscaled_exponents(code, **params))
        table[2] = table.get(2, Fraction(0)) - Fraction(n, 2)
        for p, e in scale_exponents(code, **params).items():
            table[p] = table.get(p, Fraction(0)) - Fraction(n, 2) * e
        table = {p: e for p, e in table.items() if e}
        assert table == dp_rel_exponents(code, **params)


def test_scaling_homogeneity():
    # replacing c by 4c divides the scaled distance by 2^n and nothing else
    code, params = "p34", {"r": 3, "p": 5}
    n = lattice_dimension(code, **params)
    base = dict(dp_rel_exponents(code, **params))
    quadrupled = dict(base)
    quadrupled[2] = quadrupled.get(2, Fraction(0)) - n  # extra 1/sqrt(4)^n = 2^-n
    assert quadrupled[2] == base[2] - n


def test_p31_principal_ideal_two_routes_agree():
    # route 1: sqrt(det / disc) with det = 4 c^n; route 2: sqrt(norm(alpha)) * min-norm
    for r in (3, 4, 5):
        m = get_module("p31", r=r)
        n, c, disc = m.field.n, m.c, m.field.disc
        det = 4 * Fraction(c) ** n
        route1_squared = det / disc
        n_alpha = norm_real(m.alpha, m.field)
        min_norm = abs(norm_real(m.field.basis[1], m.field))  # generator of the module
        assert min_norm == 2
        route2_squared = n_alpha * min_norm**2
        assert route1_squared == route2_squared


def _squared(table) -> Fraction:
    return Fraction(prod(Fraction(p) ** int(2 * e) for p, e in table.items()))


@pytest.mark.parametrize("code,params", BATTERY)
def test_construction_table_matches_built_module(code, params):
    # the closed-form tables, read without building anything, against the
    # module that build() made
    m = get_module(code, **params)
    norm_alpha = norm_real(m.alpha, m.field)
    spec, q, dims = lookup(code, params)
    assert prod(p**e for p, e in spec.norm_alpha(q, dims).items()) == norm_alpha
    assert _squared(scale_exponents(code, **params)) == m.c**2
    assert lattice_dimension(code, **params) == m.field.n
    min_norm = dp_closed_form(m).min_norm_assumed
    assert _squared(dp_unscaled_exponents(code, **params)) == norm_alpha * min_norm**2


def test_dp_closed_form_result_fields():
    res = dp_closed_form(get_module("p32", p=7), confirm_bound=2)
    assert res.dp_unscaled == (1, 7)
    assert dict(res.dp_rel) == {2: Fraction(-3, 2), 7: Fraction(-1)}
    assert agrees_significant(res.dp_rel_per_dim, "0.369646", sig_cap=6)
    assert res.min_norm_assumed == 1
    assert res.oracle_confirmed

    res31 = dp_closed_form(get_module("p31", r=4))
    assert res31.dp_unscaled == (2, 2)
    assert res31.min_norm_assumed == 2
    assert not res31.oracle_confirmed


def test_square_radicand_split():
    assert exponents_to_square_radicand({2: Fraction(3, 2)}) == (2, 2)
    assert exponents_to_square_radicand({2: Fraction(1), 5: Fraction(1, 2)}) == (2, 5)
    with pytest.raises(ValueError):
        exponents_to_square_radicand({2: Fraction(-1, 2)})


@pytest.mark.parametrize(
    "code,params",
    [("p32", {"p": 7}), ("p34", {"r": 3, "p": 5}), ("p37", {"p1": 5, "p2": 7})],
)
def test_min_norm_search_confirms_unit(code, params):
    res = min_norm_search(get_module(code, **params), 2)
    assert res.min_abs_norm == 1
    assert res.exhaustive
    m = get_module(code, **params)
    witness = sum(a * g for a, g in zip(res.witness, m.gamma))
    assert abs(norm_real(witness, m.field)) == 1


def test_min_norm_search_p31_minimum_two():
    for r, bound in ((3, 2), (4, 2), (5, 1)):
        m = get_module("p31", r=r)
        res = min_norm_search(m, bound)
        assert res.min_abs_norm == 2
        assert res.exhaustive


def test_min_norm_search_witness_is_first_in_scan_order():
    m = get_module("p34", r=3, p=5)
    res = min_norm_search(m, 1)
    # the search walks one of each pair +-x and counts the walked vectors;
    # rescan the whole box: no attaining vector may precede the witness
    box = box_in_scan_order(1, 4)
    assert half_box_in_scan_order(1, 4).index(res.witness) == res.evaluated - 1 == 13
    assert box.index(res.witness) == 26
    for a in box[:box.index(res.witness)]:
        assert abs(norm_real(sum(c * g for c, g in zip(a, m.gamma)), m.field)) > res.min_abs_norm


def test_norm_homogeneity_of_witness():
    m = get_module("p34", r=3, p=5)
    res = min_norm_search(m, 1)
    y = sum(a * g for a, g in zip(res.witness, m.gamma))
    n = m.field.n
    assert abs(norm_real(2 * y, m.field)) == 2**n * abs(norm_real(y, m.field))


def test_min_norm_budget_flagging():
    m = get_module("p31", r=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning):
            min_norm_search(m, 2, budget=5)
    # the minimum is 2, so no unit ends the scan of the 312 vectors of the
    # 624-vector box taken up to sign: a budget of 5 must return a partial,
    # flagged result
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = min_norm_search(m, 2, budget=5)
    assert not res.exhaustive
    assert res.evaluated == 5
    assert res.min_abs_norm >= 1


def test_min_norm_search_warns_only_when_the_budget_stops_it():
    # the box 3^15 - 1 is far beyond the budget, but a unit lies in the
    # first shell, so the scan ends exhaustively with no warning
    m = get_module("p37", p1=7, p2=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = min_norm_search(m, 1)
    assert (res.min_abs_norm, res.exhaustive, res.evaluated) == (1, True, 2)
    assert res.witness == (0,) * 13 + (-1, 0)


def test_min_norm_search_finds_the_unit_of_p34_in_the_first_shell():
    # a lexicographic scan of the same box passes 81,387 vectors first; the
    # walk passes one of each pair +-x with first coordinate 0, then the unit
    res = min_norm_search(get_module("p34", r=4, p=5), 2)
    assert (res.min_abs_norm, res.exhaustive) == (1, True)
    assert res.witness == (-1, 0, 0, 0, 0, 0, 0, 0)
    assert res.evaluated == 1094 == (3**7 - 1) // 2 + 1
    # the first vector sets the minimum at 4, and only a vector whose bound
    # allows |N| <= 3 reaches the next determinant: the unit
    assert res.determinants == 2


def test_min_norm_search_of_p31_r5_needs_one_determinant():
    # the minimum is 2, so the whole half box of shell 1 is walked; every
    # other vector's bound proves |N| > 1, so |N| >= 2 = the minimum
    res = min_norm_search(get_module("p31", r=5), 1)
    assert (res.min_abs_norm, res.witness, res.exhaustive) == (2, (0,) * 7 + (-1,), True)
    assert (res.evaluated, res.determinants) == (3280, 1)
    assert res.evaluated == (3**8 - 1) // 2


def test_min_norm_rejects_bad_bound():
    with pytest.raises(ValueError):
        min_norm_search(get_module("p32", p=7), 0)


@pytest.mark.parametrize("budget", [0, -1])
def test_min_norm_rejects_bad_budget(budget):
    with pytest.raises(ValueError, match="budget must be >= 1"):
        min_norm_search(get_module("p32", p=7), 1, budget=budget)


def _found(res):
    return res.min_abs_norm, res.witness, res.exhaustive, res.evaluated


def _result(res):
    return res.min_abs_norm, res.witness, res.exhaustive


# The benchmark's norm-oracle confirmations (ORACLE_BOUNDS in
# perfbench/cases.py), with box 1 for p34(4, 5) so that the unpruned oracle
# stays short (n = 8: 6560 vectors instead of 390624).
ORACLE_CASES = (
    ("p31", {"r": 3}, 2),
    ("p31", {"r": 4}, 2),
    ("p32", {"p": 7}, 2),
    ("p32", {"p": 11}, 2),
    ("p32", {"p": 13}, 2),
    ("p34", {"r": 3, "p": 5}, 2),
    ("p34", {"r": 3, "p": 7}, 2),
    ("p37", {"p1": 5, "p2": 7}, 2),
    ("p34", {"r": 4, "p": 5}, 1),
    ("p31", {"r": 5}, 1),
)


@pytest.mark.parametrize("code,params,bound", ORACLE_CASES)
def test_min_norm_search_matches_the_unpruned_oracle(code, params, bound):
    # the result is the full box's; the count is the half box's
    module = get_module(code, **params)
    res = min_norm_search(module, bound)
    oracle = min_norm_search_oracle(module, bound)
    half = min_norm_search_oracle(module, bound, half=True)
    assert _result(res) == _result(oracle)
    assert _found(res) == _found(half)
    assert oracle.determinants == oracle.evaluated
    assert 1 <= res.determinants <= res.evaluated


@pytest.mark.parametrize("budget", [1, 5, 100])
@pytest.mark.parametrize("code,params", [("p32", {"p": 7}), ("p31", {"r": 4})])
def test_min_norm_budget_overrun_matches_the_oracle(code, params, budget):
    module = get_module(code, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = min_norm_search(module, 2, budget=budget)
    assert _found(res) == _found(min_norm_search_oracle(module, 2, budget=budget, half=True))


def test_pruning_bounds_are_certified():
    # the walk yields one of each pair +-x in shell order, each with a
    # lower bound of D^n |N(x)| that the exact norm respects
    module = get_module("p34", r=3, p=5)
    steps, scale = _embedding_steps(module, 2)
    walked = list(_pruning_bounds(steps, 2))
    assert [a for a, _ in walked] == half_box_in_scan_order(2, 4)
    mats = _mult_matrices(module)
    assert all(lower <= scale * _abs_norm(mats, a) for a, lower in walked)
    assert sum(lower > 0 for _, lower in walked) > len(walked) // 2


@pytest.mark.parametrize(
    "code,params,bound",
    [("p31", {"r": 3}, 3), ("p32", {"p": 7}, 3), ("p31", {"r": 4}, 2), ("p34", {"r": 3, "p": 5}, 2)],
)
def test_pruning_walk_takes_one_of_each_pair(code, params, bound):
    # every nonzero box vector is +-x for exactly one walked x
    module = get_module(code, **params)
    steps, _ = _embedding_steps(module, bound)
    walked = [a for a, _ in _pruning_bounds(steps, bound)]
    signed = walked + [tuple(-x for x in a) for a in walked]
    assert sorted(signed) == sorted(box_in_scan_order(bound, module.field.n))
    assert len(walked) == ((2 * bound + 1) ** module.field.n - 1) // 2


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("code,params", [("p31", {"r": 4}), ("p34", {"r": 3, "p": 7})])
def test_min_norm_search_skips_only_vectors_that_cannot_beat_the_minimum(
    monkeypatch, code, params, reverse
):
    # record each walked vector and the exact norm computed for it, if any:
    # a vector left without one was skipped at the minimum found so far,
    # and its exact norm must be at least that minimum.  In walk order the
    # first vector sets the minimum (2 for p31) or the next minimum is the
    # unit (8, then 1 for p34); fed the walk backwards, the minimum falls in
    # 5 and 8 steps, so vectors are skipped at many different minima
    module = get_module(code, **params)
    walk, exact = distance._pruning_bounds, distance._abs_norm
    seen = []

    def recording_walk(steps, bound):
        walked = walk(steps, bound)
        for a, lower in reversed(list(walked)) if reverse else walked:
            seen.append([a, None])
            yield a, lower

    def recording_norm(mats, a):
        assert seen[-1] == [a, None]
        seen[-1][1] = exact(mats, a)
        return seen[-1][1]

    monkeypatch.setattr(distance, "_pruning_bounds", recording_walk)
    monkeypatch.setattr(distance, "_abs_norm", recording_norm)
    res = min_norm_search(module, 2)
    assert res.exhaustive and len(seen) == res.evaluated
    best, skipped = None, []
    for a, value in seen:
        if value is None:
            skipped.append((a, best))
        else:
            best = value if best is None else min(best, value)
    assert best == res.min_abs_norm
    assert len(skipped) == res.evaluated - res.determinants > 0
    norms = [abs(norm_real(sum(c * g for c, g in zip(a, module.gamma)), module.field))
             for a, _ in skipped]
    assert all(norm >= at for norm, (_, at) in zip(norms, skipped))
    # some skipped vector ties the minimum: only its norm being an integer
    # above best - 1 let it be skipped
    assert any(norm == at for norm, (_, at) in zip(norms, skipped))


def test_min_norm_search_bounds_only_prune(monkeypatch):
    # cosine leaves widened to +-1/4 leave most embedding intervals around
    # zero: far fewer vectors are pruned, and the result is still the
    # oracle's (p31 r=4 scans the whole box, its minimum being 2)
    module = get_module("p31", r=4)
    oracle = min_norm_search_oracle(module, 2)
    half = min_norm_search_oracle(module, 2, half=True)
    tight = min_norm_search(module, 2)
    asked = widen_leaves(monkeypatch, None, 2)
    loose = min_norm_search(module, 2)
    assert asked
    assert _result(loose) == _result(tight) == _result(oracle)
    assert _found(loose) == _found(tight) == _found(half)
    assert tight.determinants < loose.determinants <= loose.evaluated == half.evaluated


def test_table_reproduces_published_cells():
    rows = {rec["n"]: rec for rec in table1()}
    for (n, col), printed in PUBLISHED_CELLS.items():
        assert agrees_significant(rows[n][col], printed), (n, col, rows[n][col], printed)


def test_table_k4_row_emits_both_and_flags():
    rec = {r["n"]: r for r in table1()}[15]
    assert rec["K4"] is not None
    assert not agrees_significant(rec["K4"], "0.1380198")
    assert "0.1380198" in rec["note"]
    assert "disagrees" in rec["note"]


def test_table_k4_n15_cell_from_the_built_module():
    # second route to the flagged cell: N(alpha) and the proven minimum
    # norm of the built p37(7, 11) module, not the closed-form tables
    m = get_module("p37", p1=7, p2=11)
    n = m.field.n
    norm_alpha = norm_real(m.alpha, m.field)
    found = min_norm_search(m, 1)
    assert (n, norm_alpha, m.c) == (15, 22370117, 77)
    assert (found.min_abs_norm, found.exhaustive) == (1, True)
    value = float(Fraction(norm_alpha * found.min_abs_norm**2, (2 * m.c) ** n)) ** (1 / (2 * n))
    cell = {r["n"]: r for r in table1()}[15]["K4"]
    assert f"{value:.6g}" == f"{cell:.6g}" == "0.141654"
    assert not agrees_significant(value, "0.1380198")


def test_table_csv_layout():
    text = table1_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "n,p,r,r1,p1,p2,p3,K1,K2,K3,K4,note"
    assert len(lines) == 2 + len(TABLE_ROWS)
    first = lines[2].split(",")
    assert first[0] == "3" and first[7] == "0.369646"
    # K2/K3/K4 inapplicable on the first row
    assert first[8] == "" and first[9] == "" and first[10] == ""
    n15 = next(line for line in lines if line.startswith("15,"))
    assert "0.1380198" in n15


def test_table_row_dimension_guard():
    from rotlat.distance import TableRow, table1 as build_table

    with pytest.raises(ValueError):
        build_table((TableRow(12, r1=3, p1=7),))  # that pair generates dimension 6

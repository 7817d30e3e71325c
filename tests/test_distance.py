import warnings
from fractions import Fraction
from math import prod

import pytest

from rotlat import (
    TABLE_ROWS,
    dp_closed_form,
    is_ideal,
    min_norm_search,
    module_index,
    norm_real,
    per_dimension,
    table1,
    table1_csv,
)
from rotlat import distance, fields
from rotlat.constructions import TwistedModule, lookup
from rotlat.distance import _embedding_steps, _pruning_bounds, exponents_to_square_radicand
from helpers import (
    BATTERY,
    CERTIFY_MODULES,
    PUBLISHED_CELLS,
    TABLE_CELLS,
    agrees_significant,
    box_in_scan_order,
    confirmed_by_search,
    doubled_gamma0,
    dp_rel_exponents,
    dp_unscaled_exponents,
    get_module,
    half_box_in_scan_order,
    lattice_dimension,
    min_norm_search_oracle,
    norm_by_determinant,
    scale_exponents,
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


@pytest.mark.parametrize("code,params", BATTERY + TABLE_CELLS)
def test_construction_table_matches_built_module(code, params):
    # the closed-form tables, read without building anything, against the
    # module that build() made; over the Table-1 cells up to n = 128 too
    m = get_module(code, **params)
    norm_alpha = norm_real(m.alpha, m.field)
    spec, q, dims = lookup(code, params)
    assert prod(p**e for p, e in spec.norm_alpha(q, dims).items()) == norm_alpha
    assert _squared(scale_exponents(code, **params)) == m.c**2
    assert lattice_dimension(code, **params) == m.field.n
    min_norm = dp_closed_form(m).min_norm_assumed
    assert _squared(dp_unscaled_exponents(code, **params)) == norm_alpha * min_norm**2
    # the second route to the cell: d_rel^2 = N(alpha) min^2 / (2c)^n with
    # N(alpha), c and n read off the built module
    d_rel_squared = norm_alpha * spec.min_norm**2 / Fraction(2 * m.c) ** m.field.n
    assert d_rel_squared == _squared(dp_rel_exponents(code, **params))


def test_table1_looks_each_filled_cell_up_once(monkeypatch):
    looked = []
    real = distance.lookup

    def counting_lookup(construction, given):
        looked.append((construction, dict(given)))
        return real(construction, given)

    monkeypatch.setattr(distance, "lookup", counting_lookup)
    table = table1()
    filled = sum(rec[k] is not None for rec in table for k in ("K1", "K2", "K3", "K4"))
    assert len(looked) == filled == 25
    # all but the two cells of the n = 32768 row are built and checked above
    assert len(TABLE_CELLS) == 23
    assert [cell for cell in looked if cell not in TABLE_CELLS] == [
        ("p32", {"p": 65537}), ("p31", {"r": 17})]


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


@pytest.mark.parametrize("code,params", BATTERY)
def test_dp_closed_form_looks_its_construction_up_once(monkeypatch, code, params):
    # one table lookup and one unscaled table (one N(alpha) exponent
    # table) per call, and the same result as the closed-form views give
    module = get_module(code, **params)
    looked, tables = [], []
    real = distance.lookup

    def counting_lookup(construction, given):
        looked.append(construction)
        spec, q, dims = real(construction, given)

        def counting_norm_alpha(*args):
            tables.append(args)
            return spec.norm_alpha(*args)

        return spec._replace(norm_alpha=counting_norm_alpha), q, dims

    monkeypatch.setattr(distance, "lookup", counting_lookup)
    res = dp_closed_form(module)
    assert (len(looked), len(tables)) == (1, 1)
    monkeypatch.undo()
    rel = dp_rel_exponents(code, **params)
    assert res.dp_unscaled == exponents_to_square_radicand(dp_unscaled_exponents(code, **params))
    assert res.dp_rel == tuple(rel.items())
    assert res.dp_rel_per_dim == per_dimension(rel, lattice_dimension(code, **params))


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
    assert abs(norm_by_determinant(witness, m.field)) == 1


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
        x = sum(c * g for c, g in zip(a, m.gamma))
        assert abs(norm_by_determinant(x, m.field)) > res.min_abs_norm


def test_norm_homogeneity_of_witness():
    m = get_module("p34", r=3, p=5)
    res = min_norm_search(m, 1)
    y = sum(a * g for a, g in zip(res.witness, m.gamma))
    n = m.field.n
    assert abs(norm_real(2 * y, m.field)) == 2**n * abs(norm_real(y, m.field))


def test_min_norm_budget_flagging():
    m = doubled_gamma0(get_module("p31", r=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning):
            min_norm_search(m, 2, budget=5)
    # the minimum is 2 and the floor 1 (not an ideal), so nothing ends the
    # scan of the 312 vectors of the 624-vector box taken up to sign: a
    # budget of 5 must return a partial, flagged result
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
    # the ideal e_1 O_K has index 2, the floor of every nonzero norm, and
    # its first vector attains it: the search stops there
    res = min_norm_search(get_module("p31", r=5), 1)
    assert (res.min_abs_norm, res.witness, res.exhaustive) == (2, (0,) * 7 + (-1,), True)
    assert (res.evaluated, res.determinants) == (1, 1)
    assert res.evaluated == half_box_in_scan_order(1, 8).index(res.witness) + 1
    # with gamma_0 doubled the minimum is still 2 but the floor is 1, so the
    # whole half box of shell 1 is walked; every other vector's bound
    # proves |N| > 1, so |N| >= 2 = the minimum
    res = min_norm_search(doubled_gamma0(get_module("p31", r=5)), 1)
    assert (res.min_abs_norm, res.witness, res.exhaustive) == (2, (0,) * 7 + (-1,), True)
    assert (res.evaluated, res.determinants) == (3280, 1)
    assert res.evaluated == (3**8 - 1) // 2


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("bound", [1, 2])
def test_min_norm_search_of_p31_stops_at_its_floor(r, bound):
    # the ideal e_1 O_K: every nonzero norm is a multiple of its index 2,
    # and the first walked vector, -gamma_{n-1}, has norm 2.  Where the
    # unpruned oracle's scan is short (r <= 4, and r = 5 at box 1), it
    # finds the same minimum and witness
    module = get_module("p31", r=r)
    n = module.field.n
    res = min_norm_search(module, bound)
    assert (res.min_abs_norm, res.witness, res.exhaustive) == (2, (0,) * (n - 1) + (-1,), True)
    assert (res.evaluated, res.determinants) == (1, 1)
    if (2 * bound + 1) ** n <= 3**8:
        assert _result(res) == _result(min_norm_search_oracle(module, bound))


def test_p31_r7_is_confirmed_at_box_1():
    # the half box of shell 1 is (3^32 - 1) / 2 vectors, far past the budget;
    # the floor ends the search at its first vector, exhaustively
    res = dp_closed_form(get_module("p31", r=7), confirm_bound=1)
    assert res.oracle_confirmed and res.min_norm_assumed == 2


def test_min_norm_search_of_a_non_ideal_p31_submodule_scans_the_whole_box():
    # gamma_0 doubled: full rank, index 4, no longer an ideal, so the floor
    # is 1 and the minimum 2 never ends the scan
    module = doubled_gamma0(get_module("p31", r=4))
    assert module_index(module) == 4 and not is_ideal(module).is_ideal
    res = min_norm_search(module, 2)
    assert res.evaluated == len(half_box_in_scan_order(2, 4)) == 312
    assert _found(res) == _found(min_norm_search_oracle(module, 2, half=True))
    assert _result(res) == _result(min_norm_search_oracle(module, 2))
    assert res.min_abs_norm == 2


def test_the_index_of_a_non_ideal_is_no_floor():
    # p34 r=3 p=5 with gamma_1 doubled: index 4, not an ideal, and its first
    # walked vector -gamma_3 has norm 4; only closure under O_K makes the
    # index a floor, so the scan goes on to the unit
    good = get_module("p34", r=3, p=5)
    module = TwistedModule(good.field, (good.gamma[0], 2 * good.gamma[1], *good.gamma[2:]),
                           good.alpha, good.c, good.construction)
    assert module_index(module) == 4 == abs(norm_by_determinant(module.gamma[-1], module.field))
    assert not is_ideal(module).is_ideal
    res = min_norm_search(module, 1)
    assert _result(res) == _result(min_norm_search_oracle(module, 1)) == (1, (-1, 0, 0, 0), True)
    assert _found(res) == _found(min_norm_search_oracle(module, 1, half=True))


def test_min_norm_search_tests_closure_only_at_a_minimum_equal_to_the_index(monkeypatch):
    # every battery module has index 2; the p31 ideals meet norm 2 first and
    # test closure once, the others meet their first norms (a unit for p32,
    # norms above 2 for p34 and p37, then a unit) and never test it
    calls = []
    test = distance.is_ideal

    def counting(module):
        calls.append(module)
        return test(module)

    monkeypatch.setattr(distance, "is_ideal", counting)
    for code, params in BATTERY:
        module = get_module(code, **params)
        calls.clear()
        res = min_norm_search(module, 2)
        assert module_index(module) == 2
        assert calls == ([module] if code == "p31" else [])
        assert res.min_abs_norm == (2 if code == "p31" else 1)


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
    # the result is the full box's; the count is the half box's, except
    # that p31's scan ends at its floor, where the oracle's ends only at 1
    module = get_module(code, **params)
    res = min_norm_search(module, bound)
    oracle = min_norm_search_oracle(module, bound)
    half = min_norm_search_oracle(module, bound, half=True)
    assert _result(res) == _result(oracle) == _result(half)
    if code == "p31":
        assert res.evaluated == half_box_in_scan_order(bound, module.field.n).index(res.witness) + 1
    else:
        assert _found(res) == _found(half)
    assert oracle.determinants == oracle.evaluated
    assert 1 <= res.determinants <= res.evaluated


@pytest.mark.parametrize("budget", [1, 5, 100])
@pytest.mark.parametrize("code,params", [("p32", {"p": 7}), ("p31", {"r": 4})])
def test_min_norm_budget_overrun_matches_the_oracle(code, params, budget):
    # p31 with gamma_0 doubled: the floor is 1, so no floor ends the scan
    module = get_module(code, **params)
    if code == "p31":
        module = doubled_gamma0(module)
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
    norms = [abs(norm_by_determinant(sum(c * g for c, g in zip(a, module.gamma)),
                                     module.field))
             for a, _ in walked]
    assert all(lower <= scale * norm for (_, lower), norm in zip(walked, norms))
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
    # first vector sets the minimum (2 for p31, gamma_0 doubled so that no
    # floor ends the scan) or the next minimum is the unit (8, then 1 for
    # p34); fed the walk backwards, the minimum falls in 6 and 8 steps, so
    # vectors are skipped at many different minima
    module = get_module(code, **params)
    if code == "p31":
        module = doubled_gamma0(module)
    walk, exact = distance._pruning_bounds, distance._pinned_norm
    seen = []

    def recording_walk(steps, bound):
        walked = walk(steps, bound)
        for a, lower in reversed(list(walked)) if reverse else walked:
            seen.append([a, None])
            yield a, lower

    def recording_norm(searched, a):
        assert searched is module and seen[-1] == [a, None]
        seen[-1][1] = exact(searched, a)
        return seen[-1][1]

    monkeypatch.setattr(distance, "_pruning_bounds", recording_walk)
    monkeypatch.setattr(distance, "_pinned_norm", recording_norm)
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
    norms = [abs(norm_by_determinant(sum(c * g for c, g in zip(a, module.gamma)),
                                     module.field))
             for a, _ in skipped]
    assert all(norm >= at for norm, (_, at) in zip(norms, skipped))
    # some skipped vector ties the minimum: only its norm being an integer
    # above best - 1 let it be skipped
    assert any(norm == at for norm, (_, at) in zip(norms, skipped))


@pytest.mark.parametrize("code,params,bound,limit", [
    ("p34", {"r": 4, "p": 5}, 2, 16),
    ("p37", {"p1": 7, "p2": 11}, 1, 30),
])
def test_min_norm_search_solves_coordinates_only_for_its_determinants(
    monkeypatch, code, params, bound, limit
):
    # past the integrality check, each exact norm is read off embedding
    # enclosures: no norm_real and no coordinate solve, where a norm_real
    # per candidate would take limit = n * determinants solves
    module = get_module(code, **params)
    checked, solves, norms = [], [], []
    check, solve, norm = distance.coordinate_matrix, fields.integer_coords, distance.norm_real

    def checking(searched):
        rows = check(searched)
        checked.append(searched)
        return rows

    def counting_solve(field, x):
        if checked:
            solves.append(x)
        return solve(field, x)

    def counting_norm(x, field):
        if checked:
            norms.append(x)
        return norm(x, field)

    monkeypatch.setattr(distance, "coordinate_matrix", checking)
    monkeypatch.setattr(fields, "integer_coords", counting_solve)
    monkeypatch.setattr(distance, "norm_real", counting_norm)
    res = min_norm_search(module, bound)
    assert (res.min_abs_norm, res.exhaustive, res.determinants) == (1, True, 2)
    assert module.field.n * res.determinants == limit
    assert checked == [module]
    assert solves == norms == []


def test_min_norm_search_reuses_the_gamma_enclosures_of_its_module(monkeypatch):
    # the 64-bit enclosures of sigma_j(gamma_i) are computed once per
    # module: a second search bounds no gamma element again
    module = get_module("p34", r=3, p=7)
    first = min_norm_search(module, 2)
    real = distance.real_embedding_bounds
    bounded = []

    def recording_bounds(x, reps, prec):
        bounded.append(x)
        return real(x, reps, prec)

    monkeypatch.setattr(distance, "real_embedding_bounds", recording_bounds)
    assert min_norm_search(module, 2) == first
    assert min_norm_search(module, 1).min_abs_norm == first.min_abs_norm
    assert not any(x in module.gamma for x in bounded)


def _with_huge_gamma(good):
    """The module with its last gamma element replaced by
    10^30 gamma_0 + gamma_1, built without the constructor's checks."""
    huge = 10**30 * good.gamma[0] + good.gamma[1]
    return TwistedModule(good.field, (*good.gamma[:-1], huge), good.alpha, good.c,
                         good.construction)


def test_min_norm_search_escalates_a_norm_its_64_bit_enclosures_cannot_pin(monkeypatch):
    # the last gamma element 10^30 gamma_0 + gamma_1: its norm, the first
    # exact one of the walk, has about 90 digits, far past what 64-bit
    # bounds pin, so norm_real reads it off its own bounds at a doubled
    # precision
    module = _with_huge_gamma(get_module("p32", p=7))
    huge = module.gamma[-1]
    real, pinned = fields.real_embedding_bounds, distance._pinned_norm
    precisions, exact = [], []

    def recording_bounds(x, reps, prec):
        precisions.append(prec)
        return real(x, reps, prec)

    def recording_norm(searched, a):
        exact.append((a, pinned(searched, a)))
        return exact[-1][1]

    monkeypatch.setattr(fields, "real_embedding_bounds", recording_bounds)
    monkeypatch.setattr(distance, "_pinned_norm", recording_norm)
    res = min_norm_search(module, 2)
    first, value = exact[0]
    assert first == (0, 0, -1)
    assert value == abs(norm_by_determinant(huge, module.field)) > 1 << 256
    assert max(precisions) > 64
    assert _result(res) == _result(min_norm_search_oracle(module, 2))
    assert _found(res) == _found(min_norm_search_oracle(module, 2, half=True))


def test_min_norm_search_past_the_precision_cap_takes_one_determinant(monkeypatch):
    # with the cap below the first precision, no norm that the module's
    # 64-bit sums leave open is pinned: each such norm is one determinant,
    # and the search still gives the exact minimum
    module = _with_huge_gamma(get_module("p32", p=7))
    module.field.basis  # built (and self-checked) before the count
    det, dets = fields.det_int, []

    def counting_det(rows):
        dets.append(rows)
        return det(rows)

    monkeypatch.setattr(fields, "_SIGN_PRECISION_CAP", 32)
    monkeypatch.setattr(fields, "det_int", counting_det)
    res = min_norm_search(module, 2)
    # the one norm the sums leave open, the 90-digit norm of
    # 10^30 gamma_0 + gamma_1, took one determinant
    assert len(dets) == 1
    assert _result(res) == _result(min_norm_search_oracle(module, 2))
    assert _found(res) == _found(min_norm_search_oracle(module, 2, half=True))


def test_min_norm_search_rejects_a_non_integral_gamma_before_it_walks(monkeypatch):
    # a module built without the constructor's checks: pruning by integral
    # norms would be unsound, so the search refuses it as soon as it starts
    good = get_module("p32", p=7)
    half = (good.gamma[0] * Fraction(1, 2), *good.gamma[1:])
    module = TwistedModule(good.field, half, good.alpha, good.c, good.construction)
    walked = []

    def recording_walk(steps, bound):
        walked.append(bound)
        return iter(())

    monkeypatch.setattr(distance, "_pruning_bounds", recording_walk)
    with pytest.raises(ValueError, match="non-integer coordinates"):
        min_norm_search(module, 1)
    assert walked == []


def test_min_norm_search_of_a_rank_deficient_gamma_ends_at_norm_zero():
    # a module built without the constructor's rank check, gamma_1 =
    # gamma_0 (p31, so no unit ends the scan first): x = gamma_1 - gamma_0
    # is zero, and its enclosures pin no integer at any precision; its
    # norm is 0, as the oracle's determinant says
    good = get_module("p31", r=4)
    module = TwistedModule(good.field, (good.gamma[0], *good.gamma[:-1]), good.alpha, good.c,
                           good.construction)
    res = min_norm_search(module, 1)
    assert _result(res) == _result(min_norm_search_oracle(module, 1)) == (0, (-1, 1, 0, 0), True)
    assert _found(res) == _found(min_norm_search_oracle(module, 1, half=True))


def test_min_norm_search_bounds_only_prune(monkeypatch):
    # 64-bit cosine leaves widened to +-1/4 leave most embedding intervals
    # around zero: far fewer vectors are pruned, no exact norm is pinned
    # at 64 bits, and the result is still the oracle's (p31 r=4 with gamma_0
    # doubled scans the whole box: its minimum is 2, its floor 1).  Only the
    # 64-bit leaves are widened: leaves 1/4 wide at every precision could
    # never pin a norm
    module = doubled_gamma0(get_module("p31", r=4))
    oracle = min_norm_search_oracle(module, 2)
    half = min_norm_search_oracle(module, 2, half=True)
    tight = min_norm_search(module, 2)
    asked = widen_leaves(monkeypatch, {64}, 2)
    loose = min_norm_search(module, 2)
    assert 64 in asked and 128 in asked
    assert _result(loose) == _result(tight) == _result(oracle)
    assert _found(loose) == _found(tight) == _found(half)
    assert tight.determinants < loose.determinants <= loose.evaluated == half.evaluated


# -- the confirmation: a gamma element at the floor, else the box walk --------


def _spy(monkeypatch, name):
    """Record each call of ``distance.<name>`` as (args, result)."""
    calls = []
    real = getattr(distance, name)

    def spying(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(distance, name, spying)
    return calls


# The modules of the CI confirmation step: the five certify modules and the
# two n = 128 rows, each confirmed at box 1 by a gamma element at its floor.
FLOOR_MODULES = CERTIFY_MODULES + (("p32", {"p": 257}), ("p31", {"r": 9}))


def test_p34_r4_p11_is_confirmed_at_box_1_without_a_walk(monkeypatch):
    # gamma_0 is a unit, so 1 is the minimum over every box; the walk of the
    # (3^20 - 1) / 2 vectors of the half box stops at the budget before
    # reaching any vector of norm 1, so the walk alone leaves it unconfirmed
    searches = _spy(monkeypatch, "min_norm_search")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = dp_closed_form(get_module("p34", r=4, p=11), confirm_bound=1)
    assert res.oracle_confirmed and res.min_norm_assumed == 1
    assert searches == []


_CONFIRMATION_MODULES = BATTERY + tuple(
    (code, params) for code, params, _ in ORACLE_CASES if (code, params) not in BATTERY)


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("code,params", _CONFIRMATION_MODULES)
def test_oracle_confirmed_is_the_box_search_confirmation(code, params, bound):
    module = get_module(code, **params)
    confirmed = dp_closed_form(module, confirm_bound=bound).oracle_confirmed
    assert confirmed == confirmed_by_search(module, bound)


@pytest.mark.parametrize("code,params", BATTERY + FLOOR_MODULES)
def test_a_gamma_element_at_the_floor_confirms_without_a_walk(monkeypatch, code, params):
    # a unit for p32, p34 and p37; norm 2, the index, for the p31 ideals,
    # whose closure is tested once
    module = get_module(code, **params)
    searches = _spy(monkeypatch, "min_norm_search")
    closures = _spy(monkeypatch, "is_ideal")
    assert dp_closed_form(module, confirm_bound=1).oracle_confirmed
    assert searches == []
    assert len(closures) == (1 if code == "p31" else 0)


def test_a_norm_equal_to_the_index_is_tested_for_closure_once(monkeypatch):
    # p34 r=3 p=5 with gamma_1 doubled, reordered: index 4, not an ideal,
    # gamma norms 4, 4, 1, 256; the second 4 is not tested again, and the
    # unit gamma_2 is the minimum
    good = get_module("p34", r=3, p=5)
    gamma = good.gamma
    module = TwistedModule(good.field, (gamma[2], gamma[3], gamma[0], 2 * gamma[1]), good.alpha,
                           good.c, good.construction)
    assert module_index(module) == 4
    closures = _spy(monkeypatch, "is_ideal")
    searches = _spy(monkeypatch, "min_norm_search")
    assert distance._box_minimum(module, 1) == 1
    assert [(args, check.is_ideal) for args, check in closures] == [((module,), False)]
    assert searches == []


def _repeated_gamma1(module):
    # gamma_1 replaced by gamma_2: not of full rank, and gamma_0 still a unit
    gamma = module.gamma
    return TwistedModule(module.field, (gamma[0], gamma[2], *gamma[2:]), module.alpha, module.c,
                         module.construction)


@pytest.mark.parametrize("make,bound,minimum", [
    # the floor is 1 (no longer an ideal), and every norm is even
    (lambda: doubled_gamma0(get_module("p31", r=5)), 1, 2),
    (lambda: doubled_gamma0(get_module("p31", r=4)), 2, 2),
    # gamma_0 is a unit, but gamma_2 - gamma_1 = 0 is a box vector too
    (lambda: _repeated_gamma1(get_module("p34", r=3, p=5)), 1, 0),
], ids=["p31-r5-doubled", "p31-r4-doubled", "p34-r3-p5-repeated"])
def test_the_walk_runs_when_no_gamma_element_is_proven_minimal(monkeypatch, make, bound, minimum):
    module = make()
    searches = _spy(monkeypatch, "min_norm_search")
    assert distance._box_minimum(module, bound) == minimum
    assert [(args, found.min_abs_norm) for args, found in searches] == [((module, bound), minimum)]
    searches.clear()
    confirmed = dp_closed_form(module, confirm_bound=bound).oracle_confirmed
    assert len(searches) == 1
    monkeypatch.undo()
    assert confirmed == confirmed_by_search(module, bound) == (minimum == 2)


def test_the_floor_is_read_from_the_module_not_the_registry(monkeypatch):
    # a registry claiming minimum norm 2 for p32 p=7 is refuted by its unit
    real = distance.lookup

    def claiming_two(construction, given):
        spec, q, dims = real(construction, given)
        return spec._replace(min_norm=2), q, dims

    monkeypatch.setattr(distance, "lookup", claiming_two)
    res = dp_closed_form(get_module("p32", p=7), confirm_bound=2)
    assert res.min_norm_assumed == 2 and not res.oracle_confirmed


def test_the_confirmation_checks_before_it_computes_a_norm(monkeypatch):
    # the search's own checks: a box of at least 1, and an integral gamma
    good = get_module("p32", p=7)
    half = TwistedModule(good.field, (good.gamma[0] * Fraction(1, 2), *good.gamma[1:]),
                         good.alpha, good.c, good.construction)
    norms = _spy(monkeypatch, "_pinned_norm")
    with pytest.raises(ValueError, match="coeff_bound must be >= 1"):
        dp_closed_form(good, confirm_bound=0)
    with pytest.raises(ValueError, match="non-integer coordinates"):
        dp_closed_form(half, confirm_bound=1)
    assert norms == []


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


def test_table_row_dimension_guard(monkeypatch):
    import rotlat.distance
    from rotlat.distance import TableRow, table1 as build_table

    # that pair generates dimension 6
    monkeypatch.setattr(rotlat.distance, "TABLE_ROWS", (TableRow(12, r1=3, p1=7),))
    with pytest.raises(ValueError):
        build_table()

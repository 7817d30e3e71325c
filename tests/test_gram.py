import json
import sys
from fractions import Fraction

import mpmath
import pytest

import rotlat.fields

from rotlat import (
    CycloElt,
    GramMatrix,
    TwistedModule,
    det_exact,
    det_via_formula,
    embedding_csv,
    embedding_reps,
    gram,
    make_field,
    module_index,
    norm_real,
    real_embedding_bounds,
    subfield_degrees,
)
from rotlat.gram import embedding_enclosure_rows
from helpers import (BATTERY, CERTIFY_MODULES, Enclosure, big_constant_twist,
                     embedding_csv_oracle, embedding_matrix, enclosure_rows_oracle,
                     enclosure_rows_oracle_at, get_module, gram_json, norm_by_determinant,
                     widen_leaves)


def _scaled(module):
    """The Gram matrix of the scaled lattice: G / c."""
    g = gram(module)
    return GramMatrix(g.num, g.den * module.c)


def test_gram_integral_basis_pow2_alpha_one():
    K = make_field("pow2", r=3)
    amb = TwistedModule(K, K.basis, CycloElt.one(8), 1, "ambient")
    g = gram(amb)
    assert (g.num, g.den) == (((2, 0), (0, 4)), 1)


def test_gram_requires_symmetry_and_positivity():
    with pytest.raises(ValueError):
        GramMatrix(((1, 2), (3, 1)))
    with pytest.raises(ValueError):
        GramMatrix(((1, 2), (2, 1)))


def test_gram_is_integer_numerators_over_one_denominator_in_lowest_terms():
    G = GramMatrix(((4, 2), (2, 4)), 6)
    assert (G.num, G.den, G.minors) == (((2, 1), (1, 2)), 3, (2, 3))
    H = GramMatrix(((2, 1), (1, 2)), 3)
    assert H == G and hash(H) == hash(G)
    assert H != GramMatrix(((2, 1), (1, 2))) and GramMatrix(((6, 3), (3, 6)), 3).den == 1
    assert det_exact(G) == Fraction(1, 3)
    for bad in ((((1, 0), (0, 1)), 0), (((Fraction(1, 2), 0), (0, 1)), 1)):
        with pytest.raises((ValueError, TypeError)):
            GramMatrix(*bad)


def _p34_expected_diag(r, p, n2, i, j, doubled):
    n1 = 2 ** (r - 2)
    if doubled:
        return 8 * n1 * p
    if i != 0 and j != n2:
        return 8 * n1 * p
    return 4 * n1 * p


@pytest.mark.parametrize("r,p", [(3, 5), (4, 5), (3, 7)])
def test_p34_gram_diagonal_piecewise(r, p):
    m = get_module("p34", r=r, p=p)
    n1, n2 = subfield_degrees(m.field)
    G = gram(m)
    assert G.den == 1
    pos = 0
    for i in range(n1):
        for j in range(1, n2 + 1):
            doubled = i == 0 and j == n2
            assert G.num[pos][pos] == _p34_expected_diag(r, p, n2, i, j, doubled)
            pos += 1


def test_p37_gram_diagonal_piecewise():
    # undoubled traces are p1*p2 (both end indices), 2*p1*p2 (one end index)
    # or 4*p1*p2 (neither); doubling the last vector turns p1*p2 into 4*p1*p2
    m = get_module("p37", p1=5, p2=7)
    n1, n2 = subfield_degrees(m.field)
    G = gram(m)
    assert G.den == 1
    pos = 0
    for i in range(1, n1 + 1):
        for j in range(1, n2 + 1):
            if i == n1 and j == n2:
                expected = 4 * (5 * 7)  # doubled vector
            elif i != n1 and j != n2:
                expected = 4 * 5 * 7
            else:
                expected = 2 * 5 * 7
            assert G.num[pos][pos] == expected
            assert G.num[pos][pos] in (2 * 5 * 7, 4 * 5 * 7)
            pos += 1


def test_det_examples():
    m = get_module("p34", r=3, p=5)
    assert det_exact(gram(m)) == 4 * 20**4
    assert det_exact(_scaled(m)) == 4
    assert det_exact(GramMatrix(((1, 0), (0, 1)))) == 1


def test_det_via_formula_examples():
    m = get_module("p34", r=3, p=5)
    assert det_via_formula(m) == 2**2 * (2**2 * 5**2) * 1600 == 640000
    K = make_field("pow2", r=3)
    amb = TwistedModule(K, K.basis, CycloElt.one(8), 1, "ambient")
    assert det_via_formula(amb) == K.disc
    m37 = get_module("p37", p1=5, p2=7)
    assert det_via_formula(m37) == 4 * 35**6


@pytest.mark.parametrize("code,params", BATTERY)
def test_det_identity_battery(code, params):
    m = get_module(code, **params)
    assert det_exact(gram(m)) == det_via_formula(m)


def _formula_calls(monkeypatch, module):
    """det_via_formula of the module, with the determinants, coordinate
    solves and cyclotomic products it makes, past the module's cached index
    and its field's basis."""
    module_index(module)
    module.field.basis
    calls = {"det_int": 0, "integer_coords": 0, "__mul__": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(rotlat.fields, "det_int")
    counted(rotlat.fields, "integer_coords")
    counted(CycloElt, "__mul__")
    det = det_via_formula(module)
    monkeypatch.undo()
    return det, calls


@pytest.mark.parametrize("code,params", BATTERY + CERTIFY_MODULES + (("p32", {"p": 257}),))
def test_det_via_formula_pins_the_norm_without_products_or_solves(monkeypatch, code, params):
    module = get_module(code, **params)
    det, calls = _formula_calls(monkeypatch, module)
    assert calls == {"det_int": 0, "integer_coords": 0, "__mul__": 0}
    assert det == module_index(module) ** 2 * norm_by_determinant(module.alpha, module.field) \
        * module.field.disc


def test_det_via_formula_of_a_long_twist_takes_one_determinant(monkeypatch):
    # the 4,001-digit twist is not pinned by the precision cap: its norm is
    # the one determinant of the multiplication matrix
    module = big_constant_twist(get_module("p32", p=7))
    det, calls = _formula_calls(monkeypatch, module)
    assert calls["det_int"] == 1
    assert det == module_index(module) ** 2 * norm_by_determinant(module.alpha, module.field) \
        * module.field.disc


@pytest.mark.parametrize("code,params", BATTERY)
def test_scaled_gram_integral_even_diagonal(code, params):
    m = get_module(code, **params)
    gs = _scaled(m)
    assert gs.den == 1
    assert all(gs.num[i][i] % 2 == 0 for i in range(gs.n))


def test_embedding_rows_closed_form():
    K = make_field("pow2", r=3)
    amb = TwistedModule(K, K.basis, CycloElt.one(8), 1, "ambient")
    M = embedding_matrix(amb, 64)
    assert [round(float(x), 10) for x in M[0]] == [1.0, 1.0]
    root2 = 2**0.5
    assert abs(float(M[1][0]) - root2) < 1e-12
    assert abs(float(M[1][1]) + root2) < 1e-12


@pytest.mark.parametrize("code,params", [("p34", {"r": 3, "p": 5}), ("p32", {"p": 7})])
def test_embedding_matches_gram(code, params):
    precision = 96
    m = get_module(code, **params)
    M = embedding_matrix(m, precision)
    gs = _scaled(m)
    with mpmath.workprec(precision):
        tol = mpmath.mpf(2) ** (-precision // 2)
        for i in range(m.field.n):
            for j in range(m.field.n):
                approx = mpmath.fsum(M[i][k] * M[j][k] for k in range(m.field.n))
                exact = mpmath.mpf(gs.num[i][j]) / gs.den
                scale = max(1, abs(exact))
                assert abs(approx - exact) <= tol * scale


def test_embedding_row_product_distance():
    # the coordinate product of row i equals sqrt(norm(alpha)) * |norm(gamma_i)| / c^(n/2)
    precision = 96
    m = get_module("p32", p=7)
    M = embedding_matrix(m, precision)
    n = m.field.n
    with mpmath.workprec(precision):
        for i in range(n):
            prod = mpmath.mpf(1)
            for k in range(n):
                prod *= abs(M[i][k])
            n_alpha = norm_real(m.alpha, m.field)
            n_gamma = abs(norm_real(m.gamma[i], m.field))
            expected = (
                mpmath.sqrt(mpmath.mpf(n_alpha.numerator) / n_alpha.denominator)
                * mpmath.mpf(n_gamma.numerator) / n_gamma.denominator
                / mpmath.mpf(m.c) ** (mpmath.mpf(n) / 2)
            )
            assert abs(prod - expected) < mpmath.mpf(2) ** (-precision // 2) * max(1, expected)


def test_embedding_csv_header_and_determinism():
    m = get_module("p32", p=7)
    text1 = embedding_csv(m, 64)
    text2 = embedding_csv(m, 64)
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == "# precision_bits=64"
    assert len(lines) == 1 + m.field.n


def test_gram_json_decimal_strings():
    m = get_module("p34", r=3, p=5)
    obj = json.loads(gram_json(gram(m)))
    assert obj["scale_applied"] == "1"
    assert obj["entries"][0][0] == "40"  # 2 in the lattice scaled by 1/c = 1/20
    assert json.loads(gram_json(GramMatrix(((2, 1), (1, 2)), 3)))["entries"][0] == ["2/3", "1/3"]
    assert all(isinstance(s, str) for row in obj["entries"] for s in row)


def _cells(rows):
    """Integer (lo, hi) pairs over each row's one denominator, as enclosures."""
    return [[Enclosure(Fraction(lo, den), Fraction(hi, den)) for lo, hi in row]
            for row, den in rows]


@pytest.mark.parametrize("code,params", BATTERY)
def test_embedding_rows_equal_enclosure_arithmetic(code, params):
    module = get_module(code, **params)
    rows = embedding_enclosure_rows(module, 128)
    assert all(den > 0 for _, den in rows)
    assert _cells(rows) == enclosure_rows_oracle(module, 128)


def test_embedding_rows_escalate_past_wide_leaves(monkeypatch):
    # no real module escalates at 8..256 bits, so the first working
    # precision is made too wide: alpha stays positive, the entries do not
    # meet the target, and the rows come from the doubled precision
    module = get_module("p32", p=7)
    precision = 64
    first = precision + 16
    asked = widen_leaves(monkeypatch, {first}, 40)
    rows = embedding_enclosure_rows(module, precision)
    assert sorted(set(asked)) == [first, 2 * first]
    alpha, _ = real_embedding_bounds(module.alpha, embedding_reps(module.field), first)
    assert all(lo > 0 for lo, _ in alpha)
    assert enclosure_rows_oracle_at(module, first, precision) is None
    assert _cells(rows) == enclosure_rows_oracle_at(module, 2 * first, precision)


def test_embedding_rows_precision_cap_still_raises(monkeypatch):
    module = get_module("p32", p=7)
    asked = widen_leaves(monkeypatch, None, 40)
    # a first working precision (precision + 16) above the cap fails before any leaf
    with pytest.raises(ValueError, match="precision 16369 is above the maximum of 16368 bits"):
        embedding_enclosure_rows(module, 16369)
    assert asked == []
    with pytest.raises(RuntimeError, match="requested precision unreachable"):
        embedding_enclosure_rows(module, 64)
    assert max(asked) >= 1 << 14


# -- the embed CSV against the mpf route -------------------------------------


@pytest.mark.parametrize("code,params", BATTERY)
def test_embedding_csv_matches_the_mpf_route(code, params):
    module = get_module(code, **params)
    for precision in (8, 77, 300):
        assert embedding_csv(module, precision) == embedding_csv_oracle(module, precision)


def test_embedding_csv_matches_the_mpf_route_at_the_maximum_precision():
    # 4,930 digits a cell: past CPython's 4,300-digit int-to-str limit
    module = get_module("p31", r=3)
    text = embedding_csv(module, 16368)
    assert text == embedding_csv_oracle(module, 16368)
    assert max(len(cell) for cell in text.replace("\n", ",").split(",")) > 4300


def test_embedding_csv_writes_cells_without_mpmath(monkeypatch):
    # neither the leaves (computed afresh here) nor a single digit needs
    # mpmath; the text is the mpf route's once mpmath is back
    module = get_module("p32", p=7)
    monkeypatch.setitem(sys.modules, "mpmath", None)
    with pytest.raises(ImportError):
        import mpmath  # noqa: F401
    sys.modules["rotlat.gram"]._embed_cos_table.cache_clear()
    text = embedding_csv(module, 96)
    monkeypatch.undo()
    assert text == embedding_csv_oracle(module, 96)

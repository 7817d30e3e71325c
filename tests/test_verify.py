import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotlat import (
    CycloElt,
    GramMatrix,
    TwistedModule,
    det_exact,
    gram,
    lll_reduce,
    make_field,
    verify_ambient_zn,
    verify_rotated_dn,
)
from rotlat.linalg import det_int, gram_schmidt, identity_matrix
from rotlat.verify import _swap
from helpers import BATTERY, get_module, mat_mul, trace_by_form, transpose


def _gram(rows, den=1):
    return GramMatrix(tuple(map(tuple, rows)), den)


def _scaled(g, q):
    """The Gram matrix g * q."""
    return GramMatrix(tuple(tuple(e * q.numerator for e in row) for row in g.num),
                      g.den * q.denominator)


def _rational_gso(g):
    """Gram-Schmidt coefficients mu and squared norms B of a rational Gram
    matrix, in Fractions: the oracle for the integral LLL's conditions."""
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            s = g[i][j] - sum(mu[j][t] * mu[i][t] * norms[t] for t in range(j))
            mu[i][j] = s / norms[j]
        norms.append(g[i][i] - sum(mu[i][t] ** 2 * norms[t] for t in range(i)))
    return mu, norms


def test_lll_identity_fixed_point():
    G = _gram([[1, 0], [0, 1]])
    red, T = lll_reduce(G)
    assert red == G
    assert T == ((1, 0), (0, 1))


def test_lll_already_reduced_hexagonal():
    G = _gram([[2, 1], [1, 2]])
    red, T = lll_reduce(G)
    # reduced up to sign convention; diagonal and determinant preserved
    assert red in (G, _gram([[2, -1], [-1, 2]]))
    assert abs(det_int([list(r) for r in T])) == 1


def test_lll_unimodular_frame_reaches_identity():
    G = _gram([[5, 3], [3, 2]])
    red, T = lll_reduce(G)
    assert red == _gram([[1, 0], [0, 1]])


def test_lll_certificate_rejects_a_corrupted_transform(monkeypatch):
    import rotlat.verify as verify_mod

    def lam_only(t, d, lam, k):
        # the (d, lam) update of _swap, without exchanging the rows of T
        _swap(list(t), d, lam, k)

    monkeypatch.setattr(verify_mod, "_swap", lam_only)
    with pytest.raises(RuntimeError, match="certificate check"):
        lll_reduce(_gram([[5, 3], [3, 2]]))
    with pytest.raises(RuntimeError, match="certificate check"):
        lll_reduce(_gram([[25, 20], [20, 21]], 15))  # [[5/3, 4/3], [4/3, 7/5]]


rand_basis = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).filter(lambda rows: det_int(rows) != 0)
)


@given(rand_basis)
@settings(max_examples=60, deadline=None)
def test_lll_certificate_and_conditions(rows):
    gram_rows = mat_mul(rows, transpose(rows))
    G = _gram(gram_rows)
    red, T = lll_reduce(G)
    # exact certificate
    t_rows = [list(r) for r in T]
    product = mat_mul(mat_mul(t_rows, gram_rows), transpose(t_rows))
    assert red == _gram(product)
    assert abs(det_int(t_rows)) == 1
    # size-reduction and Lovasz conditions hold for the output
    mu, norms = _rational_gso([[Fraction(e) for e in row] for row in product])
    n = len(norms)
    for i in range(n):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
    for k in range(1, n):
        assert norms[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * norms[k - 1]


@given(rand_basis)
@settings(max_examples=30, deadline=None)
def test_lll_leaves_its_input_untouched(rows):
    # the loop starts from copies of the input's (d, lam): a second run on
    # the same GramMatrix sees the same data and gives the same result
    G = _gram(mat_mul(rows, transpose(rows)))
    minors, lam = G.minors, G.lam
    first = lll_reduce(G)
    assert lll_reduce(G) == first
    assert (G.minors, G.lam) == (minors, lam)
    d, gs_lam = gram_schmidt([list(r) for r in G.num])
    assert (minors, lam) == (tuple(d[1:]), tuple(map(tuple, gs_lam)))


@given(rand_basis)
@settings(max_examples=60, deadline=None)
def test_swap_matches_the_kernel_on_the_swapped_gram(rows):
    g = mat_mul(rows, transpose(rows))
    n = len(g)
    for k in range(1, n):
        d, lam = gram_schmidt(g)
        t = identity_matrix(n)
        _swap(t, d, lam, k)
        order = list(range(n))
        order[k - 1], order[k] = k, k - 1
        assert (d, lam) == gram_schmidt([[g[i][j] for j in order] for i in order])
        assert t == [identity_matrix(n)[i] for i in order]


@given(rand_basis, st.integers(min_value=2, max_value=7), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lll_transform_is_scale_invariant(rows, k, invert):
    # every LLL decision is homogeneous in the Gram matrix, so the integer
    # numerators of G and of G * q lead to the same transform
    G = _gram(mat_mul(rows, transpose(rows)))
    q = Fraction(1, k) if invert else Fraction(k)
    red, T = lll_reduce(G)
    red_q, T_q = lll_reduce(_scaled(G, q))
    assert T_q == T
    assert red_q == _scaled(red, q)


@pytest.mark.parametrize(
    "family,params,alpha_of,c",
    [
        ("comp-pow2-odd", {"r": 3, "p": 5}, None, 20),
        ("odd-prime", {"p": 7}, None, 7),
    ],
)
def test_verify_ambient_zn_true_cases(family, params, alpha_of, c):
    K = make_field(family, **params)
    if family == "comp-pow2-odd":
        e1 = CycloElt.zeta_pair(2 ** params["r"], 1).lift(K.m)
        b1 = CycloElt.zeta_pair(params["p"], 1).lift(K.m)
        alpha = (2 - e1) * (2 - b1)
    else:
        alpha = 2 - K.basis[0]
    ok, T = verify_ambient_zn(K, alpha, c)
    assert ok and T is not None


def test_verify_ambient_identity_input():
    # alpha = 1 over the power-of-two field at c = 1 is not unimodular, so scale
    # by hand: the r=3 integral basis with alpha = 2 + e1, c = 4 is the ambient
    K = make_field("pow2", r=3)
    alpha = 2 + K.basis[1]
    ok, T = verify_ambient_zn(K, alpha, 4)
    assert ok
    # certificate: T G T^t = I exactly
    rows = [
        [trace_by_form(alpha * wi * wj) / K.codegree / 4 for wj in K.basis]
        for wi in K.basis
    ]
    t_rows = [list(r) for r in T]
    prod = mat_mul(mat_mul(t_rows, rows), transpose(t_rows))
    assert prod == [[1, 0], [0, 1]]


@pytest.mark.parametrize("code,params", BATTERY)
def test_verify_battery(code, params):
    report = verify_rotated_dn(get_module(code, **params))
    assert report.verdict
    assert all(v for _, v in report.checks)
    assert report.transform is not None


@pytest.mark.parametrize("code,params", [("p32", {"p": 257}), ("p31", {"r": 9})])
def test_verify_certifies_the_n128_rows(code, params):
    report = verify_rotated_dn(get_module(code, **params))
    assert report.verdict
    assert all(v for _, v in report.checks)


@pytest.mark.parametrize("c", [1, 4, 20, 40, 60])
def test_module_checks_match_the_scaled_gram(c):
    # verify reads G / c from the numerators, denominator and minors of G;
    # the scaled GramMatrix is the oracle (c = 20 is the module's own scale)
    m = get_module("p34", r=3, p=5)
    report = verify_rotated_dn(TwistedModule(m.field, m.gamma, m.alpha, c, m.construction))
    scaled = _scaled(gram(m), Fraction(1, c))
    integral = scaled.den == 1
    checks = dict(report.checks)
    assert checks["integral"] == integral
    even = integral and all(scaled.num[i][i] % 2 == 0 for i in range(scaled.n))
    assert checks["even"] == even
    assert checks["det_is_4"] == (det_exact(scaled) == 4)


def test_verify_ambient_false_when_not_unimodular():
    # untwisted trace form of the r=3 field has determinant 8, so no basis
    # change reaches the identity; the check reports false, not an error
    K = make_field("pow2", r=3)
    ok, T = verify_ambient_zn(K, CycloElt.one(8), 1)
    assert not ok and T is None


def test_lll_single_dimension():
    G = _gram([[5]])
    red, T = lll_reduce(G)
    assert red == G and T == ((1,),)


def test_verify_ambient_module_fails_index_and_det():
    m = get_module("p34", r=3, p=5)
    K = m.field
    ambient = TwistedModule(K, K.basis, m.alpha, m.c, "ambient")
    report = verify_rotated_dn(ambient)
    checks = dict(report.checks)
    assert checks["ambient_is_zn"]
    assert not checks["det_is_4"]
    assert not checks["index_is_2"]
    assert not report.verdict


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_even_diagonal_forces_even_norms(vec):
    # with an integral Gram and even diagonal, every vector norm is even
    m = get_module("p34", r=3, p=5)
    gs = _scaled(gram(m), Fraction(1, m.c))
    assert gs.den == 1
    total = sum(
        gs.num[i][j] * vec[i] * vec[j]
        for i in range(4)
        for j in range(4)
    )
    assert total % 2 == 0


def test_report_json_shape():
    rep = verify_rotated_dn(get_module("p32", p=7))
    obj = json.loads(json.dumps(rep.to_json()))
    assert set(obj) == {"checks", "verdict", "transform"}
    assert set(obj["checks"]) == {"ambient_is_zn", "integral", "even", "det_is_4", "index_is_2"}
    assert obj["verdict"] is True
    assert isinstance(obj["transform"], list)

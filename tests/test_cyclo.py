import cmath
import math
import sys
from fractions import Fraction

import mpmath

import pytest
from hypothesis import given, settings, strategies as st

from rotlat.cyclo import (
    CycloElt,
    _cos_table,
    cyclotomic_polynomial,
    real_embedding_bounds,
    trace_form,
)
from rotlat.numtheory import euler_phi, mobius
from helpers import (Enclosure, cos_enclosures, cyclotomic_polynomial_oracle, embedding_enclosures,
                     embedding_enclosures_oracle, mult_matrix_abs, norm_abs, python_backend_only,
                     trace_by_form, trace_via_mult_matrix)


def eval_complex(x: CycloElt) -> complex:
    """Numeric oracle: evaluate at zeta_m = exp(2*pi*i/m)."""
    z = cmath.exp(2j * cmath.pi / x.m)
    return sum(float(c) * z**k for k, c in enumerate(x.coeffs))


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("m", [5, 8, 12, 35, 40, 56])
def test_cyclotomic_polynomial_kills_primitive_root(m):
    z = cmath.exp(2j * cmath.pi / m)
    val = sum(c * z**k for k, c in enumerate(cyclotomic_polynomial(m)))
    assert abs(val) < 1e-9
    assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_cyclotomic_polynomial_matches_the_division_oracle():
    for m in (*range(1, 2001), 2310, 4096):
        assert cyclotomic_polynomial(m) == cyclotomic_polynomial_oracle(m), m


def test_cyclotomic_polynomial_refuses_a_remainder(monkeypatch):
    # with mu negated the product is 1/Phi_12, so a division must leave a remainder
    import rotlat.cyclo

    monkeypatch.setattr(rotlat.cyclo, "mobius", lambda n: -mobius(n))
    with pytest.raises(ArithmeticError, match="remainder"):
        cyclotomic_polynomial.__wrapped__(12)


def test_lift_identity_and_zeta():
    assert CycloElt.one(5).lift(40) == CycloElt.one(40)
    assert CycloElt.zeta(5).lift(40) == CycloElt.zeta(40, 8)


def test_lift_reduced_pair():
    x = CycloElt.zeta_pair(7, 1)
    lifted = x.lift(56)
    assert lifted == CycloElt.zeta(56, 8) + CycloElt.zeta(56, 48)
    # numeric oracle: the lift must agree at corresponding roots of unity
    expected = cmath.exp(2j * cmath.pi / 7) + cmath.exp(-2j * cmath.pi / 7)
    assert abs(eval_complex(lifted) - expected) < 1e-9


def test_lift_rejects_non_multiple():
    with pytest.raises(ValueError):
        CycloElt.zeta(5).lift(12)


def test_mul_root_of_unity_relation():
    assert CycloElt.zeta(8) * CycloElt.zeta(8, 3) == CycloElt.rational(8, -1)


def test_mul_pair_expansion():
    e1 = CycloElt.zeta_pair(16, 1)
    e2 = CycloElt.zeta_pair(16, 2)
    assert e1 * e1 == e2 + 2


def test_mul_identity_and_mismatch():
    x = CycloElt.zeta_pair(16, 3)
    assert x * CycloElt.one(16) == x
    with pytest.raises(ValueError):
        x * CycloElt.one(8)
    with pytest.raises(ValueError):
        x + CycloElt.one(8)


def test_trace_values():
    assert trace_by_form(CycloElt.one(7)) == 6
    assert trace_by_form(CycloElt.zeta(7)) == -1
    assert trace_by_form(CycloElt.zeta(8)) == 0
    assert trace_via_mult_matrix(CycloElt.zeta(7)) == -1
    assert trace_via_mult_matrix(CycloElt.zeta(8)) == 0


def _elements(m, max_den=1):
    phi = euler_phi(m)
    coeff = st.fractions(
        min_value=-9, max_value=9, max_denominator=max_den
    ) if max_den > 1 else st.integers(min_value=-9, max_value=9)
    return st.lists(coeff, min_size=phi, max_size=phi).map(
        lambda cs: CycloElt.from_coeffs(m, [Fraction(c) for c in cs])
    )


@given(_elements(35))
@settings(max_examples=40, deadline=None)
def test_trace_formula_equals_operator_trace(x):
    assert trace_by_form(x) == trace_via_mult_matrix(x)


@given(_elements(40))
@settings(max_examples=40, deadline=None)
def test_trace_formula_equals_operator_trace_pow2odd(x):
    assert trace_by_form(x) == trace_via_mult_matrix(x)


def _element_lists(m):
    return st.lists(_elements(m, max_den=6), min_size=1, max_size=3)


@given(st.sampled_from((8, 15, 20, 35, 44, 77)).flatmap(
    lambda m: st.tuples(_element_lists(m), st.none() | _elements(m, max_den=6))))
@settings(max_examples=30, deadline=None)
def test_trace_form_equals_product_traces(case):
    xs, twist = case
    rows, den = trace_form(xs, twist)
    assert den > 0
    assert len(rows) == len(xs) and all(len(row) == len(xs) for row in rows)
    assert rows == [list(col) for col in zip(*rows)]
    for x, row in zip(xs, rows):
        for y, entry in zip(xs, row):
            product = x * y if twist is None else twist * x * y
            assert Fraction(entry, den) == trace_via_mult_matrix(product)


def test_trace_form_rejects_mixed_conductors():
    with pytest.raises(ValueError):
        trace_form([CycloElt.one(8), CycloElt.one(12)])
    with pytest.raises(ValueError):
        trace_form([CycloElt.one(8)], CycloElt.one(12))
    rows, _ = trace_form([CycloElt.one(8), CycloElt.zeta_pair(8, 1)])
    assert rows == [list(col) for col in zip(*rows)]


@given(_elements(16), _elements(16))
@settings(max_examples=40, deadline=None)
def test_norm_abs_multiplicative(x, y):
    assert norm_abs(x * y) == norm_abs(x) * norm_abs(y)


@given(_elements(13), _elements(13), st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
@settings(max_examples=40, deadline=None)
def test_trace_linearity(x, y, a, b):
    assert trace_by_form(a * x + b * y) == a * trace_by_form(x) + b * trace_by_form(y)


@given(_elements(20))
@settings(max_examples=30, deadline=None)
def test_galois_is_ring_automorphism(x):
    s = 3  # invertible mod 20
    y = CycloElt.zeta_pair(20, 7)
    assert (x * y).galois(s) == x.galois(s) * y.galois(s)
    assert (x + y).galois(s) == x.galois(s) + y.galois(s)


def test_mult_matrix_is_multiplication():
    x = CycloElt.zeta_pair(12, 1) + 3
    rows = mult_matrix_abs(x)
    for j in range(euler_phi(12)):
        assert tuple(rows[j]) == (x * CycloElt.zeta(12, j)).coeffs


def test_serialization_round_trip():
    for x in (CycloElt.from_coeffs(12, [Fraction(3, 2), -1, 0, Fraction(7, 5)]),
              CycloElt.from_coeffs(12, [-12, 0, 7, 1])):
        obj = x.to_json()
        assert obj == {"m": 12, "coeffs": [str(c) for c in x.coeffs]}
        assert CycloElt.from_json(obj) == x


# -- the integer format: numerators over one denominator, in lowest terms --


def _oracle_reduce(coeffs, m):
    """Dense Fraction reduction modulo Phi_m, independent of the module's."""
    poly = cyclotomic_polynomial(m)
    deg = len(poly) - 1
    c = [Fraction(x) for x in coeffs] + [Fraction(0)] * deg
    for i in range(len(c) - 1, deg - 1, -1):
        t, c[i] = c[i], Fraction(0)
        for j in range(deg):
            c[i - deg + j] -= t * poly[j]
    return tuple(c[:deg])


def _oracle_mul(a, b, m):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _oracle_reduce(out, m)


def _oracle_spread(a, target, step):
    out = [Fraction(0)] * target
    for j, c in enumerate(a):
        out[j * step % target] += c
    return _oracle_reduce(out, target)


def _is_canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


def _format_case(m):
    phi = euler_phi(m)
    coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                      min_size=phi, max_size=phi)
    units = [s for s in range(1, m) if math.gcd(s, m) == 1]
    return st.tuples(st.just(m), coeffs, coeffs, st.sampled_from(units), st.integers(1, 3))


@given(st.sampled_from((8, 15, 20, 35, 44, 77)).flatmap(_format_case))
@settings(max_examples=40, deadline=None)
def test_integer_format_matches_fraction_oracle(case):
    m, a, b, s, k = case
    x, y = CycloElt.from_coeffs(m, a), CycloElt.from_coeffs(m, b)
    assert x.coeffs == tuple(a) and y.coeffs == tuple(b)
    results = (
        (x * y, _oracle_mul(a, b, m)),
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (x.galois(s), _oracle_spread(a, m, s)),
        (x.lift(k * m), _oracle_spread(a, k * m, k)),
    )
    for got, expected in results:
        assert got.coeffs == expected
        assert _is_canonical(got)
    assert _is_canonical(x) and _is_canonical(y)


@given(_elements(20, max_den=6), _elements(20, max_den=6))
@settings(max_examples=40, deadline=None)
def test_equal_values_hash_equal(x, y):
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)
    assert (x * 2) * Fraction(1, 2) == x and hash((x * 2) * Fraction(1, 2)) == hash(x)


def test_from_json_reduces_to_lowest_terms():
    halves = CycloElt.from_json({"m": 8, "coeffs": ["2/4", "0", "-3/6", "4/2"]})
    assert halves == CycloElt.from_coeffs(8, [Fraction(1, 2), 0, Fraction(-1, 2), 2])
    assert (halves.num, halves.den) == ((1, 0, -1, 4), 2)


@pytest.mark.parametrize("coeff", ["0.5", " 1 ", " 5", "5\n", "1_0", "1e9999999", "+1", "1/-2",
                                   "1/2/3", "1/", "-", "", "\u0661", True, 1.0, None])
def test_from_json_takes_only_the_coefficient_forms_to_json_writes(coeff):
    with pytest.raises(ValueError, match="integer or 'a/b' string coeffs"):
        CycloElt.from_json({"m": 8, "coeffs": ["0", coeff, "0", "0"]})
    assert CycloElt.from_json({"m": 8, "coeffs": ["-7/3", 5, "007", "-0"]}).coeffs == (
        Fraction(-7, 3), 5, 7, 0)


def test_from_json_zero_denominator_is_malformed():
    with pytest.raises(ValueError, match="^malformed element: "):
        CycloElt.from_json({"m": 8, "coeffs": ["0", "1/0", "0", "0"]})


def test_constructor_is_canonical_and_rejects_bad_denominators():
    assert CycloElt(8, (2, 0, 0, 0), 2) == CycloElt.one(8)
    assert hash(CycloElt(8, (2, 0, 0, 0), 2)) == hash(CycloElt.one(8))
    assert CycloElt(8, (0, 0, 0, 0), 5) == CycloElt.zero(8)
    for den in (0, -1):
        with pytest.raises(ValueError):
            CycloElt(8, (1, 0, 0, 0), den)


def test_enclosure_arithmetic_exact():
    a = Enclosure(Fraction(1, 3), Fraction(1, 2))
    b = Enclosure(Fraction(-2), Fraction(3))
    assert (a + b).lo == Fraction(1, 3) - 2
    assert (a * b).contains(Fraction(1))
    assert a.scale(-2).lo == -1
    assert a.reciprocal().contains(Fraction(5, 2))
    with pytest.raises(ValueError):
        b.reciprocal()


def test_enclosure_sqrt_outward():
    e = Enclosure(Fraction(2), Fraction(2)).sqrt(100)
    assert e.lo**2 <= 2 <= e.hi**2
    assert e.width < Fraction(1, 2**90)


def test_cos_enclosures_contain_and_shrink():
    coarse = cos_enclosures(7, 40)
    fine = cos_enclosures(7, 160)
    for t in range(7):
        true = math.cos(2 * math.pi * t / 7)
        assert coarse[t].lo <= true + 1e-12 and true - 1e-12 <= coarse[t].hi
        assert fine[t].width < coarse[t].width or coarse[t].width == 0


def test_real_embedding_enclosures_width_shrinks():
    x = CycloElt.zeta_pair(16, 1) + CycloElt.zeta_pair(16, 3)
    w1 = embedding_enclosures(x, (1, 3, 5, 7), 48)
    w2 = embedding_enclosures(x, (1, 3, 5, 7), 192)
    assert all(b.width < a.width for a, b in zip(w1, w2))


@python_backend_only
def test_cos_leaves_are_the_directed_rounding_endpoints():
    # the embed's leaves: one power-of-two denominator, the same values as
    # mpmath.iv gives
    old, mpmath.iv.prec = mpmath.iv.prec, 40
    try:
        expected = [mpmath.iv.cos(2 * mpmath.iv.pi * t / 7)._mpi_ for t in range(7)]
    finally:
        mpmath.iv.prec = old
    for ends, got in zip(expected, cos_enclosures(7, 40, embed=True)):
        lo, hi = (Fraction((-1) ** sign * man) * Fraction(2) ** exp for sign, man, exp, _ in ends)
        assert (got.lo, got.hi) == (lo, hi)


@python_backend_only
@pytest.mark.parametrize("m", [4, 7, 8, 20, 77, 2048])
@pytest.mark.parametrize("prec", [8, 40, 144])
def test_embed_cos_leaves_round_outward_past_prec_plus_32(m, prec):
    # when 4 | m the enclosure of cos(pi/2) = 0 reaches about 2^-2prec;
    # the leaves stop at 2^-(prec+32), each mpmath endpoint rounded
    # outward, and a table without such an endpoint is exact
    old, mpmath.iv.prec = mpmath.iv.prec, prec
    try:
        expected = [mpmath.iv.cos(2 * mpmath.iv.pi * t / m)._mpi_ for t in range(m)]
    finally:
        mpmath.iv.prec = old
    ends = [tuple(Fraction((-1) ** sign * man) * Fraction(2) ** exp for sign, man, exp, _ in pair)
            for pair in expected]
    shift, lo, hi = sys.modules["rotlat.gram"]._embed_cos_table(m, prec)
    full = max(Fraction(e).denominator.bit_length() - 1 for pair in ends for e in pair)
    assert shift == min(full, prec + 32)
    assert (full > prec + 32) == (m % 4 == 0 and prec > 8)
    scale = 1 << shift
    for (a, b), low, high in zip(ends, lo, hi):
        assert (low, high) == (math.floor(a * scale), math.ceil(b * scale))


@pytest.mark.parametrize("m, prec", [
    *((m, prec) for m in (1, 2, 3, 4, 7, 8, 15, 16, 20, 77, 257, 2048)
      for prec in (8, 16, 64, 144, 1024)),
    (16, 8192),  # the total-positivity precision cap
])
def test_integer_cos_leaves_enclose_and_mirror(m, prec):
    # each leaf holds cos(2*pi*t/m) as mpmath gives it at 4*prec + 64 bits
    # (up to that oracle's own error), is at most 2 units of 2^-prec wide,
    # is exact at 0 and +-1, and t and m - t share a leaf
    shift, lo, hi = _cos_table(m, prec)
    assert shift == prec
    work = 4 * prec + 64
    with mpmath.workprec(work):
        slack = mpmath.ldexp(1, 16 - work)
        for t in range(m // 2 + 1):
            true = mpmath.cos(2 * mpmath.pi * t / m)
            assert mpmath.ldexp(lo[t], -prec) - slack <= true <= mpmath.ldexp(hi[t], -prec) + slack
    assert all(0 <= b - a <= 2 for a, b in zip(lo, hi))
    assert all((lo[t], hi[t]) == (lo[m - t], hi[m - t]) for t in range(1, m))
    exact = [(0, 1)] + [(m // 2, -1)] * (m % 2 == 0) + [(m // 4, 0)] * (m % 4 == 0)
    assert all((lo[t], hi[t]) == (v << prec, v << prec) for t, v in exact)


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([8, 15, 20, 35, 44, 77]),
    prec=st.sampled_from([16, 48, 144]),
    data=st.data(),
)
def test_integer_kernel_equals_enclosure_arithmetic(m, prec, data):
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
        min_size=euler_phi(m), max_size=euler_phi(m)))
    x = CycloElt.from_coeffs(m, coeffs)
    reps = range(m)
    assert embedding_enclosures(x, reps, prec) == embedding_enclosures_oracle(x, reps, prec)
    bounds, den = real_embedding_bounds(x, reps, prec)
    assert den > 0 and all(lo <= hi for lo, hi in bounds)

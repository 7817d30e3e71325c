from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import rotlat.fields

from rotlat import (
    CycloElt,
    coords_on_basis,
    discriminant_2adic_valuation,
    embedding_reps,
    field_from_json,
    field_to_json,
    is_element,
    is_totally_positive,
    make_field,
    norm_real,
    real_embedding_bounds,
    subfield_degrees,
)
from rotlat.fields import factor_degrees, generator_rows, integral_coords
from rotlat.linalg import det_int
from rotlat.numtheory import is_prime
from helpers import (BATTERY, CERTIFY_MODULES, big_constant_twist, conjugates, get_module,
                     inverse_rational, norm_abs, trace_by_form, trace_via_mult_matrix)


@pytest.mark.parametrize(
    "family,params,m,n,disc",
    [
        ("pow2", {"r": 3}, 8, 2, 8),
        ("pow2", {"r": 4}, 16, 4, 2048),
        ("odd-prime", {"p": 5}, 5, 2, 5),
        ("odd-prime", {"p": 7}, 7, 3, 49),
        ("odd-prime", {"p": 11}, 11, 5, 11**4),
        ("comp-pow2-odd", {"r": 3, "p": 5}, 40, 4, 1600),
        ("comp-pow2-odd", {"r": 3, "p": 7}, 56, 6, 8**3 * 49**2),
        ("comp-odd-odd", {"p1": 5, "p2": 7}, 35, 6, 5**3 * 49**2),
    ],
)
def test_field_catalog(family, params, m, n, disc):
    K = make_field(family, **params)
    assert (K.m, K.n, K.disc) == (m, n, disc)
    assert len(K.basis) == n
    # every integral-basis element is fixed by conjugation
    assert all(w.galois(-1) == w for w in K.basis)


def test_compositum_degree_multiplies():
    K = make_field("comp-pow2-odd", r=4, p=5)
    n1, n2 = subfield_degrees(K)
    assert K.n == n1 * n2 == 8


def test_trace_gram_determinant_is_disc():
    # recompute the construction-time self-check independently
    K = make_field("odd-prime", p=7)
    traces = [[trace_via_mult_matrix(wi * wj) for wj in K.basis] for wi in K.basis]
    # the basis is integral, so every trace is an integer
    assert all(t.denominator == 1 for row in traces for t in row)
    det = Fraction(det_int([[int(t) for t in row] for row in traces]), K.codegree ** K.n)
    assert det == K.disc == 49


@pytest.mark.parametrize(
    "family,params",
    [
        ("pow2", {"r": 2}),
        ("odd-prime", {"p": 9}),
        ("odd-prime", {"p": 4}),
        ("comp-pow2-odd", {"r": 3, "p": 6}),
        ("comp-odd-odd", {"p1": 5, "p2": 5}),
        ("comp-odd-odd", {"p1": 5, "p2": 9}),
    ],
)
def test_invalid_parameters_rejected(family, params):
    with pytest.raises(ValueError):
        make_field(family, **params)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_field("quadratic", d=5)


@pytest.mark.parametrize(
    "family,params,z",
    [
        ("pow2", {"r": 5}, 31),
        ("odd-prime", {"p": 11}, 0),
        ("comp-pow2-odd", {"r": 3, "p": 7}, 9),
        ("comp-pow2-odd", {"r": 4, "p": 5}, 22),
        ("comp-odd-odd", {"p1": 5, "p2": 7}, 0),
    ],
)
def test_discriminant_2adic_valuation(family, params, z):
    assert discriminant_2adic_valuation(make_field(family, **params)) == z


def test_embedding_reps_ascending_one_per_coset():
    K = make_field("pow2", r=4)
    assert embedding_reps(K) == (1, 3, 5, 7)
    K2 = make_field("odd-prime", p=7)
    assert embedding_reps(K2) == (1, 2, 3)
    K3 = make_field("comp-odd-odd", p1=5, p2=7)
    reps = embedding_reps(K3)
    assert len(reps) == K3.n and reps == tuple(sorted(reps))


def test_membership_gate():
    K = make_field("pow2", r=4)
    assert is_element(K, K.basis[1])
    assert not is_element(K, CycloElt.zeta(16))
    with pytest.raises(ValueError):
        norm_real(CycloElt.zeta(16), K)


def _trace_real(x, field):
    """Tr(x) from the field down to Q."""
    return trace_by_form(x) / field.codegree


def test_trace_real_examples():
    K8 = make_field("pow2", r=3)
    e1 = K8.basis[1]
    assert _trace_real((2 - e1) * 1, K8) == 2 * 2  # 2 * n1 at r=3
    K16 = make_field("pow2", r=4)
    assert _trace_real(2 - K16.basis[1], K16) == 2 * 4
    K7 = make_field("odd-prime", p=7)
    b = K7.basis
    alpha2 = 2 - b[0]
    assert _trace_real(alpha2 * b[2] * b[2], K7) == 7  # j = n2 case
    assert _trace_real(alpha2 * b[0] * b[0], K7) == 14  # j != n2 case
    assert _trace_real(CycloElt.one(7), K7) == 3


def test_norm_real_examples():
    K7 = make_field("odd-prime", p=7)
    assert norm_real(2 - K7.basis[0], K7) == 7
    assert norm_real(CycloElt.one(7), K7) == 1
    K35 = make_field("comp-odd-odd", p1=5, p2=7)
    b1 = CycloElt.zeta_pair(7, 1).lift(35)
    assert abs(norm_real(b1, K35)) == 1


def test_coords_on_basis_round_trip():
    K = make_field("comp-pow2-odd", r=3, p=5)
    x = 3 * K.basis[0] - 2 * K.basis[3] + K.basis[1]
    coords = coords_on_basis(K, x)
    assert coords == (3, 1, 0, -2)
    outside = CycloElt.zeta(40)
    with pytest.raises(ValueError):
        coords_on_basis(K, outside)


# one field per family, up to n = 64 (pow2 r=8) and p32's p = 41
SOLVE_FIELDS = [
    ("pow2", {"r": 8}),
    ("odd-prime", {"p": 41}),
    ("comp-pow2-odd", {"r": 4, "p": 11}),
    ("comp-odd-odd", {"p1": 7, "p2": 11}),
]


@lru_cache(maxsize=None)
def _dense_solve(family, params):
    """Test-side oracle: a = x B^t (B B^t)^-1 for the basis matrix B, with a
    dense rational inverse and no pivot choice."""
    K = make_field(family, **dict(params))
    rows = [list(w.coeffs) for w in K.basis]
    return K, rows, inverse_rational([[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows])


def _dense_coords(family, params, x):
    K, rows, inv = _dense_solve(family, tuple(params.items()))
    xb = [sum(a * b for a, b in zip(x.coeffs, r)) for r in rows]
    return tuple(sum(xb[i] * inv[i][j] for i in range(K.n)) for j in range(K.n))


def _combination(K, coeffs):
    x = CycloElt.zero(K.m)
    for a, w in zip(coeffs, K.basis):
        if a:
            x = x + a * w
    return x


@given(st.sampled_from(SOLVE_FIELDS), st.lists(st.integers(-20, 20), min_size=64, max_size=64),
       st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=63))
@settings(max_examples=30, deadline=None)
def test_coords_on_basis_equals_dense_oracle(field, nums, den, zeros):
    family, params = field
    K = make_field(family, **params)
    # mixed denominators (den, den + 1, ...), and sparse combinations too
    coeffs = [Fraction(a, den + j % 3) for j, a in enumerate(nums[:K.n])]
    coeffs[: zeros % K.n] = [Fraction(0)] * (zeros % K.n)
    x = _combination(K, coeffs)
    got = coords_on_basis(K, x)
    assert got == tuple(coeffs) == _dense_coords(family, params, x)
    assert all(type(q) is Fraction for q in got)


@pytest.mark.parametrize("family, params", SOLVE_FIELDS)
def test_coords_outside_the_field_rejected(family, params):
    K = make_field(family, **params)
    for x in (CycloElt.zeta(K.m), CycloElt.zeta(K.m) + Fraction(1, 3),
              K.basis[-1] + Fraction(1, 7) * CycloElt.zeta(K.m, 3)):
        with pytest.raises(ValueError, match="outside the rational span"):
            coords_on_basis(K, x)
    with pytest.raises(ValueError, match="conductor mismatch"):
        coords_on_basis(K, CycloElt.one(K.m * 3))


@pytest.mark.parametrize("family, params", SOLVE_FIELDS[1:])  # pow2's inverse is the identity
def test_corrupted_solver_entry_is_caught(monkeypatch, family, params):
    # every single entry of D * inverse, off by one, must be caught by the
    # span check rather than give wrong coordinates; the norm is driven to
    # its determinant route, the one that solves
    K = make_field(family, **params)
    pivots, den, inv, terms = rotlat.fields._basis_solver(K)
    monkeypatch.setattr(rotlat.fields, "_SIGN_PRECISION_CAP", 32)
    for i, row in enumerate(inv):
        x = Fraction(1, 3) * next(w for w in K.basis if w.coeffs[pivots[i]])
        for pos, (j, v) in enumerate(row):
            bad = inv[:i] + (row[:pos] + ((j, v + 1),) + row[pos + 1:],) + inv[i + 1:]
            monkeypatch.setattr(rotlat.fields, "_basis_solver",
                                lambda field, bad=bad: (pivots, den, bad, terms))
            with pytest.raises(ValueError, match="outside the rational span"):
                coords_on_basis(K, x)
            with pytest.raises(ValueError, match="outside the rational span"):
                norm_real(K.basis[0], K)


def _norm_routes(monkeypatch, xs, field):
    """norm_real of each x, and the number of determinants it took, then
    norm_real of each x with the precision cap below the first precision,
    which forces the determinant route."""
    real, dets = rotlat.fields.det_int, []

    def counting_det(rows):
        dets.append(rows)
        return real(rows)

    with monkeypatch.context() as patch:
        patch.setattr(rotlat.fields, "det_int", counting_det)
        pinned = [norm_real(x, field) for x in xs]
    with monkeypatch.context() as patch:
        patch.setattr(rotlat.fields, "_SIGN_PRECISION_CAP", 32)
        determinants = [norm_real(x, field) for x in xs]
    return pinned, len(dets), determinants


@pytest.mark.parametrize("code, params", BATTERY + CERTIFY_MODULES)
def test_norm_real_pins_the_norm_its_determinant_gives(monkeypatch, code, params):
    # alpha, every gamma_i, alpha - k (negative norms among them) and
    # alpha / 3 - gamma_1 (a denominator) all pin: no determinant, and the
    # same signed Fraction as the determinant route
    module = get_module(code, **params)
    field, alpha = module.field, module.alpha
    field.basis  # built (and self-checked) before the count
    xs = [alpha, *module.gamma, *(alpha - k for k in range(1, 7)),
          alpha * Fraction(1, 3) - module.gamma[1]]
    pinned, dets, determinants = _norm_routes(monkeypatch, xs, field)
    assert dets == 0
    assert pinned == determinants
    assert all(type(v) is Fraction for v in pinned)
    assert pinned[-1].denominator > 1
    assert any(v < 0 for v in pinned[len(module.gamma) + 1:-1])


def test_norm_real_routes_agree_on_zero_and_long_coefficients(monkeypatch):
    # zero takes the determinant; 10^30 gamma_0 + gamma_1 (a 90-digit norm)
    # pins past 64 bits; the 4,001-digit twist is not pinned by the cap and
    # takes the determinant
    module = get_module("p32", p=7)
    field = module.field
    xs = [CycloElt.zero(7), 10**30 * module.gamma[0] + module.gamma[1],
          big_constant_twist(module).alpha]
    pinned, dets, determinants = _norm_routes(monkeypatch, xs, field)
    assert pinned == determinants
    assert pinned[0] == 0 and abs(pinned[1]) > 10**89 and pinned[2] > 10**12000
    assert dets == 2


def test_basis_is_built_on_first_read_and_checked():
    fresh = rotlat.fields._build_field.__wrapped__("comp-pow2-odd", (("r", 3), ("p", 7)))
    assert "basis" not in vars(fresh)
    assert fresh.basis == make_field("comp-pow2-odd", r=3, p=7).basis
    assert "basis" in vars(fresh)
    wrong = rotlat.fields._build_field.__wrapped__("comp-pow2-odd", (("r", 3), ("p", 7)))
    wrong.__dict__["disc"] = fresh.disc + 1
    assert "basis" not in vars(wrong)
    for _ in range(2):  # a failed build caches nothing
        with pytest.raises(RuntimeError, match="integral basis self-check failed"):
            wrong.basis


def test_generators_generate_the_ring():
    # O_K = Z[generators]: the powers (products, for composita) of the
    # generators have integer coordinates and span the integral basis
    for family, params in [("pow2", {"r": 5}), ("odd-prime", {"p": 11}),
                           ("comp-pow2-odd", {"r": 3, "p": 7}),
                           ("comp-odd-odd", {"p1": 5, "p2": 7})]:
        K = make_field(family, **params)
        assert len(K.generators) == len(K.conductors)
        assert all(is_element(K, x) for x in K.generators)
        monomials = [CycloElt.one(K.m)]
        for x, d in zip(K.generators, factor_degrees(family, params)):
            powers = [CycloElt.one(K.m)]
            for _ in range(d - 1):
                powers.append(powers[-1] * x)
            monomials = [a * b for a in monomials for b in powers]
        rows = [coords_on_basis(K, x) for x in monomials]
        assert all(q.denominator == 1 for row in rows for q in row)
        assert abs(det_int([[int(q) for q in row] for row in rows])) == 1


_ODD_PRIMES = tuple(p for p in range(5, 62) if is_prime(p))
_GENERATOR_FIELDS = (
    [("pow2", {"r": r}) for r in range(3, 10)]
    + [("odd-prime", {"p": p}) for p in _ODD_PRIMES]
    + [("comp-pow2-odd", {"r": r, "p": p}) for r in range(3, 6) for p in (5, 7, 11, 13)]
    + [("comp-odd-odd", {"p1": p1, "p2": p2})
       for p1, p2 in ((5, 7), (7, 5), (5, 11), (5, 13), (7, 11), (11, 7), (7, 13), (11, 13))]
)


@pytest.mark.parametrize("family,params", _GENERATOR_FIELDS)
def test_generator_rows_are_the_products_on_the_basis(family, params):
    # the closed-form rows of each generator, lifted to the compositum as
    # M (x) I and I (x) M, are the coordinates of generator * basis element;
    # r = 3 and p = 5 are the factors of degree 2
    K = make_field(family, **params)
    rows = generator_rows(K)
    assert len(rows) == len(K.generators)
    for w, matrix in zip(K.generators, rows):
        assert len(matrix) == K.n
        for b, row in zip(K.basis, matrix):
            dense = [0] * K.n
            for k, c in row:
                assert c != 0 and dense[k] == 0
                dense[k] = c
            assert tuple(dense) == integral_coords(K, w * b)


def test_field_hash_agrees_with_equality():
    K = make_field("pow2", r=8)
    again = rotlat.fields._build_field.__wrapped__("pow2", (("r", 8),))
    assert again is not K and again == K and hash(again) == hash(K)
    assert make_field("pow2", r=7) != K


def test_conjugates_closed_forms():
    K8 = make_field("pow2", r=3)
    enc = conjugates(2 - K8.basis[1], K8, 96)
    vals = sorted(e.mid for e in enc)
    import math

    targets = sorted([2 - math.sqrt(2), 2 + math.sqrt(2)])
    for e, t in zip(vals, targets):
        assert abs(float(e) - t) < 1e-12
    assert all(e.is_positive for e in enc)

    K5 = make_field("odd-prime", p=5)
    enc5 = conjugates(K5.basis[0], K5, 96)
    golden = sorted([(-1 + math.sqrt(5)) / 2, (-1 - math.sqrt(5)) / 2])
    for e, t in zip(sorted(enc5, key=lambda e: e.mid), golden):
        assert abs(float(e.mid) - t) < 1e-12


def test_conjugates_of_one():
    K = make_field("odd-prime", p=7)
    for e in conjugates(CycloElt.one(7), K, 64):
        assert e.contains(1)


def test_totally_positive():
    K8 = make_field("pow2", r=3)
    e1 = K8.basis[1]
    assert is_totally_positive(2 + e1, K8)
    assert is_totally_positive(2 - e1, K8)
    assert not is_totally_positive(e1, K8)  # one embedding is -sqrt(2)
    assert not is_totally_positive(CycloElt.zero(8), K8)


def test_total_positivity_escalates_past_64_bits():
    # in Q(sqrt 2), e1 = zeta_8 + zeta_8^-1 is sqrt(2) at k = 1; with p/q a
    # convergent of sqrt(2), q e1 - p is about 1/(2 sqrt(2) q) there, so
    # x = (q e1 - p)^2 is totally positive with one embedding near 2^-82
    K = make_field("pow2", r=3)
    e1 = K.basis[1]
    p, q = 1, 1
    while q < 1 << 40:
        p, q = p + 2 * q, p + q
    y = q * e1 - p
    x = y * y
    reps = embedding_reps(K)
    bounds, _ = real_embedding_bounds(x, reps, 64)
    assert not all(lo > 0 for lo, _ in bounds)  # 64-bit leaves cannot decide
    assert not any(hi < 0 for _, hi in bounds)
    assert is_totally_positive(x, K)
    assert not is_totally_positive(-x, K)
    (lo, hi), = [b for k, b in zip(reps, real_embedding_bounds(y, reps, 128)[0]) if k == 1]
    assert (lo > 0, hi < 0) == (2 * q * q > p * p, 2 * q * q < p * p)


@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-9, max_value=9))
@settings(max_examples=30, deadline=None)
def test_conjugate_sum_contains_trace(a, b, c):
    K = make_field("odd-prime", p=7)
    x = a * K.basis[0] + b * K.basis[1] + c * K.basis[2]
    enc = conjugates(x, K, 80)
    total = enc[0]
    for e in enc[1:]:
        total = total + e
    assert total.contains(_trace_real(x, K))


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
@settings(max_examples=25, deadline=None)
def test_squared_enclosure_product_contains_cyclotomic_norm(a, b, c):
    # for degree-2 extensions Q(zeta_m) | K the conjugate pairs square up to
    # the full cyclotomic norm
    K = make_field("odd-prime", p=7)
    x = a * K.basis[0] + b * K.basis[1] + c * K.basis[2]
    enc = conjugates(x, K, 96)
    prod = enc[0].pow(2)
    for e in enc[1:]:
        prod = prod * e.pow(2)
    assert prod.contains(norm_abs(x))


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=20, deadline=None)
def test_enclosure_product_contains_field_norm_compositum(a, b):
    K = make_field("comp-odd-odd", p1=5, p2=7)
    x = a * K.basis[0] + b * K.basis[4] + K.basis[2]
    enc = conjugates(x, K, 96)
    prod = enc[0]
    for e in enc[1:]:
        prod = prod * e
    assert prod.contains(norm_real(x, K))


def test_json_round_trip():
    K = make_field("comp-odd-odd", p1=5, p2=7)
    obj = field_to_json(K)
    assert obj["disc"] == str(K.disc)
    assert field_from_json(obj) is make_field("comp-odd-odd", p1=5, p2=7)
    obj["disc"] = "123"
    with pytest.raises(ValueError):
        field_from_json(obj)


def test_json_round_trip_of_a_discriminant_above_the_int_str_limit():
    # disc = 3001^1499 has 5213 digits, past Python's 4300-digit str(int) limit
    K = make_field("odd-prime", p=3001)
    obj = field_to_json(K)
    assert len(obj["disc"]) == 5213
    assert int(Decimal(obj["disc"])) == K.disc == 3001 ** 1499
    assert field_from_json(obj) is K


@pytest.mark.parametrize("key, value", [("m", "35"), ("n", 12.0), ("n", True), ("disc", 1)])
def test_json_stored_data_must_have_its_json_type(key, value):
    obj = field_to_json(make_field("comp-odd-odd", p1=5, p2=7))
    obj[key] = value
    with pytest.raises(ValueError, match="integer 'm' and 'n' and a string 'disc'"):
        field_from_json(obj)

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotlat import (
    CycloElt,
    TwistedModule,
    build,
    dp_closed_form,
    in_module,
    is_ideal,
    is_totally_positive,
    make_field,
    module_from_json,
    module_index,
    module_to_json,
)
from rotlat import constructions, fields
from rotlat.constructions import _module_coords, coordinate_matrix
from rotlat.fields import FieldDesc
from rotlat.gram import gram
from helpers import (
    BATTERY,
    CERTIFY_MODULES,
    doubled_gamma0,
    dp_rel_exponents,
    get_module,
    inverse_rational,
    is_ideal_oracle,
    lattice_dimension,
)


def test_p34_3_5_basis_exactly():
    m = get_module("p34", r=3, p=5)
    K = m.field
    e0b1, e0b2 = K.basis[0], K.basis[1]
    e1b1, e1b2 = K.basis[2], K.basis[3]
    assert m.gamma == (e0b1, 2 * e0b2, e1b1, e1b2)
    e1 = CycloElt.zeta_pair(8, 1).lift(40)
    b1 = CycloElt.zeta_pair(5, 1).lift(40)
    assert m.alpha == (2 - e1) * (2 - b1)
    assert m.c == 20


def test_cache_key_values_refuse_assignment():
    # modules and fields key lru caches (coordinate_matrix, _gamma_solver,
    # embedding_reps, _basis_solver, fixing_subgroup), elements sit inside
    # those keys, and a Gram matrix's minors and lam derive from num
    module = get_module("p31", r=5)
    G = gram(module)
    fresh = FieldDesc(*(getattr(module.field, name) for name in ("family", "params", "m", "n")))
    # the field's derived data fills on first read
    assert not {"basis", "disc", "generators"} & set(vars(fresh))
    assert (fresh.basis, fresh.disc, fresh.generators) == \
        (module.field.basis, module.field.disc, module.field.generators)
    assert {"basis", "disc", "generators"} <= set(vars(fresh))
    cases = [(module, "c"), (module, "gamma"), (module.field, "m"), (fresh, "disc"),
             (fresh, "basis"), (module.alpha, "num"), (module.alpha, "den"), (G, "num"),
             (G, "minors")]
    for value, name in cases:
        before = (value, hash(value))
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            setattr(value, "extra", None)
        assert (value, hash(value)) == before


def test_p32_7_basis_exactly():
    m = get_module("p32", p=7)
    b = m.field.basis
    assert m.gamma == (-b[0] - 2 * b[1] - 2 * b[2], b[0], b[1])
    assert m.alpha == 2 - b[0]
    assert m.c == 7


def test_p37_5_7_doubles_last_vector():
    m = get_module("p37", p1=5, p2=7)
    K = m.field
    assert m.gamma[-1] == 2 * K.basis[-1]
    assert m.gamma[:-1] == K.basis[:-1]
    assert m.c == 35


def test_p31_sign_pattern():
    m = get_module("p31", r=4)
    e = m.field.basis  # (1, e1, e2, e3)
    expected_head = -2 * e[0] + 2 * e[1] - 2 * e[2] + e[3]
    assert m.gamma == (expected_head, -e[3], e[2], -e[1])
    assert m.alpha == 2 + e[1]
    assert m.c == 8


def test_p31_warns_below_its_stated_range():
    import warnings

    with pytest.warns(RuntimeWarning, match="below its stated range"):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            build("p31", r=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build("p31", r=5)


@pytest.mark.parametrize(
    "code,params,message",
    [
        ("p31", {"r": 2}, "r must be"),
        ("p32", {"p": 4}, "p must be a prime >= 7"),
        ("p32", {"p": 5}, "p must be a prime >= 7"),
        ("p34", {"r": 2, "p": 5}, "r must be"),
        ("p34", {"r": 3, "p": 4}, "p must be"),
        ("p37", {"p1": 5, "p2": 5}, "p1 != p2"),
        ("p37", {"p1": 3, "p2": 7}, "primes >= 5"),
        # non-primes the closed forms once accepted
        ("p32", {"p": 9}, "p must be a prime >= 7"),
        ("p34", {"r": 3, "p": 6}, "p must be a prime >= 5"),
        ("p37", {"p1": 5, "p2": 15}, "primes >= 5"),
        # non-integers, once truncated silently
        ("p31", {"r": 3.7}, "'r' must be an integer"),
        ("p32", {"p": 7.5}, "'p' must be an integer"),
        ("p34", {"r": 3, "p": True}, "'p' must be an integer"),
        ("p37", {"p1": 5}, "missing parameter 'p2'"),
        ("p31", {"r": 5, "p": 7}, "unexpected parameter 'p'"),
    ],
)
def test_parameter_validation(code, params, message):
    # the builder and the closed forms share one parameter check
    with pytest.raises(ValueError, match=message):
        build(code, **params)
    with pytest.raises(ValueError, match=message):
        dp_rel_exponents(code, **params)
    with pytest.raises(ValueError, match=message):
        lattice_dimension(code, **params)


def test_unknown_construction():
    with pytest.raises(ValueError):
        build("p99", r=3)
    # codes are exact, as the CLI and every written module file spell them
    with pytest.raises(ValueError, match="unknown construction 'P31'"):
        build("P31", r=5)


def test_upper_case_code_in_a_module_file_is_unregistered():
    # "P34" is no registered code: the file loads as a module outside the
    # registry, as "ambient" does, and the closed forms refuse it
    obj = module_to_json(get_module("p32", p=7))
    for code in ("P34", "ambient"):
        obj["construction"] = code
        module = module_from_json(json.loads(json.dumps(obj)))
        assert module.construction == code
        with pytest.raises(ValueError, match=f"unknown construction '{code}'"):
            dp_closed_form(module)


def test_each_parameter_is_checked_once_where_it_enters(monkeypatch):
    # build checks through lookup and takes the field from the cache behind
    # make_field; a module file's family rules run in field_from_json and
    # only p32's own floor (p >= 7) is compared after them: p is tested for
    # primality once on each path.  check_params is spied on under both
    # names it is imported as.
    calls = {"check_params": 0, "is_prime": 0, "lookup": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module in (constructions, fields):
        spy(module, "check_params")
    spy(fields, "is_prime")
    spy(constructions, "lookup")
    module = build("p32", p=257)
    assert calls == {"check_params": 1, "is_prime": 1, "lookup": 1}
    obj = json.loads(json.dumps(module_to_json(module)))
    calls.update(dict.fromkeys(calls, 0))
    assert module_from_json(obj) == module
    assert calls == {"check_params": 1, "is_prime": 1, "lookup": 0}


def test_a_module_file_below_its_constructions_floor_is_refused():
    # odd-prime p = 5 passes the family's rule in field_from_json; p32's own
    # floor is compared after it, with the message build gives
    K = make_field("odd-prime", p=5)
    obj = module_to_json(TwistedModule(K, K.basis, CycloElt.one(5), 5, "p32"))
    with pytest.raises(ValueError, match="^p must be a prime >= 7$"):
        module_from_json(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("code,params", BATTERY)
def test_module_index_is_two(code, params):
    assert module_index(get_module(code, **params)) == 2


def test_module_index_of_ambient_basis_is_one():
    K = make_field("comp-pow2-odd", r=3, p=5)
    amb = TwistedModule(K, K.basis, CycloElt.one(K.m), 1, "ambient")
    assert module_index(amb) == 1


def test_alpha_totally_positive_battery():
    for code, params in BATTERY:
        m = get_module(code, **params)
        assert is_totally_positive(m.alpha, m.field)


def _coords(module, x):
    """Coordinates of x over gamma (rational; integral iff x is in the module)."""
    coords, scale = _module_coords(module, x)
    return tuple(Fraction(b, scale) for b in coords)


def test_membership_and_coords():
    m = get_module("p32", p=7)
    y = m.gamma[0] - 2 * m.gamma[1] + 3 * m.gamma[2]
    assert in_module(m, y)
    assert _coords(m, y) == (1, -2, 3)
    b3 = m.field.basis[2]
    assert not in_module(m, b3)  # only even multiples of the last basis vector


@given(st.sampled_from(BATTERY), st.lists(st.integers(-9, 9), min_size=12, max_size=12),
       st.sampled_from([1, 2, 3, 4, 6]))
@settings(max_examples=60, deadline=None)
def test_coords_in_module_equals_dense_oracle(case, nums, den):
    code, params = case
    m = get_module(code, **params)
    K = m.field
    y = [Fraction(a, den) for a in nums[:K.n]]  # coordinates over the integral basis
    x = CycloElt.zero(K.m)
    for a, w in zip(y, K.basis):
        x = x + a * w
    # test-side oracle: y times the dense rational inverse of the coordinate matrix
    inv = inverse_rational([list(row) for row in coordinate_matrix(m)])
    expected = tuple(sum(y[i] * inv[i][j] for i in range(K.n)) for j in range(K.n))
    assert _coords(m, x) == expected
    assert in_module(m, x) == all(q.denominator == 1 for q in expected)
    assert sum(q * g for q, g in zip(expected, m.gamma)) == x


def test_module_hash_is_consistent_with_equality():
    m = get_module("p37", p1=5, p2=7)
    again = TwistedModule(m.field, tuple(m.gamma), m.alpha, m.c, m.construction)
    assert again == m and hash(again) == hash(m)
    doubled = TwistedModule(m.field, (2 * m.gamma[0],) + m.gamma[1:], m.alpha, m.c, m.construction)
    assert doubled != m
    # equal hashes, different modules: the caches keyed on modules keep them apart
    assert _coords(doubled, m.gamma[0]) == (Fraction(1, 2),) + (0,) * (m.field.n - 1)
    assert _coords(m, m.gamma[0]) == (1,) + (0,) * (m.field.n - 1)


def test_is_ideal_verdicts():
    assert is_ideal(get_module("p31", r=3)).is_ideal
    assert is_ideal(get_module("p31", r=4)).is_ideal
    for code, params in (("p32", {"p": 7}), ("p34", {"r": 3, "p": 5}), ("p37", {"p1": 5, "p2": 7})):
        chk = is_ideal(get_module(code, **params))
        assert not chk.is_ideal
        w = chk.witness
        assert w is not None
        assert w.product == w.basis_factor * w.module_factor
        assert not in_module(get_module(code, **params), w.product)


def test_is_ideal_forms_no_product_but_its_witness(monkeypatch):
    # closure is decided on integer coordinates: an ideal costs no membership
    # query, no coordinate solve and no cyclotomic product, and a non-ideal
    # forms one product, its witness
    calls = {"in_module": 0, "integer_coords": 0, "__mul__": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    ideal, other = get_module("p31", r=7), get_module("p37", p1=5, p2=7)
    spy(constructions, "in_module")
    spy(constructions, "integer_coords")
    spy(fields, "integer_coords")
    spy(CycloElt, "__mul__")
    assert is_ideal(ideal) == (True, None)
    assert calls == {"in_module": 0, "integer_coords": 0, "__mul__": 0}
    chk = is_ideal(other)
    assert not chk.is_ideal and chk.witness.basis_factor in other.field.generators
    assert calls == {"in_module": 0, "integer_coords": 0, "__mul__": 1}


# p31 r = 3..8 are among these: r = 3, 4, 5 in the battery, 7 and 8 certified
CLOSURE_MODULES = BATTERY + CERTIFY_MODULES + (("p31", {"r": 6}),)


def _with_gamma(module, gamma):
    """The module with another gamma, built without the constructor's checks."""
    return TwistedModule(module.field, tuple(gamma), module.alpha, module.c, module.construction)


@pytest.mark.parametrize("code,params", CLOSURE_MODULES)
def test_is_ideal_equals_the_product_oracle(code, params):
    # verdict and witness, on the module and on tampered copies: gamma_0
    # replaced by gamma_0 + gamma_1 (the same module on another basis),
    # gamma_0 or the last gamma element doubled, and 2 O_K, an ideal of index 2^n
    module = get_module(code, **params)
    gamma, K = module.gamma, module.field
    for m in (
        module,
        _with_gamma(module, (gamma[0] + gamma[1], *gamma[1:])),
        doubled_gamma0(module),
        _with_gamma(module, (*gamma[:-1], 2 * gamma[-1])),
        _with_gamma(module, (2 * b for b in K.basis)),
    ):
        assert is_ideal(m) == is_ideal_oracle(m)


@pytest.mark.parametrize("family,params", [("pow2", {"r": 4}), ("odd-prime", {"p": 7}),
                                           ("comp-pow2-odd", {"r": 3, "p": 5}),
                                           ("comp-odd-odd", {"p1": 5, "p2": 7})])
def test_ambient_module_is_an_ideal(family, params):
    K = make_field(family, **params)
    ambient = TwistedModule(K, K.basis, CycloElt.one(K.m), 1, "ambient")
    assert is_ideal(ambient) == is_ideal_oracle(ambient) == (True, None)


def test_is_ideal_of_an_improper_gamma_raises_as_membership_does():
    K = make_field("pow2", r=3)
    half = CycloElt.rational(8, "1/2")
    for gamma, message in (
        ((half, K.basis[1]), "^element has non-integer coordinates over the integral basis$"),
        ((K.basis[1], K.basis[1]), "^gamma is not full rank$"),
        ((K.basis[1],), "^gamma must have exactly 2 elements, got 1$"),
    ):
        bad = TwistedModule(K, gamma, CycloElt.one(8), 1, "bad")
        for test in (is_ideal, is_ideal_oracle):
            with pytest.raises(ValueError, match=message):
                test(bad)


def test_p34_known_witness_product():
    # the product (e0 b_{n2-1}) * (e0 b_1) falls outside the module
    m = get_module("p34", r=3, p=5)
    b1 = CycloElt.zeta_pair(5, 1).lift(40)
    bn2m1 = b1  # n2 = 2, so b_{n2-1} = b_1
    assert not in_module(m, bn2m1 * b1)
    m2 = get_module("p34", r=3, p=7)
    b1 = CycloElt.zeta_pair(7, 1).lift(56)
    b2 = CycloElt.zeta_pair(7, 2).lift(56)
    assert not in_module(m2, b2 * b1)


def test_p37_witness_found_by_scan_is_minimal_counterexample():
    # closure fails, and the scan's witness is a genuine product of a basis
    # element with a module element that has a half-integer coordinate on
    # the doubled vector
    m = get_module("p37", p1=5, p2=7)
    chk = is_ideal(m)
    assert not chk.is_ideal
    coords = _coords(m, chk.witness.product)
    assert any(q.denominator == 2 for q in coords)


def test_gamma_outside_ring_rejected():
    K = make_field("pow2", r=3)
    half = CycloElt.rational(8, "1/2")
    bad = TwistedModule(K, (half, K.basis[1]), CycloElt.one(8), 1, "bad")
    with pytest.raises(ValueError, match="non-integer"):
        module_index(bad)


def test_rank_deficient_rejected():
    K = make_field("pow2", r=3)
    bad = TwistedModule(K, (K.basis[1], K.basis[1]), CycloElt.one(8), 1, "bad")
    with pytest.raises(ValueError, match="^gamma is not full rank$"):
        module_index(bad)


def test_membership_in_a_rank_deficient_gamma_raises():
    # p31 r=4 with gamma_1 replaced by gamma_0, built without the rank check:
    # its inverse decides nothing, so membership and closure raise instead of
    # answering False for gamma_0 itself or naming a product as a witness
    good = get_module("p31", r=4)
    bad = TwistedModule(good.field, (good.gamma[0], *good.gamma[:-1]), good.alpha, good.c,
                        good.construction)
    with pytest.raises(ValueError, match="^gamma is not full rank$"):
        in_module(bad, bad.gamma[0])
    with pytest.raises(ValueError, match="^gamma is not full rank$"):
        is_ideal(bad)


def test_membership_is_false_outside_the_rational_span_or_conductor():
    # only these x answer False without a coordinate test over gamma
    m = get_module("p31", r=4)
    assert not in_module(m, CycloElt.zeta(m.field.m))  # not real
    assert not in_module(m, CycloElt.one(2 * m.field.m))  # another conductor
    assert in_module(m, m.gamma[0])


def test_module_json_round_trip(tmp_path):
    m = get_module("p34", r=3, p=5)
    obj = module_to_json(m)
    text = json.dumps(obj, indent=2)
    path = tmp_path / "module.json"
    path.write_text(text)
    loaded = module_from_json(json.loads(path.read_text()))
    assert loaded.gamma == m.gamma
    assert loaded.alpha == m.alpha
    assert loaded.c == m.c
    assert loaded.construction == "p34"


def test_module_json_validations():
    m = get_module("p32", p=7)
    obj = module_to_json(m)
    bad = json.loads(json.dumps(obj))
    bad["c"] = 0
    with pytest.raises(ValueError):
        module_from_json(bad)
    bad = json.loads(json.dumps(obj))
    bad["alpha"]["m"] = 5
    with pytest.raises(ValueError):
        module_from_json(bad)

import json

import pytest

from rotlat import dn_feasibility, make_field, splitting_of_two
from rotlat.feasibility import (
    VERDICT_IMPOSSIBLE_ODD_DISC,
    VERDICT_IMPOSSIBLE_RESIDUE,
    VERDICT_KNOWN_CONSTRUCTION,
    VERDICT_NECESSARY_HOLDS,
    report_json,
)
from rotlat.fields import fixing_subgroup
from rotlat.numtheory import crt, order_in_quotient, v2
from helpers import run_fresh


@pytest.mark.parametrize(
    "family,params,efg",
    [
        ("pow2", {"r": 5}, (8, 1, 1)),
        ("pow2", {"r": 3}, (2, 1, 1)),
        ("odd-prime", {"p": 7}, (1, 3, 1)),
        ("odd-prime", {"p": 11}, (1, 5, 1)),
        ("odd-prime", {"p": 17}, (1, 4, 2)),  # 2^4 = 16 = -1 mod 17
        ("comp-pow2-odd", {"r": 3, "p": 7}, (2, 3, 1)),
        ("comp-pow2-odd", {"r": 4, "p": 5}, (4, 2, 1)),
        ("comp-odd-odd", {"p1": 5, "p2": 7}, (1, 6, 1)),
        ("comp-odd-odd", {"p1": 5, "p2": 11}, (1, 10, 1)),
        # values taken from the per-family rule this one replaced
        ("odd-prime", {"p": 73}, (1, 9, 4)),
        ("comp-pow2-odd", {"r": 6, "p": 17}, (16, 4, 2)),
        ("comp-pow2-odd", {"r": 5, "p": 31}, (8, 5, 3)),
        ("comp-odd-odd", {"p1": 7, "p2": 73}, (1, 9, 12)),
        ("comp-odd-odd", {"p1": 17, "p2": 31}, (1, 20, 6)),
    ],
)
def test_splitting_of_two(family, params, efg):
    K = make_field(family, **params)
    e, f, g = splitting_of_two(K)
    assert (e, f, g) == efg
    assert e * f * g == K.n


@pytest.mark.parametrize(
    "family,params,verdict",
    [
        ("odd-prime", {"p": 7}, VERDICT_IMPOSSIBLE_ODD_DISC),
        ("odd-prime", {"p": 11}, VERDICT_IMPOSSIBLE_ODD_DISC),
        ("odd-prime", {"p": 13}, VERDICT_IMPOSSIBLE_ODD_DISC),
        ("comp-odd-odd", {"p1": 5, "p2": 7}, VERDICT_IMPOSSIBLE_ODD_DISC),
        ("comp-pow2-odd", {"r": 3, "p": 7}, VERDICT_IMPOSSIBLE_RESIDUE),
        ("comp-pow2-odd", {"r": 3, "p": 11}, VERDICT_IMPOSSIBLE_RESIDUE),
        ("pow2", {"r": 3}, VERDICT_KNOWN_CONSTRUCTION),
        ("pow2", {"r": 7}, VERDICT_KNOWN_CONSTRUCTION),
        # odd-prime fields of degree 2 evade the odd-discriminant rule
        ("odd-prime", {"p": 5}, VERDICT_NECESSARY_HOLDS),
        # the p = 5 compositum satisfies f | 2 - z, so only necessity holds
        ("comp-pow2-odd", {"r": 3, "p": 5}, VERDICT_NECESSARY_HOLDS),
        ("comp-pow2-odd", {"r": 4, "p": 5}, VERDICT_NECESSARY_HOLDS),
    ],
)
def test_verdicts(family, params, verdict):
    report = dn_feasibility(make_field(family, **params))
    assert report.verdict == verdict


def test_report_internal_consistency():
    for family, params in [
        ("pow2", {"r": 4}),
        ("odd-prime", {"p": 13}),
        ("comp-pow2-odd", {"r": 3, "p": 7}),
        ("comp-odd-odd", {"p1": 7, "p2": 11}),
    ]:
        K = make_field(family, **params)
        rep = dn_feasibility(K)
        assert rep.e * rep.f * rep.g == K.n
        assert rep.disc_odd == (rep.z == 0)
        assert rep.rule


def test_odd_disc_fields_have_large_residue_degree():
    # for odd-discriminant fields of degree outside {1, 2, 4} the residue
    # degree is never 1 or 2; this independent route agrees with the verdict
    for family, params in [
        ("odd-prime", {"p": 7}),
        ("odd-prime", {"p": 11}),
        ("odd-prime", {"p": 13}),
        ("odd-prime", {"p": 17}),
        ("comp-odd-odd", {"p1": 5, "p2": 7}),
        ("comp-odd-odd", {"p1": 5, "p2": 11}),
        ("comp-odd-odd", {"p1": 7, "p2": 11}),
    ]:
        K = make_field(family, **params)
        rep = dn_feasibility(K)
        assert K.n not in (1, 2, 4)
        assert rep.f not in (1, 2)
        assert rep.verdict == VERDICT_IMPOSSIBLE_ODD_DISC


def test_residue_condition_identity_for_mixed_compositum():
    # z = n2 * ((r-1) 2^(r-2) - 1), so 2 - z fails to be divisible by f
    # whenever the odd factor's degree avoids {1, 2, 4}
    for r, p in [(3, 7), (4, 7), (3, 11), (3, 13), (5, 7)]:
        K = make_field("comp-pow2-odd", r=r, p=p)
        rep = dn_feasibility(K)
        n2 = (p - 1) // 2
        assert rep.z == n2 * ((r - 1) * 2 ** (r - 2) - 1)
        assert n2 not in (1, 2, 4)
        assert (2 - rep.z) % rep.f != 0
        assert rep.verdict == VERDICT_IMPOSSIBLE_RESIDUE


def test_constructed_families_coexist_with_ideal_impossibility():
    # the same fields that carry certified non-ideal module constructions
    # are Impossible* for ideal-based ones, and the rule text states the scope
    for family, params in [
        ("odd-prime", {"p": 7}),
        ("comp-pow2-odd", {"r": 3, "p": 7}),
        ("comp-odd-odd", {"p1": 5, "p2": 7}),
    ]:
        rep = dn_feasibility(make_field(family, **params))
        assert rep.verdict.startswith("Impossible")
        assert "module constructions are unaffected" in rep.rule


def test_necessary_condition_never_asserts_existence():
    rep = dn_feasibility(make_field("comp-pow2-odd", r=4, p=5))
    assert rep.verdict == VERDICT_NECESSARY_HOLDS
    assert "not decided" in rep.rule


def test_feasibility_builds_no_basis():
    import rotlat.fields

    for family, params in [("pow2", (("r", 6),)), ("comp-odd-odd", (("p1", 5), ("p2", 7)))]:
        K = rotlat.fields._build_field.__wrapped__(family, params)
        dn_feasibility(K)
        assert "basis" not in vars(K)
        assert "disc" not in vars(K)


def test_first_verdict_in_a_fresh_process_imports_nothing():
    # the survey times make_field + dn_feasibility right after `import rotlat`,
    # so a lazy import or a basis build on that path would show in its verdicts
    out = run_fresh("-c", """
import sys, rotlat
before = set(sys.modules)
field = rotlat.make_field("pow2", r=11)
rotlat.dn_feasibility(field)
print(sorted(set(sys.modules) - before), "basis" in vars(field))
""")
    assert out.splitlines() == ["[] False"]


def test_pow2_r30_answers_from_closed_forms():
    # n = 2^28: the discriminant would have 29 * 2^28 - 1 bits and (Z/mZ)^*
    # 2^29 residues; e, f and z come from closed forms and H = {1, -1}
    rep = dn_feasibility(make_field("pow2", r=30))
    assert (rep.e, rep.f, rep.g, rep.z) == (268435456, 1, 1, 7784628223)
    assert rep.verdict == VERDICT_KNOWN_CONSTRUCTION


def _splitting_by_enumeration(K):
    # the rule the closed forms replaced: e = |I H| / |H| and f the order of
    # the Frobenius modulo I H, with I H built as a set of residues
    m, subgroup = K.m, fixing_subgroup(K)
    odd = m >> v2(m)
    inertia_h = frozenset(u * h % m for u in range(1, m, odd) if u % 2 for h in subgroup)
    e = len(inertia_h) // len(subgroup)
    f = order_in_quotient(crt(1, m // odd, 2, odd), m, inertia_h)
    return e, f, K.n // (e * f)


@pytest.mark.parametrize("family,params", [
    ("pow2", {"r": 3}), ("pow2", {"r": 8}), ("odd-prime", {"p": 5}), ("odd-prime", {"p": 31}),
    ("odd-prime", {"p": 127}), ("comp-pow2-odd", {"r": 3, "p": 5}),
    ("comp-pow2-odd", {"r": 5, "p": 17}), ("comp-pow2-odd", {"r": 4, "p": 73}),
    ("comp-odd-odd", {"p1": 7, "p2": 17}), ("comp-odd-odd", {"p1": 31, "p2": 43}),
])
def test_splitting_closed_forms_match_the_enumeration(family, params):
    K = make_field(family, **params)
    assert splitting_of_two(K) == _splitting_by_enumeration(K)


def test_report_json_shape():
    rep = dn_feasibility(make_field("odd-prime", p=11))
    obj = json.loads(report_json(rep))
    assert set(obj) == {"e", "f", "g", "z", "disc_odd", "verdict", "rule"}
    assert obj["verdict"] == "ImpossibleOddDisc"
    assert obj["disc_odd"] is True

"""Feasibility of building a rotated D_n lattice from a fractional ideal.

The determinant identity det = N(I)^2 N(alpha) d_K forces, for a target
determinant 4c^n, an arithmetic condition on the splitting of 2: the
residue degree f must divide 2 - v2(d_K).  Odd-discriminant fields of
degree outside {1, 2, 4} always violate it.  These verdicts concern
fractional ideals only; the rank-n modules used by the constructions in
this package are not ideals, and their existence is unaffected.

The divisibility condition is necessary, not sufficient: a verdict of
"NecessaryConditionHolds" does not assert that a construction exists.
The verdict reads invariants only: n, v2(d_K) from the discriminant's
prime-exponent table, and the splitting of 2 from (m, H) by one rule for
every family (Washington, Introduction to Cyclotomic Fields, ch. 3); no
integral basis and no discriminant is built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .fields import FieldDesc, discriminant_2adic_valuation, fixing_subgroup
from .numtheory import euler_phi, order_in_quotient, v2

VERDICT_IMPOSSIBLE_ODD_DISC = "ImpossibleOddDisc"
VERDICT_IMPOSSIBLE_RESIDUE = "ImpossibleResidueCondition"
VERDICT_NECESSARY_HOLDS = "NecessaryConditionHolds"
VERDICT_KNOWN_CONSTRUCTION = "KnownConstruction"


@dataclass(frozen=True)
class FeasibilityReport:
    e: int
    f: int
    g: int
    z: int
    disc_odd: bool
    verdict: str
    rule: str

    def to_json(self) -> dict:
        return asdict(self)


def splitting_of_two(field: FieldDesc) -> tuple[int, int, int]:
    """(ramification index e, residue degree f, number of primes g) of 2,
    read from the Galois group (Z/mZ)^*/H, H = ``fixing_subgroup``.

    With m = 2^a m', the inertia group of 2 is the image of I, the units
    that are 1 mod m', so e = |I| / |I intersect H| = phi(2^a) / |{h in H :
    h = 1 mod m'}|.  The Frobenius is the unit that is 1 mod 2^a and 2 mod m',
    and I H is the preimage of H mod m', so f is the order of 2 in
    (Z/m')^* / (H mod m'), and 1 when m' = 1; g = n/(e f).  Only H is
    enumerated.
    """
    m, subgroup = field.m, fixing_subgroup(field)
    odd = m >> v2(m)
    e = euler_phi(m // odd) // sum((h - 1) % odd == 0 for h in subgroup)
    f = order_in_quotient(2, odd, frozenset(h % odd for h in subgroup)) if odd > 1 else 1
    return e, f, field.n // (e * f)


def dn_feasibility(field: FieldDesc) -> FeasibilityReport:
    """Decide whether a rotated D_n lattice can come from a fractional ideal.

    An ``Impossible*`` verdict comes from exactly two rules: an odd
    discriminant with degree outside {1, 2, 4} (``ImpossibleOddDisc``), or
    a residue degree f of 2 that does not divide 2 - z, where z = v2(d_K)
    (``ImpossibleResidueCondition``).  When neither fires, the verdict is
    ``KnownConstruction`` for ``pow2`` and ``NecessaryConditionHolds`` for
    every other family; the latter asserts nothing about existence.
    """
    e, f, g = splitting_of_two(field)
    z = discriminant_2adic_valuation(field)
    disc_odd = z == 0
    if disc_odd and field.n not in (1, 2, 4):
        verdict = VERDICT_IMPOSSIBLE_ODD_DISC
        rule = (
            "odd discriminant with degree outside {1, 2, 4}: the residue degree of 2 "
            "exceeds 2, so the determinant equation 4c^n = N(I)^2 N(alpha) d_K has no "
            "solution over fractional ideals (non-ideal module constructions are "
            "unaffected)"
        )
    elif (2 - z) % f != 0:
        verdict = VERDICT_IMPOSSIBLE_RESIDUE
        rule = (
            f"residue degree f={f} does not divide 2 - z = {2 - z}: no fractional "
            "ideal and totally positive twist can reach determinant 4c^n (non-ideal "
            "module constructions are unaffected)"
        )
    elif field.family == "pow2":
        verdict = VERDICT_KNOWN_CONSTRUCTION
        rule = (
            "f = 1 divides 2 - z and a principal-ideal construction exists for the "
            "power-of-two real subfield"
        )
    else:
        verdict = VERDICT_NECESSARY_HOLDS
        rule = (
            f"f={f} divides 2 - z = {2 - z}: the necessary condition holds; existence "
            "via fractional ideals is not decided by this criterion"
        )
    return FeasibilityReport(e, f, g, z, disc_odd, verdict, rule)


def report_json(report: FeasibilityReport) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"

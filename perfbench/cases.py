"""The inputs every workload runs, and the verdicts pinned from the seed commit.

Digests of the outputs live in expected.json beside this file; the verdict
names below are pinned here too so that they can carry comments.
"""

from __future__ import annotations

PRIMES = (5, 7, 11, 13)


def case_key(code: str, params: dict) -> str:
    """Stable label of one construction or field, e.g. ``p37 p1=7 p2=11``."""
    return " ".join([code, *(f"{k}={v}" for k, v in params.items())])


def cli_params(params: dict) -> list[str]:
    """The ``--name value`` arguments that select parameters on the CLI."""
    args = []
    for name, value in params.items():
        args += [f"--{name}", str(value)]
    return args


# certify: n = 15..32 with a large phi(m)/n, where cyclotomic products
# dominate, and p31 r=8 (n = 64), the n-scaling step toward the n = 128 rows,
# where LLL and dense Fraction coordinate solves dominate.
CERTIFY = (
    ("p37", {"p1": 7, "p2": 11}),
    ("p34", {"r": 4, "p": 11}),
    ("p32", {"p": 41}),
    ("p31", {"r": 7}),
    ("p31", {"r": 8}),
)

# The certification battery of tests/helpers.py.
BATTERY = (
    ("p31", {"r": 3}),
    ("p31", {"r": 4}),
    ("p31", {"r": 5}),
    ("p32", {"p": 7}),
    ("p32", {"p": 11}),
    ("p32", {"p": 13}),
    ("p34", {"r": 3, "p": 5}),
    ("p34", {"r": 4, "p": 5}),
    ("p34", {"r": 3, "p": 7}),
    ("p37", {"p1": 5, "p2": 7}),
    ("p37", {"p1": 5, "p2": 11}),
)

# decide-warm: the battery plus two p31 ideals whose closure scans are full
# n^2 scans.  p31 r=3 and r=4 warn (RuntimeWarning) at build time by design.
DECIDE_MODULES = BATTERY + (("p31", {"r": 6}), ("p31", {"r": 7}))

# The p31 modules are (principal) ideals; the others are not.  For each
# non-ideal, basis[i] * gamma[j] is a product outside the module: the
# witness the seed commit's closure test returns.  It gives the membership
# queries a known non-member; for the proper p31 ideals of index 2 the unit
# 1 is one.  The gate checks the closure answer and the contract of the
# witness the program returns now, not its position, which an algebraic
# closure test may change.
OUTSIDE_PRODUCTS = {
    "p32 p=7": (0, 2),
    "p32 p=11": (0, 4),
    "p32 p=13": (0, 5),
    "p34 r=3 p=5": (0, 0),
    "p34 r=4 p=5": (0, 0),
    "p34 r=3 p=7": (0, 1),
    "p37 p1=5 p2=7": (0, 1),
    "p37 p1=5 p2=11": (0, 3),
}

# Norm-oracle confirmations: coefficient box 2 for the battery modules with
# n <= 6 and for p34(4,5) (n = 8, about 390k determinants), box 1 for p31 r=5.
ORACLE_BOUNDS = (
    ("p31", {"r": 3}, 2),
    ("p31", {"r": 4}, 2),
    ("p32", {"p": 7}, 2),
    ("p32", {"p": 11}, 2),
    ("p32", {"p": 13}, 2),
    ("p34", {"r": 3, "p": 5}, 2),
    ("p34", {"r": 3, "p": 7}, 2),
    ("p37", {"p1": 5, "p2": 7}, 2),
    ("p34", {"r": 4, "p": 5}, 2),
    ("p31", {"r": 5}, 1),
)

# Membership queries per module and pass, drawn from the seed.
GAMMA_QUERIES = 3  # integer combinations of gamma: members
DOUBLE_BASIS_QUERIES = 3  # twice a combination of the integral basis: members (index 2)
OUTSIDE_QUERIES = 2  # a member plus a known non-member: not members
QUERY_COEFF = 3  # coefficients are drawn from [-QUERY_COEFF, QUERY_COEFF]


def survey_fields() -> tuple[tuple[str, dict], ...]:
    """The 31 fields of ``scripts/feasibility_survey.py --max-r 11 --max-p 13``."""
    rows = [("pow2", {"r": r}) for r in range(3, 12)]
    rows += [("odd-prime", {"p": p}) for p in PRIMES]
    rows += [("comp-pow2-odd", {"r": r, "p": p}) for r in range(3, 6) for p in PRIMES]
    rows += [
        ("comp-odd-odd", {"p1": p1, "p2": p2})
        for i, p1 in enumerate(PRIMES)
        for p2 in PRIMES[i + 1:]
    ]
    return tuple(rows)


SURVEY_FIELDS = survey_fields()

# Around the survey, a feasibility-survey pass runs `rotlat table1` and this
# `rotlat feasibility` command cold through the CLI: the commands of the two
# table layers, which no other workload runs.
FEASIBILITY_CLI = ("pow2", {"r": 11})

# The verdict the seed commit gives for every survey field.
SURVEY_VERDICTS = {
    **{f"pow2 r={r}": "KnownConstruction" for r in range(3, 12)},
    "odd-prime p=5": "NecessaryConditionHolds",
    "odd-prime p=7": "ImpossibleOddDisc",
    "odd-prime p=11": "ImpossibleOddDisc",
    "odd-prime p=13": "ImpossibleOddDisc",
    "comp-pow2-odd r=3 p=5": "NecessaryConditionHolds",
    "comp-pow2-odd r=3 p=7": "ImpossibleResidueCondition",
    "comp-pow2-odd r=3 p=11": "ImpossibleResidueCondition",
    "comp-pow2-odd r=3 p=13": "ImpossibleResidueCondition",
    # Pinned to what the program returns, on purpose.  The acceptance test
    # test_criterion_7_comp_pow2_odd_4_5_as_stated expects
    # ImpossibleResidueCondition and is knowingly red: here z = 22 and f = 2,
    # f divides 2 - z, so the residue obstruction cannot fire (see README).
    # Do not "fix" this pin to match that stale expectation.
    "comp-pow2-odd r=4 p=5": "NecessaryConditionHolds",
    "comp-pow2-odd r=4 p=7": "ImpossibleResidueCondition",
    "comp-pow2-odd r=4 p=11": "ImpossibleResidueCondition",
    "comp-pow2-odd r=4 p=13": "ImpossibleResidueCondition",
    "comp-pow2-odd r=5 p=5": "NecessaryConditionHolds",
    "comp-pow2-odd r=5 p=7": "ImpossibleResidueCondition",
    "comp-pow2-odd r=5 p=11": "ImpossibleResidueCondition",
    "comp-pow2-odd r=5 p=13": "ImpossibleResidueCondition",
    "comp-odd-odd p1=5 p2=7": "ImpossibleOddDisc",
    "comp-odd-odd p1=5 p2=11": "ImpossibleOddDisc",
    "comp-odd-odd p1=5 p2=13": "ImpossibleOddDisc",
    "comp-odd-odd p1=7 p2=11": "ImpossibleOddDisc",
    "comp-odd-odd p1=7 p2=13": "ImpossibleOddDisc",
    "comp-odd-odd p1=11 p2=13": "ImpossibleOddDisc",
}

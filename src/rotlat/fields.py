"""The four families of totally real cyclotomic subfields used by the
lattice constructions, plus field-relative norms and embeddings.

Families (conductor m, degree n):

  pow2           Q(zeta_{2^r} + zeta_{2^r}^-1)        m = 2^r      n = 2^(r-2)
  odd-prime      Q(zeta_p + zeta_p^-1)                m = p        n = (p-1)/2
  comp-pow2-odd  compositum of the two above          m = 2^r * p  n = n1*n2
  comp-odd-odd   compositum of two odd-prime fields   m = p1 * p2  n = n1*n2

FAMILIES holds one row per family: its parameters and its factor fields.
A FieldDesc is a plain value: the closed-form invariants m and n, with
disc computed on first read from a prime-exponent table.  The factors'
discriminants are coprime, so a compositum's discriminant is
prod d_i^(n/n_i), its integral basis is the product of the factor bases,
and O_K = Z[generators], one zeta_{m_i} + zeta_{m_i}^-1 per factor
(Neukirch, Algebraic Number Theory I.2.11).  The basis is built when first
read, and then (n <= 20) the discriminant is revalidated against the
trace-form determinant on it, which catches basis or reduction bugs.

Coordinates over the integral basis come from one sparse integer solve
per field (``linalg.pivot_inverse`` of the basis matrix, cached): the
bases are nearly triangular in the power basis, so D times the inverse of
the pivot block has few nonzero entries (the identity for pow2).  A
query is integer dot products of x's numerators (an element is integer
numerators over one denominator) with those entries, plus an exact
check that the result reproduces x.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, prod
from typing import Callable, NamedTuple

from .cyclo import CycloElt, Value, real_embedding_bounds, trace_form
from .linalg import det_int, gram_schmidt, pivot_inverse, sparse_vec_mat
from .numtheory import crt, euler_phi, is_prime


class Factor(NamedTuple):
    """A field Q(zeta_m + zeta_m^-1) named by one integer parameter.

    ``exponents`` lists the integral basis, each element as the exponents
    k of the powers zeta_m^k that it sums.  ``theta1_rows`` gives the
    sparse rows (column, coefficient) of multiplication by the generator
    theta_1 = zeta_m + zeta_m^-1 on that basis, in closed form.
    """

    rule: tuple[str, str]  # what a valid parameter is, for one and for several
    least: int  # the smallest valid parameter
    prime: bool  # whether a valid parameter is prime
    conductor: Callable[[int], int]
    degree: Callable[[int], int]
    disc: Callable[[int], tuple[int, int]]  # (prime, exponent): d = prime^exponent
    exponents: Callable[[int], tuple[tuple[int, ...], ...]]
    theta1_rows: Callable[[int], tuple[tuple[tuple[int, int], ...], ...]]


def _pow2_theta1_rows(r: int):
    """On the basis 1, theta_1, ..., theta_(n-1) (theta_i = zeta^i + zeta^-i):
    theta_1 * 1 = theta_1, theta_1^2 = theta_2 + 2, and theta_1 theta_i =
    theta_(i+1) + theta_(i-1), where theta_n = zeta_4 + zeta_4^-1 = 0."""
    n = 2 ** (r - 2)
    rows = [((1, 1),), ((0, 2), (2, 1)) if n > 2 else ((0, 2),)]
    rows += [((i - 1, 1), (i + 1, 1)) if i + 1 < n else ((i - 1, 1),) for i in range(2, n)]
    return tuple(rows)


def _odd_prime_theta1_rows(p: int):
    """On the basis theta_1, ..., theta_n (row and column j - 1 for theta_j):
    theta_1^2 = theta_2 + 2 = theta_2 - 2 sum_j theta_j, since 1 = -sum_j
    theta_j, and theta_1 theta_j = theta_(j+1) + theta_(j-1), where
    theta_(n+1) = theta_(p-n) = theta_n."""
    n = (p - 1) // 2
    rows = [tuple((k, -1 if k == 1 else -2) for k in range(n))]
    rows += [((j - 2, 1), (min(j, n - 1), 1)) for j in range(2, n + 1)]
    return tuple(rows)


POW2 = Factor(
    ("an integer", "integers"),
    3,
    False,
    lambda r: 2**r,
    lambda r: 2 ** (r - 2),
    lambda r: (2, (r - 1) * 2 ** (r - 2) - 1),
    lambda r: ((0,),) + tuple((i, -i) for i in range(1, 2 ** (r - 2))),
    _pow2_theta1_rows,
)

ODD_PRIME = Factor(
    ("a prime", "primes"),
    5,
    True,
    lambda p: p,
    lambda p: (p - 1) // 2,
    lambda p: (p, (p - 3) // 2),
    lambda p: tuple((j, -j) for j in range(1, (p - 1) // 2 + 1)),
    _odd_prime_theta1_rows,
)


# family -> its parameters, each naming one factor field
FAMILIES: dict[str, tuple[tuple[str, Factor], ...]] = {
    "pow2": (("r", POW2),),
    "odd-prime": (("p", ODD_PRIME),),
    "comp-pow2-odd": (("r", POW2), ("p", ODD_PRIME)),
    "comp-odd-odd": (("p1", ODD_PRIME), ("p2", ODD_PRIME)),
}


class FieldDesc(Value):
    """A totally real field from one of the four supported families, as
    its invariants; ``disc``, ``basis`` and ``generators`` are built on
    first read (``cached_property`` fills the instance dict directly, so
    the refused assignment does not stop it)."""

    _fields = ("family", "params", "m", "n")

    def __init__(self, family: str, params: tuple[tuple[str, int], ...], m: int, n: int):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def param(self, name: str) -> int:
        return dict(self.params)[name]

    @property
    def codegree(self) -> int:
        """Degree of Q(zeta_m) over this field."""
        return euler_phi(self.m) // self.n

    @property
    def conductors(self) -> tuple[int, ...]:
        """The factor fields' conductors m_i, whose product is m."""
        return tuple(kind.conductor(self.param(name)) for name, kind in FAMILIES[self.family])

    @property
    def _disc_exponents(self) -> dict[int, int]:
        """The discriminant as prime -> exponent: prod d_i^(n/n_i)."""
        table = {}
        for name, kind in FAMILIES[self.family]:
            v = self.param(name)
            p, e = kind.disc(v)
            table[p] = e * (self.n // kind.degree(v))
        return table

    @cached_property
    def disc(self) -> int:
        return prod(p**e for p, e in self._disc_exponents.items())

    @cached_property
    def generators(self) -> tuple[CycloElt, ...]:
        """zeta_{m_i} + zeta_{m_i}^-1 for each factor conductor m_i: O_K = Z[generators]."""
        return tuple(CycloElt.zeta_pair(mi, 1).lift(self.m) for mi in self.conductors)

    @cached_property
    def basis(self) -> tuple[CycloElt, ...]:
        """The integral basis, the product of the factor bases; built and
        (n <= 20) checked against disc on first read."""
        # zeta_{m_i}^k = zeta_m^(k m/m_i): each product of factor basis elements
        # is a sum of powers of zeta_m, written down without lifting or multiplying
        steps = [self.m // mi for mi in self.conductors]
        exponents = [kind.exponents(self.param(name)) for name, kind in FAMILIES[self.family]]
        basis = []
        for element in product(*exponents):
            coeffs = [0] * self.m
            for ks in product(*element):
                coeffs[sum(k * s for k, s in zip(ks, steps)) % self.m] += 1
            basis.append(CycloElt.from_coeffs(self.m, coeffs))
        if self.n <= 20:
            rows, den = trace_form(basis)
            try:  # the pass also proves the form positive definite, as K is totally real
                got = Fraction(gram_schmidt(rows)[0][-1], (den * self.codegree) ** self.n)
                problem = f"trace-form determinant {got} != stored discriminant {self.disc}"
            except ValueError:
                got, problem = None, "trace form is not positive definite"
            if got != self.disc:
                raise RuntimeError(
                    f"integral basis self-check failed for {self.family}{dict(self.params)}: {problem}")
        return tuple(basis)


def check_params(family: str, params, least: dict[str, int] | None = None) -> dict[str, int]:
    """The family's parameters from ``params``, checked; the package's one
    parameter check.

    Each value must be an int (never truncated) valid for its factor,
    factors of the same kind must differ, and no other name may appear.
    ``least`` raises the smallest valid value of named parameters above
    their factor's (a construction's own range), for every parameter of
    that factor kind, since one rule with one bound covers them all; the
    broken rule names the raised bound, and each value is tested once.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    for name in params:
        if name not in dict(FAMILIES[family]):
            raise ValueError(f"unexpected parameter {name!r} for {family}")
    values = {}
    for name, _ in FAMILIES[family]:
        if name not in params:
            raise ValueError(f"missing parameter {name!r}")
        if type(params[name]) is not int:
            raise ValueError(f"parameter {name!r} must be an integer, got {params[name]!r}")
        values[name] = params[name]
    for kind in dict.fromkeys(k for _, k in FAMILIES[family]):
        names = [name for name, k in FAMILIES[family] if k is kind]
        floor = max(kind.least, *(least.get(name, 0) for name in names)) if least else kind.least
        if not all(values[name] >= floor and (not kind.prime or is_prime(values[name]))
                   for name in names):
            raise ValueError(f"{' and '.join(names)} must be {kind.rule[len(names) > 1]} >= {floor}")
        if len({values[name] for name in names}) < len(names):
            raise ValueError(f"{' != '.join(names)} required")
    return values


def factor_degrees(family: str, params: dict[str, int]) -> tuple[int, ...]:
    """Degrees of the factor fields, from checked parameters; builds nothing."""
    return tuple(kind.degree(params[name]) for name, kind in FAMILIES[family])


def make_field(family: str, **params) -> FieldDesc:
    """Build (or fetch from cache) a field descriptor."""
    values = check_params(family, params)
    return _build_field(family, tuple(values.items()))


@lru_cache(maxsize=None)
def _build_field(family: str, params: tuple[tuple[str, int], ...]) -> FieldDesc:
    factors = [(kind, dict(params)[name]) for name, kind in FAMILIES[family]]
    return FieldDesc(family, params, prod(kind.conductor(v) for kind, v in factors),
                     prod(kind.degree(v) for kind, v in factors))


def subfield_degrees(field: FieldDesc) -> tuple[int, int]:
    """(n1, n2) for the two compositum factors."""
    degrees = factor_degrees(field.family, dict(field.params))
    if len(degrees) != 2:
        raise ValueError(f"{field.family} is not a compositum")
    return degrees


# -- Galois data ---------------------------------------------------------


@lru_cache(maxsize=None)
def fixing_generators(field: FieldDesc) -> tuple[int, ...]:
    """Generators of the subgroup of (Z/mZ)^* whose fixed field this is:
    one per factor, acting as conjugation on that factor and trivially on
    the others (found by CRT)."""
    return tuple(crt(mi - 1, mi, 1, field.m // mi) for mi in field.conductors)


@lru_cache(maxsize=None)
def fixing_subgroup(field: FieldDesc) -> frozenset[int]:
    els = {1}
    for g in fixing_generators(field):
        els |= {x * g % field.m for x in els}
    return frozenset(els)


@lru_cache(maxsize=None)
def embedding_reps(field: FieldDesc) -> tuple[int, ...]:
    """Canonical exponents k, one per real embedding, ascending.

    The embeddings of the field correspond to cosets of the fixing
    subgroup in (Z/mZ)^*; the smallest member represents each coset.
    """
    subgroup = fixing_subgroup(field)
    seen: set[int] = set()
    reps = []
    for k in range(1, field.m):
        if gcd(k, field.m) != 1 or k in seen:
            continue
        seen |= {k * h % field.m for h in subgroup}
        reps.append(k)
    if len(reps) != field.n:
        raise RuntimeError("embedding count does not match the field degree")
    return tuple(reps)


def is_element(field: FieldDesc, x: CycloElt) -> bool:
    """Whether x (same conductor) is fixed by the Galois subgroup cutting out the field."""
    if x.m != field.m:
        return False
    return all(x.galois(s) == x for s in fixing_generators(field))


def _require_member(x: CycloElt, field: FieldDesc) -> None:
    if not is_element(field, x):
        raise ValueError("element is not fixed by the Galois subgroup of the field")


# -- coordinates over the integral basis ---------------------------------


@lru_cache(maxsize=None)
def _basis_solver(field: FieldDesc):
    """The sparse integer solve for coordinates over the integral basis:
    ``pivot_inverse`` of the basis matrix (a row per basis element, over
    the power basis), and the nonzero integer coefficients of each basis
    element, for the span check."""
    if any(w.den != 1 for w in field.basis):
        raise RuntimeError("integral basis has non-integer coefficients")
    rows = [w.num for w in field.basis]
    try:
        pivots, den, inv, _ = pivot_inverse(rows)
    except ValueError:
        raise RuntimeError("integral basis is not full rank") from None
    terms = tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in rows)
    return pivots, den, inv, terms


@lru_cache(maxsize=None)
def generator_rows(field: FieldDesc) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """For each of ``field.generators``, the sparse rows (column,
    coefficient) of multiplication by it on the integral basis: row j is
    the coordinates of generator * basis[j].  Each factor's rows are its
    closed form (``Factor.theta1_rows``); on a compositum, whose basis is
    the product of the factor bases (first factor most significant), they
    act on their own factor's index and leave the others alone (M (x) I and
    I (x) M).  Nothing is multiplied or solved."""
    factors = [kind.theta1_rows(field.param(name)) for name, kind in FAMILIES[field.family]]
    degrees = [len(rows) for rows in factors]
    strides = [prod(degrees[t + 1:]) for t in range(len(degrees))]
    lifted = []
    for t, rows in enumerate(factors):
        out = []
        for index in product(*map(range, degrees)):
            base = sum(i * s for i, s in zip(index, strides)) - index[t] * strides[t]
            out.append(tuple((base + k * strides[t], c) for k, c in rows[index[t]]))
        lifted.append(tuple(out))
    return tuple(lifted)


def integer_coords(field: FieldDesc, x: CycloElt) -> tuple[list[int], int]:
    """Coordinates of x over the integral basis as integers a_j and one
    denominator s > 0: x = sum_j (a_j / s) w_j.

    The pivot entries of x's integer numerators are multiplied into the
    sparse rows of D * inverse, and the result is accepted only if
    sum_j a_j w_j = D d_x x holds exactly (d_x the denominator of x),
    which is the case iff x lies in the rational span of the basis.
    """
    if x.m != field.m:
        raise ValueError(f"conductor mismatch: {x.m} vs {field.m}")
    pivots, den, inv, terms = _basis_solver(field)
    xs, dx = x.num, x.den
    acc = sparse_vec_mat([xs[c] for c in pivots], inv, field.n)
    recon = sparse_vec_mat(acc, terms, len(xs))
    if any(r != den * v for r, v in zip(recon, xs)):
        raise ValueError("element is outside the rational span of the integral basis")
    return acc, den * dx


def integral_coords(field: FieldDesc, x: CycloElt) -> tuple[int, ...]:
    """Coordinates of x over the integral basis, which must be integers,
    i.e. x must lie in the ring of integers (else ValueError)."""
    acc, scale = integer_coords(field, x)
    if any(a % scale for a in acc):
        raise ValueError("element has non-integer coordinates over the integral basis")
    return tuple(a // scale for a in acc)


def coords_on_basis(field: FieldDesc, x: CycloElt) -> tuple[Fraction, ...]:
    """Coordinates of x over the integral basis; x must lie in the rational
    span of the basis (else ValueError).  See ``integer_coords``."""
    acc, scale = integer_coords(field, x)
    return tuple(Fraction(a, scale) for a in acc)


# -- field-relative norm, embeddings --------------------------------------


_SIGN_PRECISION_CAP = 1 << 13


def _pin(pairs, scale: int) -> int | None:
    """The integer |N(x)| >= 1 when enclosures [lo_j, hi_j] of D sigma_j(x)
    (scale = D^n) prove it, else None.  With L = prod max(lo_j, -hi_j, 0)
    and U = prod max(hi_j, -lo_j), |N(x)| lies in [L, U] / D^n, so
    v = ceil(L / D^n) >= 1 and U < (v + 1) D^n leave v as its only
    integer."""
    lower = prod(max(lo, -hi, 0) for lo, hi in pairs)
    upper = prod(max(hi, -lo) for lo, hi in pairs)
    value = -(-lower // scale)
    return value if value >= 1 and upper < (value + 1) * scale else None


def _enclosure_ladder(x: CycloElt, field: FieldDesc, bits: int = 0):
    """x's ``real_embedding_bounds`` at the least 64 * 2^k bits >= ``bits``,
    doubled up to ``_SIGN_PRECISION_CAP``: the one ladder of signs and norms."""
    reps = embedding_reps(field)
    for shift in range(max(6, (bits - 1).bit_length()), _SIGN_PRECISION_CAP.bit_length()):
        yield real_embedding_bounds(x, reps, 1 << shift)


def norm_real(x: CycloElt, field: FieldDesc) -> Fraction:
    """Norm of x from the field down to Q, exactly.  x.den x is integral, so
    the product of x's certified embedding enclosures pins its integer norm
    (``_pin``), with the product's sign, from the rung of the bit length of
    x's largest numerator (the bits needed grow with the coefficients).
    Zero, or a norm the cap leaves open, is the determinant of
    multiplication by x on the integral basis, whose cost does not."""
    _require_member(x, field)
    if x:
        for pairs, den in _enclosure_ladder(x, field, max(map(abs, x.num)).bit_length()):
            value = _pin(pairs, (den // x.den) ** field.n)
            if value is not None:
                return Fraction((-1) ** sum(hi < 0 for _, hi in pairs) * value, x.den**field.n)
    rows, scale = [], 1
    for w in field.basis:
        acc, s = integer_coords(field, x * w)
        rows.append(acc)
        scale *= s
    return Fraction(det_int(rows), scale)


def is_totally_positive(x: CycloElt, field: FieldDesc) -> bool:
    """Whether every real embedding of x is positive, exactly: the signs of
    x's enclosure numerators over a positive denominator (``_enclosure_ladder``,
    from the rung of the bit length of x's largest numerator, as in
    ``norm_real``, but at most the cap's), or past the cap whether
    Tr(x y^2) = sum_j sigma_j(x) sigma_j(y)^2 is positive definite."""
    if not x:
        return False
    _require_member(x, field)
    bits = min(max(map(abs, x.num)).bit_length(), _SIGN_PRECISION_CAP)
    for bounds, _ in _enclosure_ladder(x, field, bits):
        if all(lo > 0 for lo, _ in bounds):
            return True
        if any(hi < 0 for _, hi in bounds):
            return False
    try:
        gram_schmidt(trace_form(field.basis, x)[0])
    except ValueError:
        return False
    return True


def discriminant_2adic_valuation(field: FieldDesc) -> int:
    """v2 of the field discriminant, from its exponent table."""
    return field._disc_exponents.get(2, 0)


# -- serialization ---------------------------------------------------------


def field_to_json(field: FieldDesc) -> dict:
    return {
        "family": field.family,
        "params": dict(field.params),
        "m": field.m,
        "n": field.n,
        "disc": str(Decimal(field.disc)),  # exact, with no digit limit
    }


def field_from_json(obj) -> FieldDesc:
    if not isinstance(obj, dict):
        raise ValueError("field must be a JSON object")
    if not isinstance(obj["params"], dict):
        raise ValueError("field params must be a JSON object")
    if any(type(obj[key]) is not int for key in ("m", "n")) or not isinstance(obj["disc"], str):
        raise ValueError("field needs integer 'm' and 'n' and a string 'disc'")
    family = str(obj["family"])
    field = _build_field(family, tuple(check_params(family, obj["params"]).items()))
    # m and n, then the digit count, first: the discriminant can be far too
    # long to build or write.  A value of L digits has log10 in [L - 1, L);
    # half a digit either way absorbs the rounding of the 28-digit logs.
    disc = obj["disc"]
    if (obj["m"], obj["n"]) == (field.m, field.n):
        log = sum(e * Decimal(p).log10() for p, e in field._disc_exponents.items())
        if len(disc) - 1.5 < log < len(disc) + 0.5 and disc == str(Decimal(field.disc)):
            return field
    raise ValueError("stored field data does not match its parameters")

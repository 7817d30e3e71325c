"""Builders for the four twisted-module families whose scaled embeddings
are rotated D_n lattices, plus module index, membership and ideal tests.

A TwistedModule packages a rank-n integer module inside the ring of
integers (as a Z-basis gamma), a totally positive twist alpha, and the
integer c such that the lattice of interest is the twisted embedding of
the module divided by sqrt(c).
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from math import prod
from typing import Callable, NamedTuple

from .cyclo import CycloElt
from .fields import (
    FieldDesc,
    _basis_solver,
    _build_field,
    check_params,
    factor_degrees,
    field_from_json,
    field_to_json,
    generator_rows,
    integral_coords,
    is_totally_positive,
    subfield_degrees,
)
from .linalg import pivot_inverse, sparse_vec_mat


class TwistedModule(NamedTuple):
    field: FieldDesc
    gamma: tuple[CycloElt, ...]
    alpha: CycloElt
    c: int
    construction: str

    def __hash__(self) -> int:
        # fields that == also compares, without every coefficient of gamma and
        # alpha: a module keys the caches of every coordinate query
        return hash((self.field, self.construction, self.c))


def _p31(field: FieldDesc, q: dict) -> tuple[tuple[CycloElt, ...], CycloElt]:
    e = field.basis  # e[0] = 1, e[i] = zeta^i + zeta^-i
    n, m = field.n, field.m
    head = CycloElt.zero(m)
    for i in range(n - 1):
        head = head + (-2 if i % 2 == 0 else 2) * e[i]
    head = head + e[n - 1]
    tail = [(-1 if i % 2 == 0 else 1) * e[n - 1 - i] for i in range(n - 1)]
    return (head, *tail), 2 + e[1]


def _p32(field: FieldDesc, q: dict) -> tuple[tuple[CycloElt, ...], CycloElt]:
    b = field.basis  # b[0] = b_1, ..., b[n-1] = b_n
    n = field.n
    head = -b[0]
    for j in range(1, n):
        head = head - 2 * b[j]
    return (head, *b[: n - 1]), 2 - b[0]


def _product_twist(field: FieldDesc, doubled: int):
    """The compositum basis with one vector doubled, and alpha = (2 - e1)(2 - b1)
    for e1, b1 the ring generators of the two factors."""
    gamma = list(field.basis)
    gamma[doubled] = 2 * gamma[doubled]
    e1, b1 = field.generators
    return tuple(gamma), (2 - e1) * (2 - b1)


class Construction(NamedTuple):
    """One module construction.  ``scale`` and ``norm_alpha`` give c and
    N(alpha) as prime -> exponent tables from the checked parameters and
    the factor degrees, so closed forms never need the field built."""

    family: str
    scale: Callable[[dict], dict[int, int]]
    norm_alpha: Callable[[dict, tuple[int, ...]], dict[int, int]]
    make: Callable[[FieldDesc, dict], tuple[tuple[CycloElt, ...], CycloElt]]  # gamma, alpha
    min_norm: int = 1  # assumed minimum |N(x)| over the nonzero module elements
    least: dict[str, int] | None = None  # parameter floors above the family's own
    stated_from: tuple[str, int] | None = None  # below this bound, build warns


CONSTRUCTIONS: dict[str, Construction] = {
    # power-of-two real subfield, principal-ideal module, alpha = 2 + e1
    "p31": Construction(
        "pow2", lambda q: {2: q["r"] - 1}, lambda q, d: {2: 1}, _p31,
        min_norm=2, stated_from=("r", 5),
    ),
    # odd-prime real subfield, non-ideal module, alpha = 2 - e1
    "p32": Construction(
        "odd-prime", lambda q: {q["p"]: 1}, lambda q, d: {q["p"]: 1}, _p32, least={"p": 7},
    ),
    # compositum of the two, non-ideal module, product twist; the (i=0, j=n2)
    # product is doubled
    "p34": Construction(
        "comp-pow2-odd", lambda q: {2: q["r"] - 1, q["p"]: 1},
        lambda q, d: {2: d[1], q["p"]: d[0]},
        lambda K, q: _product_twist(K, subfield_degrees(K)[1] - 1),
    ),
    # compositum of two odd-prime fields, non-ideal module, product twist; the
    # last (i=n1, j=n2) product is doubled
    "p37": Construction(
        "comp-odd-odd", lambda q: {q["p1"]: 1, q["p2"]: 1},
        lambda q, d: {q["p1"]: d[1], q["p2"]: d[0]},
        lambda K, q: _product_twist(K, K.n - 1),
    ),
}

CONSTRUCTION_CODES = tuple(CONSTRUCTIONS)


def lookup(construction: str, params) -> tuple[Construction, dict[str, int], tuple[int, ...]]:
    """The table row of a construction, its parameters checked once by the
    family's rules and the construction's own, and its factor degrees.
    Codes are exact: ``CONSTRUCTION_CODES``, as the CLI and module files
    spell them."""
    if construction not in CONSTRUCTIONS:
        raise ValueError(
            f"unknown construction {construction!r}; expected one of {CONSTRUCTION_CODES}"
        )
    spec = CONSTRUCTIONS[construction]
    q = check_params(spec.family, params, spec.least)
    return spec, q, factor_degrees(spec.family, q)


def build(construction: str, **params) -> TwistedModule:
    """Build one of the named module constructions (see CONSTRUCTIONS).
    The parameters are checked once, by ``lookup``, and the field comes
    straight from the cache behind ``make_field``."""
    spec, q, _ = lookup(construction, params)
    field = _build_field(spec.family, tuple(q.items()))
    gamma, alpha = spec.make(field, q)
    c = prod(p**e for p, e in spec.scale(q).items())
    if spec.stated_from is not None and q[spec.stated_from[0]] < spec.stated_from[1]:
        name, bound = spec.stated_from
        warnings.warn(
            f"{construction} with {name}={q[name]} extends the construction below its stated "
            f"range ({name} >= {bound}); certification decides empirically",
            RuntimeWarning,
            stacklevel=2,
        )
    return _validated(TwistedModule(field, gamma, alpha, c, construction))


def _validated(module: TwistedModule) -> TwistedModule:
    coordinate_matrix(module)  # raises unless gamma is integral over the basis
    module_index(module)  # raises unless gamma is full rank
    if not is_totally_positive(module.alpha, module.field):
        raise ValueError("alpha is not totally positive")
    return module


# -- integer structure -----------------------------------------------------


@lru_cache(maxsize=None)
def coordinate_matrix(module: TwistedModule) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates of gamma over the integral basis (row per element)."""
    if len(module.gamma) != module.field.n:
        raise ValueError(
            f"gamma must have exactly {module.field.n} elements, got {len(module.gamma)}"
        )
    return tuple(integral_coords(module.field, g) for g in module.gamma)


@lru_cache(maxsize=None)
def _gamma_solver(module: TwistedModule):
    """The module's one elimination of its (square) coordinate matrix: D,
    the sparse rows of D * inverse, and the determinant.  Raises
    ValueError unless gamma is full rank."""
    rows = coordinate_matrix(module)  # its own ValueErrors pass through
    try:
        _, den, inv, det = pivot_inverse(rows)
    except ValueError:
        raise ValueError("gamma is not full rank") from None
    return den, inv, det


def module_index(module: TwistedModule) -> int:
    """Index of the module in the full ring of integers: |det| of the
    coordinate matrix, from the module's cached solve."""
    return abs(_gamma_solver(module)[2])


@lru_cache(maxsize=None)
def _membership_solver(module: TwistedModule):
    """The module's one solve from the power basis to gamma: the pivot
    columns P of the field's basis solve, one denominator D = D_B D_C, the
    sparse rows of R = (D_B B_P^-1)(D_C C^-1), and the nonzero power-basis
    numerators of each gamma_i.  A numerator vector v of x in the rational
    span gives v[P] R = D x.den times x's coordinates over gamma.  Raises
    ValueError unless gamma is integral and of full rank."""
    den_c, inv_c, _ = _gamma_solver(module)
    pivots, den_b, inv_b, _ = _basis_solver(module.field)
    n = module.field.n
    rows = []
    for row in inv_b:  # a row of D_B B_P^-1, times D_C C^-1
        acc = sparse_vec_mat([a for _, a in row], [inv_c[j] for j, _ in row], n)
        rows.append(tuple((k, v) for k, v in enumerate(acc) if v))
    terms = tuple(tuple((k, c) for k, c in enumerate(g.num) if c) for g in module.gamma)
    return pivots, den_b * den_c, tuple(rows), terms


def _module_coords(module: TwistedModule, x: CycloElt) -> tuple[list[int], int] | None:
    """Coordinates of x over gamma as integers b_i and one denominator s:
    x = sum_i (b_i / s) gamma_i.  One sparse product of x's pivot
    numerators with the rows of ``_membership_solver`` gives them, and they
    are accepted only if sum_i b_i gamma_i = s x holds on the numerators.
    None when x has another conductor or lies outside the rational span of
    the integral basis; a gamma that is not of full rank raises ValueError,
    since its inverse decides nothing."""
    pivots, den, rows, terms = _membership_solver(module)
    if x.m != module.field.m:
        return None
    xs = x.num
    coords = sparse_vec_mat([xs[c] for c in pivots], rows, module.field.n)
    if sparse_vec_mat(coords, terms, len(xs)) != [den * v for v in xs]:
        return None
    return coords, den * x.den


def in_module(module: TwistedModule, x: CycloElt) -> bool:
    """Whether x lies in the module: its coordinates over gamma are
    integers.  The module lies in O_K, inside Z[zeta_m], so an x of another
    conductor or with a denominator is not in it.  Otherwise x's pivot
    numerators times the rows of ``_membership_solver`` are D times its
    coordinates over gamma; D must divide each, and only then is
    sum_i (b_i / D) gamma_i = x checked on gamma's numerators, which also
    rejects an x outside the rational span of the integral basis.  A gamma
    that is not of full rank raises ValueError."""
    pivots, den, rows, terms = _membership_solver(module)
    if x.m != module.field.m or x.den != 1:
        return False
    xs = x.num
    coords = sparse_vec_mat([xs[c] for c in pivots], rows, module.field.n)
    if any(b % den for b in coords):
        return False
    return sparse_vec_mat([b // den for b in coords], terms, len(xs)) == list(xs)


# -- ideal test -------------------------------------------------------------


class IdealityWitness(NamedTuple):
    basis_factor: CycloElt  # a ring generator (``FieldDesc.generators``)
    module_factor: CycloElt
    product: CycloElt


class IdealCheck(NamedTuple):
    is_ideal: bool
    witness: IdealityWitness | None


def is_ideal(module: TwistedModule) -> IdealCheck:
    """Whether the module is closed under multiplication by the ring of integers.

    O_K = Z[generators], one generator per factor field, so a Z-module
    closed under each generator is closed under O_K.  Closure is decided
    on integer coordinates, with no element multiplied: with C the
    coordinate matrix of gamma and M_w the closed-form rows of
    multiplication by a generator w (``fields.generator_rows``), the row
    C_i M_w is w * gamma_i on the integral basis, and times the module's
    D * C^-1 it is D times w * gamma_i over gamma, so w * gamma_i is in the
    module iff D divides every entry.  On failure the first offending
    product (in generator x gamma order) is returned as a witness, read off
    its integer coordinates u = C_i M_w: u times the integral basis's
    power-basis numerators is w * gamma_i exactly, so no element is
    multiplied.  A gamma that is not integral, or not of full rank, raises
    ValueError.
    """
    den, inv, _ = _gamma_solver(module)
    field, n = module.field, module.field.n
    basis_terms = _basis_solver(field)[3]
    for w, rows in zip(field.generators, generator_rows(field)):
        for g, coords in zip(module.gamma, coordinate_matrix(module)):
            u = sparse_vec_mat(coords, rows, n)
            if any(b % den for b in sparse_vec_mat(u, inv, n)):
                product = CycloElt(field.m, tuple(sparse_vec_mat(u, basis_terms, len(w.num))))
                return IdealCheck(False, IdealityWitness(w, g, product))
    return IdealCheck(True, None)


# -- serialization -----------------------------------------------------------


def module_to_json(module: TwistedModule) -> dict:
    return {
        "field": field_to_json(module.field),
        "gamma": [g.to_json() for g in module.gamma],
        "alpha": module.alpha.to_json(),
        "c": module.c,
        "construction": module.construction,
    }


def module_from_json(obj) -> TwistedModule:
    """The module a ``module_to_json`` object describes.  ``field_from_json``
    applies the family's parameter rules; a registered (exact) construction
    code then needs its family and passes its own ``check``.  Any other
    code, such as ``"ambient"``, is a module outside the registry."""
    if not isinstance(obj, dict):
        raise ValueError("module must be a JSON object")
    field = field_from_json(obj["field"])
    if not isinstance(obj["gamma"], list):
        raise ValueError("gamma must be a list of elements")
    # conductors are compared before decoding: building an element factors its m
    if any(isinstance(e, dict) and type(e["m"]) is int and e["m"] != field.m
           for e in (*obj["gamma"], obj["alpha"])):
        raise ValueError("conductor mismatch between field and elements")
    gamma = tuple(CycloElt.from_json(g) for g in obj["gamma"])
    alpha = CycloElt.from_json(obj["alpha"])
    c = obj["c"]
    if type(c) is not int or c <= 0:
        raise ValueError("scale c must be a positive integer")
    construction = obj["construction"]
    if not isinstance(construction, str):
        raise ValueError("construction must be a JSON string")
    spec = CONSTRUCTIONS.get(construction)
    if spec is not None:
        if spec.family != field.family:
            raise ValueError(f"construction {construction} needs a {spec.family} field")
        # field_from_json has applied the family's rules; only the raised
        # floors are left, and the one parameter check names a broken one
        if any(field.param(name) < low for name, low in (spec.least or {}).items()):
            check_params(field.family, dict(field.params), spec.least)
    return _validated(TwistedModule(field, gamma, alpha, c, construction))

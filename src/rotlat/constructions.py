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
    check_params,
    factor_degrees,
    field_from_json,
    field_to_json,
    integer_coords,
    integral_coords,
    is_totally_positive,
    make_field,
    subfield_degrees,
)
from .linalg import pivot_inverse, sparse_vec_mat
from .numtheory import is_prime


class TwistedModule(NamedTuple):
    field: FieldDesc
    gamma: tuple[CycloElt, ...]
    alpha: CycloElt
    c: int
    construction: str
    extrapolated: bool = False

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


def _p32_check(q: dict) -> None:
    if q["p"] < 7 or not is_prime(q["p"]):
        raise ValueError("p must be a prime >= 7")


class Construction(NamedTuple):
    """One module construction.  ``scale`` and ``norm_alpha`` give c and
    N(alpha) as prime -> exponent tables from the checked parameters and
    the factor degrees, so closed forms never need the field built."""

    family: str
    scale: Callable[[dict], dict[int, int]]
    norm_alpha: Callable[[dict, tuple[int, ...]], dict[int, int]]
    make: Callable[[FieldDesc, dict], tuple[tuple[CycloElt, ...], CycloElt]]  # gamma, alpha
    min_norm: int = 1  # assumed minimum |N(x)| over the nonzero module elements
    check: Callable[[dict], None] | None = None  # beyond the family's own rules
    stated_from: tuple[str, int] | None = None  # below this bound: extrapolated


CONSTRUCTIONS: dict[str, Construction] = {
    # power-of-two real subfield, principal-ideal module, alpha = 2 + e1
    "p31": Construction(
        "pow2", lambda q: {2: q["r"] - 1}, lambda q, d: {2: 1}, _p31,
        min_norm=2, stated_from=("r", 5),
    ),
    # odd-prime real subfield, non-ideal module, alpha = 2 - e1
    "p32": Construction(
        "odd-prime", lambda q: {q["p"]: 1}, lambda q, d: {q["p"]: 1}, _p32, check=_p32_check,
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
    """The table row of a construction, its checked parameters and its
    factor degrees."""
    code = construction.lower()
    if code not in CONSTRUCTIONS:
        raise ValueError(
            f"unknown construction {construction!r}; expected one of {CONSTRUCTION_CODES}"
        )
    spec = CONSTRUCTIONS[code]
    q = check_params(spec.family, params, spec.check)
    return spec, q, factor_degrees(spec.family, q)


def _is_extrapolated(spec: Construction, q: dict) -> bool:
    return spec.stated_from is not None and q[spec.stated_from[0]] < spec.stated_from[1]


def build(construction: str, **params) -> TwistedModule:
    """Build one of the named module constructions (see CONSTRUCTIONS)."""
    spec, q, _ = lookup(construction, params)
    field = make_field(spec.family, **q)
    gamma, alpha = spec.make(field, q)
    c = prod(p**e for p, e in spec.scale(q).items())
    code = construction.lower()
    extrapolated = _is_extrapolated(spec, q)
    if extrapolated:
        name, bound = spec.stated_from
        warnings.warn(
            f"{code} with {name}={q[name]} extends the construction below its stated range "
            f"({name} >= {bound}); certification decides empirically",
            RuntimeWarning,
            stacklevel=2,
        )
    return _validated(TwistedModule(field, gamma, alpha, c, code, extrapolated))


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


def _module_coords(module: TwistedModule, x: CycloElt) -> tuple[list[int], int]:
    """Coordinates of x over gamma as integers b_i and one denominator s:
    x = sum_i (b_i / s) gamma_i."""
    acc, scale = integer_coords(module.field, x)
    den, inv, _ = _gamma_solver(module)
    return sparse_vec_mat(acc, inv, module.field.n), den * scale


def in_module(module: TwistedModule, x: CycloElt) -> bool:
    try:
        coords, scale = _module_coords(module, x)
    except ValueError:
        return False
    return not any(b % scale for b in coords)


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
    closed under each generator is closed under O_K: n products per
    generator.  On failure the first offending product (in generator x
    gamma order) is returned as a witness.
    """
    for w in module.field.generators:
        for g in module.gamma:
            product = w * g
            if not in_module(module, product):
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
    extrapolated = False
    if construction in CONSTRUCTIONS:
        spec = CONSTRUCTIONS[construction]
        if spec.family != field.family:
            raise ValueError(f"construction {construction} needs a {spec.family} field")
        extrapolated = _is_extrapolated(spec, lookup(construction, dict(field.params))[1])
    return _validated(TwistedModule(field, gamma, alpha, c, construction, extrapolated))

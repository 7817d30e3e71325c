"""Minimum product distances of the four lattice constructions.

Closed forms are carried as prime-exponent tables with half-integer
exponents; floats appear only at the output boundary (the per-dimension
value, i.e. the n-th root of the relative minimum product distance).
Each construction's tables come from one registry ``lookup``
(``_closed_form``), which ``dp_closed_form`` and every ``table1`` cell read.
The minimum-norm assumption behind the closed forms is checked from the
module itself.  Every nonzero norm of a module M in O_K is at least its
proven floor: 1, or the index [O_K : M] when M is an ideal, since every
nonzero norm of an ideal is a multiple of its index.  The elements gamma_i
lie in every coefficient box, so when one of them has its norm at the
floor, that norm is the exact minimum over the box: a unit for p32, p34
and p37, an element of norm 2, the index, of the p31 ideal e_1 O_K.  Only
when no gamma_i reaches the floor is the box walked.  The walk takes
exact norms of one of each pair +-x (|N(-x)| = |N(x)|).  Norms of nonzero
module elements are positive integers, so a vector whose certified integer
embedding bounds prove |N(x)| > best - 1 cannot beat the current minimum
and is passed over.  Each vector left gets its exact norm from the same
kind of bounds: the product of the enclosures of |sigma_j(x)| pins one
integer at the module's 64-bit bounds, and where those are too wide, the
package's one exact norm ``fields.norm_real`` gives it.  The box is scanned
one sup-norm shell at a time, smallest coefficients first (Fincke &
Pohst's enumeration by increasing size, applied to the norm form), and the
scan ends at the module's floor.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .constructions import (
    Construction,
    TwistedModule,
    coordinate_matrix,
    is_ideal,
    lookup,
    module_index,
)
from .cyclo import real_embedding_bounds
from .fields import _pin, embedding_reps, norm_real
from .numtheory import factorize

_HALF = Fraction(1, 2)

# Exponent tables map prime -> exponent; the represented value is
# prod p^e.  Entries with exponent zero are dropped.
ExponentTable = dict[int, Fraction]


def _clean(table: ExponentTable) -> ExponentTable:
    return {p: e for p, e in sorted(table.items()) if e}


def _closed_form(
    construction: str, params
) -> tuple[Construction, int, ExponentTable, ExponentTable]:
    """One lookup of a construction: its table row, the lattice dimension
    n, and the exponent tables of its minimum product distance, unscaled
    (sqrt(N(alpha)) times the assumed minimum norm) and relative (the
    unscaled value renormalized by 1/sqrt(2)^n, the minimum norm of D_n,
    and by 1/sqrt(c)^n)."""
    spec, q, dims = lookup(construction, params)
    n = math.prod(dims)
    unscaled = {p: e * _HALF for p, e in spec.norm_alpha(q, dims).items()}
    for p, e in factorize(spec.min_norm):
        unscaled[p] = unscaled.get(p, Fraction(0)) + e
    unscaled = _clean(unscaled)
    rel = dict(unscaled)
    # two steps: the scale table of p31 holds the prime 2 as well
    rel[2] = rel.get(2, Fraction(0)) - n * _HALF
    for p, e in spec.scale(q).items():
        rel[p] = rel.get(p, Fraction(0)) - n * _HALF * e
    return spec, n, unscaled, _clean(rel)


def per_dimension(table: ExponentTable, n: int) -> float:
    """n-th root of the represented value, as a float."""
    return math.exp(sum(float(e) / n * math.log(p) for p, e in table.items()))


def exponents_to_square_radicand(table: ExponentTable) -> tuple[int, int]:
    """Split prod p^e (e >= 0, half-integer) as square_part * sqrt(radicand)."""
    square, radicand = 1, 1
    for p, e in table.items():
        if e < 0:
            raise ValueError("expected non-negative exponents")
        twice = int(e * 2)
        square *= p ** (twice // 2)
        if twice % 2:
            radicand *= p
    return square, radicand


class DistanceResult(NamedTuple):
    dp_unscaled: tuple[int, int]  # (square_part, radicand)
    dp_rel: tuple[tuple[int, Fraction], ...]  # prime-exponent table
    dp_rel_per_dim: float
    min_norm_assumed: int
    oracle_confirmed: bool


def dp_closed_form(module: TwistedModule, confirm_bound: int | None = None) -> DistanceResult:
    """Closed-form minimum product distances for one of the four constructions.

    With confirm_bound set, ``oracle_confirmed`` says whether the exact
    minimum of |norm| over that coefficient box (``_box_minimum``) is the
    assumed minimum norm.
    """
    spec, n, unscaled, rel = _closed_form(module.construction, dict(module.field.params))
    confirmed = False
    if confirm_bound is not None:
        confirmed = _box_minimum(module, confirm_bound) == spec.min_norm
    return DistanceResult(
        dp_unscaled=exponents_to_square_radicand(unscaled),
        dp_rel=tuple(rel.items()),
        dp_rel_per_dim=per_dimension(rel, n),
        min_norm_assumed=spec.min_norm,
        oracle_confirmed=confirmed,
    )


# -- minimum-norm oracle -------------------------------------------------------


class NormSearchResult(NamedTuple):
    min_abs_norm: int
    witness: tuple[int, ...]
    exhaustive: bool
    evaluated: int  # box vectors scanned, one of each pair +-x
    determinants: int  # exact norms computed; the rest were pruned


# Default work budget of the search, in box vectors.
NORM_SEARCH_BUDGET = 2_000_000

# Leaf precision of the module's embedding bounds.  It decides how many
# vectors are pruned and how many exact norms go to ``norm_real``, never
# the result, so it is fixed.
_BOUND_PREC = 64


@lru_cache(maxsize=None)
def _gamma_enclosures(module: TwistedModule):
    """Certified bounds of sigma_j(gamma_i) at ``_BOUND_PREC``: per gamma
    element, the (lower, upper) numerators over the n embeddings, all over
    one common denominator D, returned with D^n.  They depend on the module
    alone, so every search of a module reads the same ones."""
    reps = embedding_reps(module.field)
    bounds = [real_embedding_bounds(g, reps, _BOUND_PREC) for g in module.gamma]
    den = math.lcm(*(d for _, d in bounds))
    rows = tuple(
        (tuple(den // d * low for low, _ in pairs), tuple(den // d * high for _, high in pairs))
        for pairs, d in bounds
    )
    return rows, den ** len(reps)


def _embedding_steps(module: TwistedModule, coeff_bound: int):
    """Certified bounds of c * sigma_j(gamma_i) for every coefficient c in
    [-coeff_bound, coeff_bound]: ``steps[i][c + coeff_bound]`` is the pair
    (lower numerators, negated upper numerators) over the n embeddings, all
    over one common denominator D, returned with D^n."""
    rows, scale = _gamma_enclosures(module)
    steps = []
    for lo, hi in rows:
        row = []
        for c in range(-coeff_bound, coeff_bound + 1):
            low, high = (hi, lo) if c < 0 else (lo, hi)
            row.append(([c * v for v in low], [-c * v for v in high]))
        steps.append(row)
    return steps, scale


def _pinned_norm(module: TwistedModule, a: tuple[int, ...]) -> int:
    """|N(sum a_i gamma_i)|, an integer (gamma is integral): pinned by the
    module's enclosures summed (``_pin``), or, if too wide, ``norm_real``."""
    rows, scale = _gamma_enclosures(module)
    terms = [(c, (hi, lo) if c < 0 else (lo, hi)) for c, (lo, hi) in zip(a, rows) if c]
    pairs = [
        (sum(c * low[j] for c, (low, _) in terms), sum(c * high[j] for c, (_, high) in terms))
        for j in range(len(rows))
    ]
    value = _pin(pairs, scale)
    if value is not None:
        return value
    return int(abs(norm_real(sum(c * g for c, g in zip(a, module.gamma) if c), module.field)))


def _pruning_bounds(steps, coeff_bound: int):
    """One of each pair +-a of nonzero box vectors, the one whose first
    nonzero coordinate is negative, with prod_j max(lo_j, -hi_j, 0): a
    lower bound of D^n |N(x)|, where [lo_j, hi_j] is the interval sum of
    ``steps[i][a_i]`` enclosing D sigma_j(x).

    Shell k = 1, ..., coeff_bound, the vectors with max |a_i| = k, is walked
    depth first in the product order over the alphabet 0, -1, 1, ..., -k, k
    (last coordinate fastest), which puts each vector before its negative.
    A popped head adds its last coordinate's step to its parent's sums
    once, then pushes its children in reverse order or, one short of n,
    yields its leaves.  Before the first nonzero coordinate only 0, -1,
    ..., -k and a last -k are taken; a head with no coordinate +-k lies in
    the inner box and takes only the last coordinates -k and k."""
    n = len(steps)
    zeros = [0] * n
    for k in range(1, coeff_bound + 1):
        alphabet = [0] + [s * c for c in range(1, k + 1) for s in (-1, 1)]
        children, leading = alphabet[::-1], alphabet[-2:0:-2] + [0]  # -k, ..., -1, 0
        stack = [((), zeros, zeros)]
        while stack:
            head, lo, nhi = stack.pop()
            if head:
                step_lo, step_nhi = steps[len(head) - 1][head[-1] + coeff_bound]
                lo, nhi = list(map(add, lo, step_lo)), list(map(add, nhi, step_nhi))
            started = any(head)
            if len(head) < n - 1:
                stack.extend((head + (c,), lo, nhi) for c in (children if started else leading))
                continue
            edge = k in head or -k in head
            for c in alphabet if edge else alphabet[-2:] if started else alphabet[-2:-1]:
                step_lo, step_nhi = steps[-1][c + coeff_bound]
                lows = map(max, map(add, lo, step_lo), map(add, nhi, step_nhi), zeros)
                yield head + (c,), math.prod(lows)


def _at_norm_floor(module: TwistedModule, value: int) -> bool:
    """Whether the norm ``value`` of a nonzero module element is proven
    minimal: value is 1, or value is the index [O_K : M] of a module M that
    is an ideal, since then xO_K lies in M and |N(x)| = [O_K : xO_K] =
    [O_K : M] [M : xO_K] (Neukirch, I.2 and I.6).  Both inputs are exact
    (the determinant of the coordinate matrix and closure under the ring
    generators), and closure is tested only when value is the index.  A
    gamma that is not of full rank has no index, and only 1 is minimal.
    The floor comes from the module, never from the registry's
    ``min_norm``: ``_box_minimum`` and ``min_norm_search`` both stop at
    it."""
    if value == 1:
        return True
    try:
        index = module_index(module)
    except ValueError:
        return False
    return value == index and is_ideal(module).is_ideal


def min_norm_search(
    module: TwistedModule, coeff_bound: int, budget: int = NORM_SEARCH_BUDGET
) -> NormSearchResult:
    """Exact minimum of |norm| over nonzero integer combinations of gamma
    with coefficients bounded by coeff_bound, plus a witness vector.

    Since |N(-x)| = |N(x)|, only the vectors whose first nonzero coordinate
    is negative are scanned: half the box, and ``evaluated`` and the budget
    count those.  They are scanned by increasing sup-norm, one shell at a
    time (see ``_pruning_bounds`` for the order within a shell); each comes
    before its negative in the order over the whole box, so the witness is
    the first vector of the box attaining the minimum.  The scan stops
    early once a new minimum is the module's proven norm floor
    (``_at_norm_floor``): 1 (no nonzero algebraic integer does better), or
    the index when the module is an ideal.  The minimum only falls, so it
    equals the index at most once, and closure is tested at most once per
    search.  A unit of small coefficients, or in an ideal such an element
    whose norm is the index, stops the scan in the first shell; a budget
    overrun returns a partial result, flagged and warned about.

    Every reported norm is exact: gamma must be integral (else ValueError,
    before the scan), so |N(x)| is a positive integer, pinned by certified
    enclosures of the n embeddings of x (``_pinned_norm``: the module's
    64-bit bounds summed, or ``norm_real`` when they do not pin one
    integer).  A certified embedding bound above best - 1 proves
    |N(x)| >= best: such a vector could never replace the current minimum
    and is passed over (Fincke & Pohst's pruning, applied to the norm
    form).  The first vector attaining each new minimum always gets its
    exact norm.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    coordinate_matrix(module)  # raises unless gamma is integral over the basis
    steps, scale = _embedding_steps(module, coeff_bound)
    best: int | None = None
    cutoff = math.inf  # (best - 1) * D^n: a larger bound proves |N(x)| >= best
    witness: tuple[int, ...] = ()
    evaluated = determinants = 0
    for a, lower in _pruning_bounds(steps, coeff_bound):
        if evaluated >= budget:
            box = (2 * coeff_bound + 1) ** module.field.n - 1
            warnings.warn(
                f"norm search of a box of {box} vectors ({box // 2} up to sign) "
                f"stopped at the work budget {budget}; the result is partial",
                RuntimeWarning,
                stacklevel=2,
            )
            return NormSearchResult(best, witness, False, evaluated, determinants)
        evaluated += 1
        if lower > cutoff:
            continue
        determinants += 1
        value = _pinned_norm(module, a)
        if best is None or value < best:
            best, witness = value, a
            if _at_norm_floor(module, value):
                break
            cutoff = (value - 1) * scale
    return NormSearchResult(best, witness, True, evaluated, determinants)


def _box_minimum(module: TwistedModule, coeff_bound: int) -> int | None:
    """The exact minimum of |norm| over the coefficient box of
    ``min_norm_search``, or None when the search stops at its budget.

    The unit vectors lie in every box, so when gamma is of full rank the
    exact norms of gamma_0, ..., gamma_(n-1) come first, and the first one
    at the module's proven floor (``_at_norm_floor``) is the minimum.  A
    norm that is not the floor is not tested again, so closure is tested
    at most once.  Only when no gamma_i reaches the floor, or gamma is not
    of full rank (then a box vector may give the zero element), is the box
    walked, by ``min_norm_search``.  The checks come first, as in the
    search."""
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    coordinate_matrix(module)  # raises unless gamma is integral over the basis
    n = len(module.gamma)
    try:
        module_index(module)
    except ValueError:
        n = 0  # not of full rank: only the walk decides
    passed = set()
    for i in range(n):
        value = _pinned_norm(module, tuple(int(j == i) for j in range(n)))
        if value not in passed:
            if _at_norm_floor(module, value):
                return value
            passed.add(value)
    found = min_norm_search(module, coeff_bound)
    return found.min_abs_norm if found.exhaustive else None


# -- the published comparison table -------------------------------------------


class TableRow(NamedTuple):
    n: int
    p: int | None = None
    r: int | None = None
    r1: int | None = None
    p1: int | None = None
    p2: int | None = None
    p3: int | None = None


TABLE_ROWS: tuple[TableRow, ...] = (
    TableRow(3, p=7),
    TableRow(4, r=4, r1=3, p1=5),
    TableRow(5, p=11),
    TableRow(6, p=13, r1=3, p1=7),
    TableRow(8, p=17, r=5, r1=4, p1=5),
    TableRow(10, r1=3, p1=11),
    TableRow(11, p=23),
    TableRow(12, r1=3, p1=13),
    TableRow(14, p=29),
    TableRow(15, p=31, p2=7, p3=11),
    TableRow(16, r=6, r1=5, p1=5),
    TableRow(18, p=37, r1=3, p1=19),
    TableRow(20, p=41, r1=4, p1=11),
    TableRow(128, p=257, r=9),
    TableRow(32768, p=65537, r=17),
)

# Reference tabulation value for the comp-odd-odd cell at n = 15; it does
# not agree with the closed form (either order of the two primes), so the
# emitted table shows both and flags the discrepancy instead of silently
# matching one side.
K4_REFERENCE_N15 = "0.1380198"


# Table columns: the construction each one tabulates, and the TableRow
# attribute that holds each of its parameters.
_COLUMNS = (
    ("K1", "p32", {"p": "p"}),
    ("K2", "p31", {"r": "r"}),
    ("K3", "p34", {"r": "r1", "p": "p1"}),
    ("K4", "p37", {"p1": "p2", "p2": "p3"}),
)


def table1() -> list[dict]:
    """Per-dimension relative minimum product distances, one dict per row
    of TABLE_ROWS.

    Only closed forms are evaluated, so even the n = 32768 row completes
    instantly; no Gram matrix is ever built here.
    """
    out = []
    for row in TABLE_ROWS:
        rec: dict = {
            "n": row.n, "p": row.p, "r": row.r, "r1": row.r1,
            "p1": row.p1, "p2": row.p2, "p3": row.p3,
            "K1": None, "K2": None, "K3": None, "K4": None, "note": "",
        }
        for column, code, attrs in _COLUMNS:
            params = {name: getattr(row, attr) for name, attr in attrs.items()}
            if None in params.values():
                continue
            _, n, _, rel = _closed_form(code, params)
            if n != row.n:
                raise ValueError(f"row n={row.n}: {column} parameters give dimension {n}")
            rec[column] = per_dimension(rel, row.n)
        if rec["K4"] is not None and row.n == 15:
            rec["note"] = (
                f"closed form {rec['K4']:.6g} disagrees with the reference "
                f"tabulation value {K4_REFERENCE_N15}"
            )
        out.append(rec)
    return out


def table1_csv() -> str:
    """CSV rendering: one line per row, empty cells where a column does
    not apply, and a trailing note column for flagged cells."""
    lines = [
        "# per-dimension relative minimum product distance, i.e. the n-th root of d_rel",
        "n,p,r,r1,p1,p2,p3,K1,K2,K3,K4,note",
    ]
    for rec in table1():
        cells = [str(rec["n"])]
        for key in ("p", "r", "r1", "p1", "p2", "p3"):
            cells.append("" if rec[key] is None else str(rec[key]))
        for key in ("K1", "K2", "K3", "K4"):
            cells.append("" if rec[key] is None else format(rec[key], ".6g"))
        note = rec["note"]
        cells.append(f'"{note}"' if note else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

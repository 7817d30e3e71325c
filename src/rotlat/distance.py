"""Minimum product distances of the four lattice constructions.

Closed forms are carried as prime-exponent tables with half-integer
exponents; floats appear only at the output boundary (the per-dimension
value, i.e. the n-th root of the relative minimum product distance).
A coefficient-box search over the module provides the independent
check of the minimum-norm assumption behind the closed forms: exact
determinants of one of each pair +-x (|N(-x)| = |N(x)|).  Norms of
nonzero module elements are positive integers, so a vector whose certified
integer embedding bounds prove |N(x)| > best - 1 cannot beat the current
minimum and is passed over.  The box is scanned one sup-norm shell at a
time, smallest coefficients first, so a unit of small coefficients ends the
search early (Fincke & Pohst's enumeration by increasing size, applied to
the norm form).
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .constructions import TwistedModule, lookup
from .cyclo import real_embedding_bounds
from .fields import embedding_reps, integral_coords
from .linalg import det_int, sparse_vec_mat
from .numtheory import factorize

_HALF = Fraction(1, 2)

# Exponent tables map prime -> exponent; the represented value is
# prod p^e.  Entries with exponent zero are dropped.
ExponentTable = dict[int, Fraction]


def _clean(table: ExponentTable) -> ExponentTable:
    return {p: e for p, e in sorted(table.items()) if e}


def _table(exponents: dict[int, int], factor=Fraction(1)) -> ExponentTable:
    return _clean({p: factor * e for p, e in exponents.items()})


def lattice_dimension(construction: str, **params) -> int:
    return math.prod(lookup(construction, params)[2])


def scale_exponents(construction: str, **params) -> ExponentTable:
    """Exponent table of the scale integer c."""
    spec, q, _ = lookup(construction, params)
    return _table(spec.scale(q))


def dp_unscaled_exponents(construction: str, **params) -> ExponentTable:
    """Minimum product distance of the unscaled twisted embedding,
    sqrt(norm(alpha)) times the assumed minimum norm over the module."""
    spec, q, dims = lookup(construction, params)
    table = _table(spec.norm_alpha(q, dims), _HALF)
    for p, e in factorize(spec.min_norm):
        table[p] = table.get(p, Fraction(0)) + e
    return _clean(table)


def dp_rel_exponents(construction: str, **params) -> ExponentTable:
    """Relative minimum product distance: the unscaled value renormalized
    by 1/sqrt(2)^n (minimum norm of D_n) and 1/sqrt(c)^n."""
    n = lattice_dimension(construction, **params)
    table = dict(dp_unscaled_exponents(construction, **params))
    table[2] = table.get(2, Fraction(0)) - n * _HALF
    for p, e in scale_exponents(construction, **params).items():
        table[p] = table.get(p, Fraction(0)) - n * _HALF * e
    return _clean(table)


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

    With confirm_bound set, the minimum-norm assumption is re-derived by
    ``min_norm_search`` over that coefficient box: exact norms of one of
    each pair +-x, with vectors that provably cannot beat the minimum
    passed over.
    """
    params = dict(module.field.params)
    code = module.construction
    unscaled = dp_unscaled_exponents(code, **params)
    rel = dp_rel_exponents(code, **params)
    n = lattice_dimension(code, **params)
    assumed = lookup(code, params)[0].min_norm
    confirmed = False
    if confirm_bound is not None:
        found = min_norm_search(module, confirm_bound)
        confirmed = found.exhaustive and found.min_abs_norm == assumed
    return DistanceResult(
        dp_unscaled=exponents_to_square_radicand(unscaled),
        dp_rel=tuple(rel.items()),
        dp_rel_per_dim=per_dimension(rel, n),
        min_norm_assumed=assumed,
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

# Leaf precision of the embedding bounds.  It only decides how many vectors
# are pruned, never the result, so it is fixed and never escalated.
_BOUND_PREC = 64


def _mult_matrices(module: TwistedModule) -> list[tuple[tuple[int, int], ...]]:
    """Multiplication by each gamma element on the integral basis, as the
    nonzero entries (n * row + col, value) of its integer matrix M_i; the
    norm of sum a_i gamma_i is det(sum a_i M_i)."""
    K = module.field
    return [tuple((K.n * i + j, x) for i, w in enumerate(K.basis)
                  for j, x in enumerate(integral_coords(K, g * w)) if x)
            for g in module.gamma]


def _abs_norm(mats: list[tuple[tuple[int, int], ...]], a: tuple[int, ...]) -> int:
    """|N(sum a_i gamma_i)| = |det(sum a_i M_i)|, exactly."""
    n = len(a)
    flat = sparse_vec_mat(a, mats, n * n)
    return abs(det_int([flat[i:i + n] for i in range(0, n * n, n)]))


def _embedding_steps(module: TwistedModule, coeff_bound: int):
    """Certified bounds of c * sigma_j(gamma_i) for every coefficient c in
    [-coeff_bound, coeff_bound]: ``steps[i][c + coeff_bound]`` is the pair
    (lower numerators, negated upper numerators) over the n embeddings, all
    over one common denominator D, returned with D^n."""
    reps = embedding_reps(module.field)
    bounds = [real_embedding_bounds(g, reps, _BOUND_PREC) for g in module.gamma]
    den = math.lcm(*(d for _, d in bounds))
    steps = []
    for pairs, d in bounds:
        lo = [den // d * low for low, _ in pairs]
        hi = [den // d * high for _, high in pairs]
        row = []
        for c in range(-coeff_bound, coeff_bound + 1):
            low, high = (hi, lo) if c < 0 else (lo, hi)
            row.append(([c * v for v in low], [-c * v for v in high]))
        steps.append(row)
    return steps, den ** len(reps)


def _pruning_bounds(steps, coeff_bound: int):
    """One of each pair +-a of nonzero box vectors, the one whose first
    nonzero coordinate is negative, one sup-norm shell at a time, with
    prod_j max(lo_j, -hi_j, 0): a lower bound of D^n |N(x)|, where
    [lo_j, hi_j] is the interval sum of ``steps[i][a_i]`` enclosing
    D sigma_j(x).

    Shell k (k = 1, ..., coeff_bound) holds the vectors with max |a_i| = k,
    in the product order over the alphabet 0, -1, 1, ..., -k, k with the
    last coordinate changing fastest, which puts each walked vector before
    its negative.  Heads whose leading nonzero is positive are never
    generated: the all-zero head comes first and takes only the last
    coordinate -k, then the heads whose first nonzero is at position i, for
    i from the last head position down to 0.  A head with no coordinate
    equal to +-k lies in the inner box and takes only the last coordinates
    -k and k.  Prefix sums are kept per depth and reset at each shell, so a
    vector costs n additions per bound beyond its shared prefix."""
    n = len(steps)
    zeros = [0] * n
    sums = [(zeros, zeros)] * n  # sums[d]: the bounds of the first d terms
    edge = [False] * n  # edge[d]: some of the first d terms is +-k
    for k in range(1, coeff_bound + 1):
        alphabet = [0] + [s * c for c in range(1, k + 1) for s in (-1, 1)]
        last = [(c, steps[n - 1][c + coeff_bound]) for c in alphabet]
        rim = last[-2:]  # c = -k, k
        c, (step_lo, step_nhi) = rim[0]
        yield (0,) * (n - 1) + (c,), math.prod(map(max, step_lo, step_nhi, zeros))
        heads = itertools.chain.from_iterable(
            itertools.product(*[[0]] * i, alphabet[1::2], *[alphabet] * (n - 2 - i))
            for i in reversed(range(n - 1)))
        prev: tuple[int, ...] = ()
        for head in heads:
            changed = 0
            while changed < len(prev) and head[changed] == prev[changed]:
                changed += 1
            for d in range(changed, n - 1):
                lo, nhi = sums[d]
                step_lo, step_nhi = steps[d][head[d] + coeff_bound]
                sums[d + 1] = (list(map(add, lo, step_lo)), list(map(add, nhi, step_nhi)))
                edge[d + 1] = edge[d] or abs(head[d]) == k
            prev = head
            lo, nhi = sums[n - 1]
            for c, (step_lo, step_nhi) in last if edge[n - 1] else rim:
                lows = map(max, map(add, lo, step_lo), map(add, nhi, step_nhi), zeros)
                yield head + (c,), math.prod(lows)


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
    early once a norm of 1 appears (no nonzero algebraic integer can do
    better), which for a module holding a unit of small coefficients
    happens in the first shell; a budget overrun returns a partial result,
    flagged and warned about.

    Every reported norm is an exact determinant.  Gamma elements are
    algebraic integers, so |N(x)| is a positive integer, and a certified
    integer embedding bound above best - 1 proves |N(x)| >= best: such a
    vector could never replace the current minimum and is passed over
    (Fincke & Pohst's pruning, applied to the norm form).  The first
    vector attaining each new minimum always reaches the determinant.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    mats = _mult_matrices(module)
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
        value = _abs_norm(mats, a)
        if best is None or value < best:
            best, witness = value, a
            if value == 1:
                break
            cutoff = (value - 1) * scale
    return NormSearchResult(best, witness, True, evaluated, determinants)


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


def table1(rows: tuple[TableRow, ...] = TABLE_ROWS) -> list[dict]:
    """Per-dimension relative minimum product distances, one dict per row.

    Only closed forms are evaluated, so arbitrarily large rows complete
    instantly; no Gram matrix is ever built here.
    """
    out = []
    for row in rows:
        rec: dict = {
            "n": row.n, "p": row.p, "r": row.r, "r1": row.r1,
            "p1": row.p1, "p2": row.p2, "p3": row.p3,
            "K1": None, "K2": None, "K3": None, "K4": None, "note": "",
        }
        for column, code, attrs in _COLUMNS:
            params = {name: getattr(row, attr) for name, attr in attrs.items()}
            if None in params.values():
                continue
            _check_dim(row.n, lattice_dimension(code, **params), column, row)
            rec[column] = per_dimension(dp_rel_exponents(code, **params), row.n)
        if rec["K4"] is not None and row.n == 15:
            rec["note"] = (
                f"closed form {rec['K4']:.6g} disagrees with the reference "
                f"tabulation value {K4_REFERENCE_N15}"
            )
        out.append(rec)
    return out


def _check_dim(n: int, got: int, column: str, row: TableRow) -> None:
    if n != got:
        raise ValueError(f"row n={n}: {column} parameters give dimension {got}")


def table1_csv(rows: tuple[TableRow, ...] = TABLE_ROWS) -> str:
    """CSV rendering: one line per row, empty cells where a column does
    not apply, and a trailing note column for flagged cells."""
    lines = [
        "# per-dimension relative minimum product distance, i.e. the n-th root of d_rel",
        "n,p,r,r1,p1,p2,p3,K1,K2,K3,K4,note",
    ]
    for rec in table1(rows):
        cells = [str(rec["n"])]
        for key in ("p", "r", "r1", "p1", "p2", "p3"):
            cells.append("" if rec[key] is None else str(rec[key]))
        for key in ("K1", "K2", "K3", "K4"):
            cells.append("" if rec[key] is None else format(rec[key], ".6g"))
        note = rec["note"]
        cells.append(f'"{note}"' if note else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

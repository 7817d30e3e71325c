"""Trace-form Gram matrices: integer numerators over one denominator, the
leading minors and determinant from one fraction-free pass, the
determinant identity over module index / twist norm / discriminant, and
the embedding CSV: certified integer enclosures of the generator matrix
over the cosine leaves of mpmath's ``iv.cos`` (``ivcos``), each cell's
midpoint written as mpmath's ``mpf`` and ``nstr`` write it (``digits``).
Both repeat mpmath's arithmetic in integers, so nothing here imports
mpmath; ``embed`` loads the two modules on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .cyclo import CycloElt, Value, _sum_leaves, trace_form
from .constructions import TwistedModule, module_index
from .fields import embedding_reps, norm_real
from .linalg import gram_schmidt


class GramMatrix(Value):
    """Symmetric positive-definite rational matrix: integer numerators
    ``num`` over one denominator ``den`` > 0, in lowest terms, so == and
    hash are value equality (over num and den).  ``minors`` (the leading
    principal minors) and ``lam`` are the integral Gram-Schmidt data of
    ``num``, from one ``linalg.gram_schmidt`` pass (the positive-definiteness
    test)."""

    __slots__ = ("num", "den", "minors", "lam")
    _fields = ("num", "den")

    def __init__(self, num: tuple[tuple[int, ...], ...], den: int = 1):
        n = len(num)
        if any(len(row) != n for row in num):
            raise ValueError("Gram matrix must be square")
        if any(num[i][j] != num[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        if den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(den, *(e for row in num for e in row))  # rejects non-integers
        if g != 1:
            num, den = tuple(tuple(e // g for e in row) for row in num), den // g
        d, lam = gram_schmidt(num)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "minors", tuple(d[1:]))
        object.__setattr__(self, "lam", tuple(map(tuple, lam)))

    @property
    def n(self) -> int:
        return len(self.num)


def twisted_gram(xs, alpha: CycloElt, divisor: int) -> GramMatrix:
    """Gram matrix of the trace form Tr(alpha * x_i * x_j) / divisor."""
    rows, den = trace_form(xs, alpha)
    return GramMatrix(tuple(map(tuple, rows)), den * divisor)


@lru_cache(maxsize=None)
def gram(module: TwistedModule) -> GramMatrix:
    """Unscaled Gram matrix: trace of alpha * gamma_i * gamma_j over the field."""
    return twisted_gram(module.gamma, module.alpha, module.field.codegree)


def det_exact(g: GramMatrix) -> Fraction:
    """Exact determinant, the last leading minor over den^n."""
    return Fraction(g.minors[-1] if g.n else 1, g.den ** g.n)


def det_via_formula(module: TwistedModule) -> Fraction:
    """Determinant of the unscaled lattice as index^2 * norm(alpha) * disc."""
    return (
        Fraction(module_index(module)) ** 2
        * norm_real(module.alpha, module.field)
        * module.field.disc
    )


# -- floating embedding ------------------------------------------------------

_WORK_CAP = 1 << 14


def embedding_enclosure_rows(module: TwistedModule, precision: int = 128):
    """Entry enclosures for the rows sqrt(alpha_k) * sigma_k(gamma_i) / sqrt(c),
    each row as integer (lower, upper) numerator pairs and the row's one
    positive denominator.

    Escalates the working precision until every entry's width is below
    2^-(precision+4) relative, so collapsing to midpoints at the requested
    precision keeps row-norm errors far inside 2^-(precision/2).  A
    precision whose first working precision is above the cap is rejected
    before any enclosure is formed.
    """
    work = precision + 16
    if work > _WORK_CAP:
        raise ValueError(f"precision {precision} is above the maximum of {_WORK_CAP - 16} bits")
    reps = embedding_reps(module.field)
    while True:
        rows = _rows_at(module, reps, work, precision)
        if rows is not None:
            return rows
        if work >= _WORK_CAP:
            raise RuntimeError("requested precision unreachable")
        work *= 2


def _rows_at(module: TwistedModule, reps, work: int, precision: int):
    """The entry enclosures at one working precision, or None when alpha's
    signs are unresolved or as soon as an entry is wider than the target;
    integers throughout.

    sqrt(alpha_k) lies in [a, b] / 2^work and sqrt(c) in [r, r + 1] / 2^work
    (floor and ceiling square roots, rounded outward).  sigma_k(gamma_i)
    lies in [lo, hi] / D.  As a >= 0, the product with the root takes each
    endpoint's factor by that endpoint's sign, and so does the product with
    1/sqrt(c) in [1/(r + 1), 1/r] * 2^work, where the 2^work cancels: each
    entry of row i lies over the one denominator D * r * (r + 1).
    """
    leaves = _embed_cos_table(module.alpha.m, work)
    alpha, alpha_den = _sum_leaves(module.alpha, reps, leaves)
    if not all(lo > 0 for lo, _ in alpha):
        return None
    sq = 1 << (2 * work)
    roots = [(isqrt(lo * sq // alpha_den), isqrt(-(-hi * sq // alpha_den)) + 1)
             for lo, hi in alpha]
    r = isqrt(module.c * sq)
    r1 = r + 1
    two_tol = 1 << (precision + 5)  # width <= 2^-(precision+4) * max(1, |mid|)
    rows = []
    for g in module.gamma:
        bounds, den = _sum_leaves(g, reps, leaves)
        den *= r * r1
        row = []
        for (a, b), (lo, hi) in zip(roots, bounds):
            lo *= a if lo >= 0 else b
            hi *= b if hi >= 0 else a
            lo *= r if lo >= 0 else r1
            hi *= r1 if hi >= 0 else r
            if (hi - lo) * two_tol > max(2 * den, abs(lo + hi)):
                return None
            row.append((lo, hi))
        rows.append((row, den))
    return rows


@lru_cache(maxsize=None)
def _embed_cos_table(m: int, prec: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The embed's leaves: cos(2*pi*t/m) for t = 0..m-1, enclosed at prec
    bits with the directed rounding of mpmath's ``iv.cos`` (``ivcos``, in
    integers), as (S, lower numerators, upper numerators) over the one
    denominator 2^S.  The ``embed`` bytes are pinned to these leaves, so
    they are kept beside the integer leaves ``cyclo._cos_table`` that
    everything else reads.

    S is at most prec + 32.  When 4 | m, the enclosure of cos(pi/2) = 0
    has endpoints near 2^-2prec, and S would reach 2*prec - 1; past
    prec + 32 the endpoints are rounded outward instead, which widens a
    leaf by at most 2^-(prec+32) and leaves every pinned embed digest
    unchanged."""
    from .ivcos import cos_interval

    ends = [cos_interval(t, m, prec) for t in range(m)]
    shift = min(max(0, *(-e for pair in ends for _, e in pair)), prec + 32)

    def scaled(man, e, up):
        k = shift + e
        if k >= 0:
            return man << k
        return -(-man >> -k) if up else man >> -k

    lo = tuple(scaled(man, e, False) for (man, e), _ in ends)
    hi = tuple(scaled(man, e, True) for _, (man, e) in ends)
    return shift, lo, hi


def embedding_csv(module: TwistedModule, precision: int = 128) -> str:
    """The scaled lattice's generator matrix as CSV at ``precision`` bits:
    each cell is its enclosure's midpoint (lo + hi) / (2 D), written as
    mpmath's ``nstr(mpf(num / g) / (den / g), dps)`` would write it at that
    precision, where g = gcd(num, den) (see ``digits.cell_writer``)."""
    from .digits import cell_writer

    dps = max(17, int(precision * 0.30103) + 3)
    cell = cell_writer(precision, dps)
    lines = [f"# precision_bits={precision}"]
    for row, den in embedding_enclosure_rows(module, precision):
        den *= 2
        lines.append(",".join([cell(lo + hi, den) for lo, hi in row]))
    return "\n".join(lines) + "\n"


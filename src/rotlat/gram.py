"""Trace-form Gram matrices: integer numerators over one denominator, the
leading minors and determinant from one fraction-free pass, the
determinant identity over module index / twist norm / discriminant, and
floating embedding matrices with certified error control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import mpmath

from .cyclo import CycloElt, real_embedding_bounds, trace_form
from .constructions import TwistedModule, module_index
from .fields import embedding_reps, norm_real
from .linalg import gram_schmidt

_ONE = Fraction(1)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite rational matrix: integer numerators
    ``num`` over one denominator ``den`` > 0, in lowest terms, so == and
    hash are value equality.  ``minors`` (the leading principal minors)
    and ``lam`` are the integral Gram-Schmidt data of ``num``, from one
    ``linalg.gram_schmidt`` pass (the positive-definiteness test)."""

    num: tuple[tuple[int, ...], ...]
    den: int = 1
    scale_applied: Fraction = _ONE
    minors: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)
    lam: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.num)
        if any(len(row) != n for row in self.num):
            raise ValueError("Gram matrix must be square")
        if any(self.num[i][j] != self.num[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        if self.den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(self.den, *(e for row in self.num for e in row))  # rejects non-integers
        if g != 1:
            object.__setattr__(self, "num", tuple(tuple(e // g for e in row) for row in self.num))
            object.__setattr__(self, "den", self.den // g)
        d, lam = gram_schmidt(self.num)
        object.__setattr__(self, "minors", tuple(d[1:]))
        object.__setattr__(self, "lam", tuple(map(tuple, lam)))

    @classmethod
    def from_rows(cls, rows, scale_applied=_ONE) -> "GramMatrix":
        """The Gram matrix with rational entries ``rows``."""
        fracs = [[Fraction(e) for e in row] for row in rows]
        den = lcm(*(e.denominator for row in fracs for e in row))
        num = tuple(tuple(e.numerator * (den // e.denominator) for e in row) for row in fracs)
        return cls(num, den, Fraction(scale_applied))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational entries (a read-only view)."""
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.num)

    @property
    def n(self) -> int:
        return len(self.num)

    def scaled(self, factor) -> "GramMatrix":
        q = Fraction(factor)
        rows = tuple(tuple(e * q.numerator for e in row) for row in self.num)
        return GramMatrix(rows, self.den * q.denominator, self.scale_applied * q)

    def is_integral(self) -> bool:
        return self.den == 1

    def has_even_diagonal(self) -> bool:
        return all(self.num[i][i] % (2 * self.den) == 0 for i in range(self.n))


def twisted_gram(xs, alpha: CycloElt, divisor: int) -> GramMatrix:
    """Gram matrix of the trace form Tr(alpha * x_i * x_j) / divisor."""
    rows, den = trace_form(xs, alpha)
    return GramMatrix(tuple(map(tuple, rows)), den * divisor)


@lru_cache(maxsize=None)
def gram(module: TwistedModule) -> GramMatrix:
    """Unscaled Gram matrix: trace of alpha * gamma_i * gamma_j over the field."""
    return twisted_gram(module.gamma, module.alpha, module.field.codegree)


def gram_scaled(module: TwistedModule) -> GramMatrix:
    """Gram matrix of the lattice scaled by 1/sqrt(c)."""
    return gram(module).scaled(Fraction(1, module.c))


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
    alpha, alpha_den = real_embedding_bounds(module.alpha, reps, work)
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
        bounds, den = real_embedding_bounds(g, reps, work)
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


def embedding_matrix(module: TwistedModule, precision: int = 128):
    """Generator matrix of the scaled lattice, collapsed to floats at
    the requested precision (bits): each entry is its enclosure's midpoint
    (lo + hi) / (2 D), divided once in mpmath.  The midpoint is put in
    lowest terms first, because mpf rounds the numerator before the
    division and the written bytes depend on that rounding."""
    rows = embedding_enclosure_rows(module, precision)
    out = []
    with mpmath.workprec(precision):
        for row, den in rows:
            cells = []
            for lo, hi in row:
                num, d = lo + hi, 2 * den
                g = gcd(num, d)
                cells.append(mpmath.mpf(num // g) / (d // g))
            out.append(tuple(cells))
    return tuple(out)


def embedding_csv(module: TwistedModule, precision: int = 128) -> str:
    rows = embedding_matrix(module, precision)
    dps = max(17, int(precision * 0.30103) + 3)
    lines = [f"# precision_bits={precision}"]
    with mpmath.workprec(precision):
        for row in rows:
            lines.append(",".join(mpmath.nstr(v, dps) for v in row))
    return "\n".join(lines) + "\n"


def gram_json(g: GramMatrix) -> str:
    obj = {
        "scale_applied": str(g.scale_applied),
        "entries": [[str(e) for e in row] for row in g.entries],
    }
    return json.dumps(obj, indent=2) + "\n"

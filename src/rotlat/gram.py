"""Trace-form Gram matrices: integer numerators over one denominator, the
leading minors and determinant from one fraction-free pass, the
determinant identity over module index / twist norm / discriminant, and
floating embedding matrices with certified error control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm

import mpmath

from .cyclo import CycloElt, Enclosure, real_embedding_enclosures, trace_form
from .constructions import TwistedModule, module_index
from .fields import embedding_reps, norm_real
from .linalg import leading_principal_minors

_ONE = Fraction(1)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite rational matrix: integer numerators
    ``num`` over one denominator ``den`` > 0, in lowest terms, so == and
    hash are value equality.  ``minors`` are the leading principal minors
    of ``num``, from the positive-definiteness pass."""

    num: tuple[tuple[int, ...], ...]
    den: int = 1
    scale_applied: Fraction = _ONE
    minors: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

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
        minors = tuple(leading_principal_minors(self.num))
        if any(d <= 0 for d in minors):
            raise ValueError("Gram matrix must be positive definite")
        object.__setattr__(self, "minors", minors)

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
    rows, den = trace_form(xs, xs, alpha)
    return GramMatrix(tuple(map(tuple, rows)), den * divisor)


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
    """Entry enclosures for the rows sqrt(alpha_k) * sigma_k(gamma_i) / sqrt(c).

    Escalates the working precision until every entry's width is below
    2^-(precision+4) relative, so collapsing to midpoints at the requested
    precision keeps row-norm errors far inside 2^-(precision/2).
    """
    K = module.field
    reps = embedding_reps(K)
    target = Fraction(1, 1 << (precision + 4))
    work = precision + 16
    while True:
        alpha_enc = real_embedding_enclosures(module.alpha, reps, work)
        if all(e.is_positive for e in alpha_enc):
            roots = [e.sqrt(work) for e in alpha_enc]
            inv_scale = Enclosure(Fraction(module.c), Fraction(module.c)).sqrt(work).reciprocal()
            rows = []
            tight = True
            for g in module.gamma:
                row = [
                    (root * cell) * inv_scale
                    for root, cell in zip(roots, real_embedding_enclosures(g, reps, work))
                ]
                for cell in row:
                    if cell.width > target * max(_ONE, abs(cell.mid)):
                        tight = False
                        break
                rows.append(row)
                if not tight:
                    break
            if tight:
                return rows
        if work >= _WORK_CAP:
            raise RuntimeError("requested precision unreachable")
        work *= 2


def embedding_matrix(module: TwistedModule, precision: int = 128):
    """Generator matrix of the scaled lattice, collapsed to floats at
    the requested precision (bits)."""
    rows = embedding_enclosure_rows(module, precision)
    with mpmath.workprec(precision):
        return tuple(
            tuple(mpmath.mpf(cell.mid.numerator) / cell.mid.denominator for cell in row)
            for row in rows
        )


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

"""Trace-form Gram matrices: exact entries, exact determinants, the
determinant identity over module index / twist norm / discriminant, and
floating embedding matrices with certified error control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import mpmath

from .cyclo import Enclosure, real_embedding_enclosures, trace_form
from .constructions import TwistedModule, module_index
from .fields import embedding_reps, norm_real
from .linalg import det_rational, leading_principal_minors

_ONE = Fraction(1)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]
    scale_applied: Fraction = dc_field(default=_ONE)

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if any(d <= 0 for d in leading_principal_minors([list(r) for r in self.entries])):
            raise ValueError("Gram matrix must be positive definite")

    @property
    def n(self) -> int:
        return len(self.entries)

    def scaled(self, factor) -> "GramMatrix":
        q = Fraction(factor)
        rows = tuple(tuple(e * q for e in row) for row in self.entries)
        return GramMatrix(rows, self.scale_applied * q)

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def has_even_diagonal(self) -> bool:
        return all(
            self.entries[i][i].denominator == 1 and self.entries[i][i].numerator % 2 == 0
            for i in range(self.n)
        )


def gram(module: TwistedModule) -> GramMatrix:
    """Unscaled Gram matrix: trace of alpha * gamma_i * gamma_j over the field."""
    idx = module.field.codegree
    rows = trace_form(module.gamma, module.gamma, module.alpha)
    return GramMatrix(tuple(tuple(t / idx for t in row) for row in rows))


def gram_scaled(module: TwistedModule) -> GramMatrix:
    """Gram matrix of the lattice scaled by 1/sqrt(c)."""
    return gram(module).scaled(Fraction(1, module.c))


def det_exact(g: GramMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    return det_rational([list(r) for r in g.entries])


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

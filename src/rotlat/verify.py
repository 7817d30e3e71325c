"""Certification that scaled twisted embeddings are rotated D_n lattices.

The route: (i) exact LLL reduction of the ambient trace form certifies,
when it reaches the identity, that the scaled embedding of the full ring
of integers is an isometric copy of Z^n; (ii) integrality plus an even
diagonal make the module's scaled lattice an even sublattice of that
copy; (iii) determinant 4 together with submodule index 2 pin it down to
the largest even sublattice of Z^n, the checkerboard lattice D_n.

LLL success is a sufficient certificate; failure to reach the identity
is reported as "not certified" rather than a refutation, because LLL is
not a complete isometry test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclo import CycloElt, trace_form
from .constructions import TwistedModule, module_index
from .fields import FieldDesc
from .gram import GramMatrix, det_exact, gram
from .linalg import identity_matrix, mat_mul, transpose

DEFAULT_DELTA = Fraction(99, 100)


def _gso(g):
    """Gram-Schmidt data (mu, squared norms) straight from a Gram matrix."""
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n
    proj = [[Fraction(0)] * n for _ in range(n)]  # proj[i][j] = <b_i, b*_j>
    for i in range(n):
        for j in range(i + 1):
            s = Fraction(g[i][j])
            for t in range(j):
                s -= mu[j][t] * proj[i][t]
            proj[i][j] = s
            if j == i:
                if s <= 0:
                    raise ValueError("matrix is not positive definite")
                norms[i] = s
            else:
                mu[i][j] = s / norms[j]
    return mu, norms


def _round_nearest(q: Fraction) -> int:
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


def _add_row_multiple(g, t, k, j, coef):
    """Basis change b_k += coef * b_j, applied to Gram rows/cols and transform."""
    n = len(g)
    t[k] = [a + coef * b for a, b in zip(t[k], t[j])]
    new_kk = g[k][k] + 2 * coef * g[k][j] + coef * coef * g[j][j]
    new_row = [g[k][col] + coef * g[j][col] for col in range(n)]
    new_row[k] = new_kk
    g[k] = new_row
    for i in range(n):
        g[i][k] = new_row[i]


def _swap_rows(g, t, k):
    t[k - 1], t[k] = t[k], t[k - 1]
    g[k - 1], g[k] = g[k], g[k - 1]
    for row in g:
        row[k - 1], row[k] = row[k], row[k - 1]


def lll_reduce(g: GramMatrix, delta: Fraction = DEFAULT_DELTA):
    """Exact LLL reduction of a positive-definite rational Gram matrix.

    Returns (reduced GramMatrix, unimodular transform T) with
    T * G * T^t equal to the reduced matrix, checked exactly before
    returning.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie strictly between 1/4 and 1")
    original = [list(row) for row in g.entries]
    work = [row[:] for row in original]
    n = len(work)
    t = identity_matrix(n)
    if n > 1:
        mu, norms = _gso(work)
        k = 1
        while k < n:
            for j in range(k - 1, -1, -1):
                q = _round_nearest(mu[k][j])
                if q:
                    _add_row_multiple(work, t, k, j, -q)
                    for l in range(j):
                        mu[k][l] -= q * mu[j][l]
                    mu[k][j] -= q
            if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
                k += 1
            else:
                _swap_rows(work, t, k)
                mu, norms = _gso(work)
                k = max(k - 1, 1)
    reduced = GramMatrix(tuple(tuple(row) for row in work), g.scale_applied)
    transform = tuple(tuple(row) for row in t)
    # T G T^t = W exactly iff T (D G) T^t = D W, D > 0 the common denominator of G
    den = lcm(*(e.denominator for row in original for e in row))
    scaled = [[e.numerator * (den // e.denominator) for e in row] for row in original]
    check = mat_mul(mat_mul(t, scaled), transpose(t))
    if check != [[e * den for e in row] for row in work]:
        raise RuntimeError("LLL transform failed its own certificate check")
    return reduced, transform


def _is_identity(entries) -> bool:
    return all(
        entries[i][j] == (1 if i == j else 0)
        for i in range(len(entries))
        for j in range(len(entries))
    )


def ambient_gram(field: FieldDesc, alpha: CycloElt, c: int) -> GramMatrix:
    """Gram matrix of the scaled twisted embedding of the full ring of
    integers: trace of alpha * w_i * w_j over the field, divided by c."""
    scale = field.codegree * c
    rows = trace_form(field.basis, field.basis, alpha)
    return GramMatrix(tuple(tuple(t / scale for t in row) for row in rows))


def verify_ambient_zn(field: FieldDesc, alpha: CycloElt, c: int):
    """Certify that the scaled twisted embedding of the full ring of
    integers is an isometric copy of Z^n.

    Returns (True, T) with T unimodular and T G T^t = I on success,
    (False, None) when LLL does not reach the identity (inconclusive).
    """
    reduced, transform = lll_reduce(ambient_gram(field, alpha, c))
    if _is_identity(reduced.entries):
        return True, transform
    return False, None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[tuple[str, bool], ...]
    verdict: bool
    transform: tuple[tuple[int, ...], ...] | None

    def check(self, name: str) -> bool:
        return dict(self.checks)[name]

    def to_json(self) -> dict:
        return {
            "checks": dict(self.checks),
            "verdict": self.verdict,
            "transform": [list(row) for row in self.transform] if self.transform else None,
        }


def verify_rotated_dn(module: TwistedModule,
                      module_gram: GramMatrix | None = None) -> VerificationReport:
    """Run the full certification chain for one twisted module.

    ``module_gram``, when given, must be ``gram(module)``; a caller that
    needs that matrix as well passes it in so it is built once.
    """
    ambient, transform = verify_ambient_zn(module.field, module.alpha, module.c)
    if module_gram is None:
        module_gram = gram(module)
    scaled = module_gram.scaled(Fraction(1, module.c))
    integral = scaled.is_integral()
    even = integral and scaled.has_even_diagonal()
    det_is_4 = det_exact(scaled) == 4
    index_is_2 = module_index(module) == 2
    checks = (
        ("ambient_is_zn", ambient),
        ("integral", integral),
        ("even", even),
        ("det_is_4", det_is_4),
        ("index_is_2", index_is_2),
    )
    return VerificationReport(checks, all(v for _, v in checks), transform)


def report_json(report: VerificationReport) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"

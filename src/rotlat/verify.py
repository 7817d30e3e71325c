"""Certification that scaled twisted embeddings are rotated D_n lattices.

The route: (i) exact LLL reduction of the ambient trace form certifies,
when it reaches the identity, that the scaled embedding of the full ring
of integers is an isometric copy of Z^n; (ii) integrality plus an even
diagonal make the module's scaled lattice an even sublattice of that
copy; (iii) determinant 4 together with submodule index 2 pin it down to
the largest even sublattice of Z^n, the checkerboard lattice D_n.

LLL is integral LLL (Cohen, GTM 138, 2.6.7) with delta = 99/100 on the
Gram numerators; its decisions do not change when the Gram matrix is scaled.

LLL success is a sufficient certificate; failure to reach the identity
is reported as "not certified" rather than a refutation, because LLL is
not a complete isometry test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cyclo import CycloElt
from .constructions import TwistedModule, module_index
from .fields import FieldDesc
from .gram import GramMatrix, gram, twisted_gram
from .linalg import identity_matrix, sparse_vec_mat


def _swap(t, d, lam, k):
    """Exchange b_(k-1) and b_k: the rows of T, and (d, lam) in closed
    form (Cohen, GTM 138, 2.6.7, SWAPI)."""
    t[k - 1], t[k] = t[k], t[k - 1]
    lam_k, lam_k1 = lam[k], lam[k - 1]
    lam_k[:k - 1], lam_k1[:k - 1] = lam_k1[:k - 1], lam_k[:k - 1]
    x, dk, dk1 = lam_k[k - 1], d[k], d[k + 1]
    b = (d[k - 1] * dk1 + x * x) // dk
    for lam_i in lam[k + 1:]:
        s = lam_i[k]
        lam_i[k] = (dk1 * lam_i[k - 1] - x * s) // dk
        lam_i[k - 1] = (b * s + x * lam_i[k]) // dk1
    d[k] = b


def lll_reduce(g: GramMatrix):
    """Exact LLL reduction, delta = 99/100, of a positive-definite Gram matrix.

    Integral LLL on the numerators, from g's own integral Gram-Schmidt
    data (d, lam), keeping only the transform T and the (d, lam) of
    T * G * T^t; a swap updates (d, lam) in closed form.  Returns (reduced
    GramMatrix, unimodular T); building the reduced matrix T * G * T^t is
    the certificate, as its (d, lam) must equal the loop's.
    """
    t = identity_matrix(g.n)
    d, lam = [1, *g.minors], [list(row) for row in g.lam]
    k = 1
    while k < g.n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            q = (2 * lam_k[j] + d[j + 1]) // (2 * d[j + 1])  # nearest integer to mu_kj
            if q:
                t[k] = [a - q * b for a, b in zip(t[k], t[j])]
                lam_j = lam[j]
                for l in range(j):
                    lam_k[l] -= q * lam_j[l]
                lam_k[j] -= q * d[j + 1]
        # Lovasz: B_k >= (99/100 - mu_k,k-1^2) B_(k-1), times 100 d_k d_(k-1)
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * lam_k[k - 1] ** 2:
            k += 1
        else:
            _swap(t, d, lam, k)
            k = max(k - 1, 1)
    # T * G * T^t over the nonzero entries: G is symmetric, so the columns
    # of T * G are the rows of G * T^t
    g_rows = [[(j, x) for j, x in enumerate(row) if x] for row in g.num]
    tg = [sparse_vec_mat(row, g_rows, g.n) for row in t]
    gt_rows = [[(j, x) for j, x in enumerate(col) if x] for col in zip(*tg)]
    product = tuple(tuple(sparse_vec_mat(row, gt_rows, g.n)) for row in t)
    try:
        reduced = GramMatrix(product, g.den, g.scale_applied)
    except ValueError:  # a product that is not positive definite
        reduced = None
    if reduced is None or (reduced.minors, reduced.lam) != (tuple(d[1:]), tuple(map(tuple, lam))):
        raise RuntimeError("LLL transform failed its own certificate check")
    return reduced, tuple(map(tuple, t))


def ambient_gram(field: FieldDesc, alpha: CycloElt, c: int) -> GramMatrix:
    """Gram matrix of the scaled twisted embedding of the full ring of
    integers: trace of alpha * w_i * w_j over the field, divided by c."""
    return twisted_gram(field.basis, alpha, field.codegree * c)


def verify_ambient_zn(field: FieldDesc, alpha: CycloElt, c: int):
    """Certify that the scaled twisted embedding of the full ring of
    integers is an isometric copy of Z^n.

    Returns (True, T) with T unimodular and T G T^t = I on success,
    (False, None) when LLL does not reach the identity (inconclusive).
    """
    reduced, transform = lll_reduce(ambient_gram(field, alpha, c))
    if reduced.den == 1 and reduced.num == tuple(map(tuple, identity_matrix(reduced.n))):
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


def verify_rotated_dn(module: TwistedModule) -> VerificationReport:
    """Run the full certification chain for one twisted module."""
    ambient, transform = verify_ambient_zn(module.field, module.alpha, module.c)
    module_gram = gram(module)
    # G / c has entries num / (den c) and determinant minors[-1] / (den c)^n
    d = module_gram.den * module.c
    integral = all(e % d == 0 for row in module_gram.num for e in row)
    even = integral and all(module_gram.num[i][i] % (2 * d) == 0 for i in range(module_gram.n))
    det_is_4 = module_gram.minors[-1] == 4 * d ** module_gram.n
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

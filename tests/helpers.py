"""Shared test data: the certification battery, published table cells,
tolerance helpers, the ``Enclosure``-arithmetic oracles for the integer
enclosure kernel, and the unpruned minimum-norm oracle."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from rotlat import build, embedding_reps
from rotlat.cyclo import Enclosure, cos_enclosures
from rotlat.distance import NORM_SEARCH_BUDGET, NormSearchResult, _mult_matrices
from rotlat.linalg import det_int

# Constructions certified by the acceptance suite.
BATTERY = (
    ("p31", {"r": 3}),
    ("p31", {"r": 4}),
    ("p31", {"r": 5}),
    ("p32", {"p": 7}),
    ("p32", {"p": 11}),
    ("p32", {"p": 13}),
    ("p34", {"r": 3, "p": 5}),
    ("p34", {"r": 4, "p": 5}),
    ("p34", {"r": 3, "p": 7}),
    ("p37", {"p1": 5, "p2": 7}),
    ("p37", {"p1": 5, "p2": 11}),
)


@lru_cache(maxsize=None)
def get_module(code, **params):
    return build(code, **params)


def battery_modules():
    return [get_module(code, **params) for code, params in BATTERY]


# Published per-dimension relative minimum product distances, as printed
# (some cells carry fewer than six digits, one is visibly truncated).
PUBLISHED_CELLS = {
    (3, "K1"): "0.369646",
    (4, "K2"): "0.324210",
    (4, "K3"): "0.281171",
    (5, "K1"): "0.27097",
    (6, "K1"): "0.24285",
    (6, "K3"): "0.219793",
    (8, "K1"): "0.20472",
    (8, "K2"): "0.201311",
    (8, "K3"): "0.182317",
    (10, "K3"): "0.161122",
    (11, "K1"): "0.17003",
    (12, "K3"): "0.144401",
    (14, "K1"): "0.148086",
    (15, "K1"): "0.142402",
    (16, "K2"): "0.133393",
    (16, "K3"): "0.123452",
    (18, "K1"): "0.128512",
    (18, "K3"): "0.1136",
    (20, "K1"): "0.121175",
    (20, "K3"): "0.104475",
    (128, "K1"): "0.0450746",
    (128, "K2"): "0.044554",
    (32768, "K1"): "0.00276258",
    (32768, "K2"): "0.00276222",
}


def agrees_significant(ours: float, printed: str, sig_cap: int = 5) -> bool:
    """Agreement with a printed decimal within one unit of its last compared
    significant digit (capped at sig_cap); tolerates truncated printings."""
    digits = len(printed.replace("0.", "").lstrip("0"))
    sig = min(sig_cap, digits)
    mag = math.floor(math.log10(abs(float(printed))))
    return abs(ours - float(printed)) < 10.0 ** (mag - sig + 1)


# -- Enclosure-arithmetic oracles ---------------------------------------------


def embedding_enclosures_oracle(x, reps, prec):
    """The real embeddings of x as an interval sum of the cosine leaves, each
    scaled by its numerator, the sum scaled by 1/den."""
    table = cos_enclosures(x.m, prec)
    out = []
    for k in reps:
        acc = Enclosure(Fraction(0), Fraction(0))
        for j, c in enumerate(x.num):
            if c:
                acc = acc + table[j * k % x.m].scale(c)
        out.append(acc.scale(Fraction(1, x.den)))
    return out


def enclosure_rows_oracle_at(module, work, precision):
    """The rows sqrt(alpha_k) * sigma_k(gamma_i) / sqrt(c) in ``Enclosure``
    arithmetic at one working precision, or None when alpha's signs are
    unresolved or an entry is wider than 2^-(precision+4) relative."""
    reps = embedding_reps(module.field)
    target = Fraction(1, 1 << (precision + 4))
    alpha_enc = embedding_enclosures_oracle(module.alpha, reps, work)
    if not all(e.is_positive for e in alpha_enc):
        return None
    roots = [e.sqrt(work) for e in alpha_enc]
    inv_scale = Enclosure(Fraction(module.c), Fraction(module.c)).sqrt(work).reciprocal()
    rows = [[(root * cell) * inv_scale
             for root, cell in zip(roots, embedding_enclosures_oracle(g, reps, work))]
            for g in module.gamma]
    if any(cell.width > target * max(1, abs(cell.mid)) for row in rows for cell in row):
        return None
    return rows


def enclosure_rows_oracle(module, precision):
    """``enclosure_rows_oracle_at``, doubling the working precision from
    precision + 16 until the rows are tight."""
    work = precision + 16
    while True:
        rows = enclosure_rows_oracle_at(module, work, precision)
        if rows is not None:
            return rows
        if work >= 1 << 14:
            raise RuntimeError("requested precision unreachable")
        work *= 2


def widen_leaves(monkeypatch, at, bits):
    """Widen the cosine leaves by 2^-bits on each side at the working
    precisions ``at`` (all of them when None); returns the precisions asked for."""
    import rotlat.cyclo

    real = rotlat.cyclo._cos_table
    asked = []

    def widened(m, prec):
        asked.append(prec)
        shift, lo, hi = real(m, prec)
        if at is None or prec in at:
            pad = 1 << (shift - bits)
            return shift, tuple(a - pad for a in lo), tuple(b + pad for b in hi)
        return shift, lo, hi

    monkeypatch.setattr(rotlat.cyclo, "_cos_table", widened)
    return asked


# -- the minimum-norm oracle ---------------------------------------------------


def min_norm_search_oracle(module, coeff_bound, budget=NORM_SEARCH_BUDGET):
    """``min_norm_search`` without pruning: one exact determinant for every
    vector of the box, scanned in lexicographic order."""
    n = module.field.n
    mats = _mult_matrices(module)
    idx = range(n)
    best = None
    witness = ()
    evaluated = 0
    for a in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        if not any(a):
            continue
        if evaluated >= budget:
            return NormSearchResult(best, witness, False, evaluated, evaluated)
        evaluated += 1
        acc = [[0] * n for _ in idx]
        for coef, mat in zip(a, mats):
            if coef:
                for i in idx:
                    row = mat[i]
                    target = acc[i]
                    for j in idx:
                        target[j] += coef * row[j]
        value = abs(det_int(acc))
        if best is None or value < best:
            best, witness = value, a
            if value == 1:
                break
    return NormSearchResult(best, witness, True, evaluated, evaluated)

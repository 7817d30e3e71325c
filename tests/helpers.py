"""Shared test data and oracles: the certification battery, published
table cells, tolerance helpers, ``Enclosure`` arithmetic for checking the
integer enclosure kernel, the mpmath routes that the embed leaves and
cells are written to match, closure under the ring generators by forming
every product, multiplication matrices for traces and norms, dense matrix
products and a dense rational inverse, cyclotomic polynomials by long
division and orders by walking the powers, the box orders, the
unpruned minimum-norm oracle and the confirmation by the box search alone,
the Gram JSON layout the golden digests pin, and a fresh interpreter on
this checkout."""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest

import rotlat.cyclo
import rotlat.distance
from rotlat import (
    CycloElt,
    IdealCheck,
    IdealityWitness,
    TwistedModule,
    build,
    embedding_reps,
    in_module,
    real_embedding_bounds,
)
from rotlat.cyclo import trace_form
from rotlat.distance import (
    _COLUMNS,
    NORM_SEARCH_BUDGET,
    TABLE_ROWS,
    NormSearchResult,
    _closed_form,
    min_norm_search,
)
from rotlat.fields import integer_coords, integral_coords
from rotlat.gram import embedding_enclosure_rows
from rotlat.linalg import det_int
from rotlat.numtheory import euler_phi

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

# The modules the benchmark's certify workload builds, verifies and embeds.
CERTIFY_MODULES = (
    ("p37", {"p1": 7, "p2": 11}),
    ("p34", {"r": 4, "p": 11}),
    ("p32", {"p": 41}),
    ("p31", {"r": 7}),
    ("p31", {"r": 8}),
)

# The filled Table-1 cells with n <= 128, as (code, params): every filled
# cell but the two of the n = 32768 row.
TABLE_CELLS = tuple(
    (code, {name: getattr(row, attr) for name, attr in attrs.items()})
    for row in TABLE_ROWS if row.n <= 128
    for _, code, attrs in _COLUMNS
    if None not in (getattr(row, attr) for attr in attrs.values())
)


@lru_cache(maxsize=None)
def get_module(code, **params):
    return build(code, **params)


def doubled_gamma0(module):
    """The module with gamma_0 replaced by 2 gamma_0, built without the
    constructor's checks.  From a p31 module (the ideal e_1 O_K of index 2)
    it makes a submodule of index 4 that is no longer an ideal, so the norm
    search's floor is 1, while the last gamma element keeps norm 2, the
    minimum: its scan runs to the end of the box, as p31's did before the
    floor."""
    return TwistedModule(module.field, (2 * module.gamma[0], *module.gamma[1:]), module.alpha,
                         module.c, module.construction)


def big_constant_twist(module):
    """The module with 10^4000 added to alpha, built without the
    constructor's checks.  From p32 p=7 it is the twist with a 4,001-digit
    constant coefficient that CI's console-script step verifies: its norm
    is past what enclosures pin at the precision cap."""
    return TwistedModule(module.field, module.gamma, module.alpha + 10**4000, module.c,
                         module.construction)


def unit_power(field, e):
    """u^e for u = 1 + theta_1, in ``pow2`` r=3 the unit 1 + sqrt 2, whose
    conjugate 1 - sqrt 2 lies in (-1, 0): at e = 4000 one embedding is
    about 2^-5086, a sign the precision cap leaves open, positive exactly
    when e is even."""
    x, out = 1 + field.basis[1], CycloElt.one(field.m)
    while e:
        if e & 1:
            out = out * x
        x, e = x * x, e >> 1
    return out


def unit_square_twist(module):
    """The module with alpha times u^4000 (``unit_power``), built without
    the constructor's checks.  From p31 r=3, an ideal M, it is the twist
    CI's console-script step verifies: u^2000 M = M, so its lattice is the
    same rotated D_n."""
    return module._replace(alpha=module.alpha * unit_power(module.field, 4000))


def run_fresh(*args) -> str:
    """The stdout of a new interpreter run with ``args``, importing rotlat
    from this checkout's ``src``; it must exit 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


# -- exact rational intervals -------------------------------------------------


@dataclass(frozen=True)
class Enclosure:
    """Closed rational interval certified to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty enclosure")

    def __add__(self, other):
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Enclosure(min(products), max(products))

    def scale(self, q):
        return Enclosure(*sorted((self.lo * q, self.hi * q)))

    def pow(self, k):
        result = Enclosure(Fraction(1), Fraction(1))
        for _ in range(k):
            result = result * self
        return result

    def contains(self, value):
        return self.lo <= value <= self.hi

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return (self.lo + self.hi) / 2

    @property
    def is_positive(self):
        return self.lo > 0

    def reciprocal(self):
        if self.lo <= 0 <= self.hi:
            raise ValueError("reciprocal of an interval containing zero")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def sqrt(self, prec=128):
        """Outward-rounded square root with 2^-prec granularity; needs lo >= 0."""
        if self.lo < 0:
            raise ValueError("square root of an interval reaching below zero")
        s = 1 << prec
        lo = Fraction(math.isqrt(self.lo.numerator * s * s // self.lo.denominator), s)
        hi = Fraction(math.isqrt(-(-self.hi.numerator * s * s // self.hi.denominator)) + 1, s)
        return Enclosure(lo, hi)


def cos_enclosures(m, prec, embed=False):
    """The package's cosine leaves cos(2*pi*t/m), t = 0..m-1, as enclosures:
    the integer leaves ``rotlat.cyclo._cos_table`` that positivity and the
    norm search read, or with ``embed`` the leaves
    ``rotlat.gram._embed_cos_table`` that the embed rows read, mpmath's
    ``iv.cos`` endpoints (each looked up at call time, so ``widen_leaves``
    applies)."""
    table = sys.modules["rotlat.gram"]._embed_cos_table if embed else rotlat.cyclo._cos_table
    shift, lo, hi = table(m, prec)
    d = 1 << shift
    return tuple(Enclosure(Fraction(a, d), Fraction(b, d)) for a, b in zip(lo, hi))


def embedding_enclosures(x, reps, prec):
    """``real_embedding_bounds`` of x as enclosures, one per k in reps."""
    bounds, den = real_embedding_bounds(x, reps, prec)
    return [Enclosure(Fraction(lo, den), Fraction(hi, den)) for lo, hi in bounds]


def conjugates(x, field, prec):
    """The real embeddings of a field element x, one enclosure per embedding."""
    return embedding_enclosures(x, embedding_reps(field), prec)


# -- Enclosure-arithmetic oracles ---------------------------------------------


def embedding_enclosures_oracle(x, reps, prec, embed=False):
    """The real embeddings of x as an interval sum of the cosine leaves
    (``cos_enclosures(x.m, prec, embed)``), each scaled by its numerator,
    the sum scaled by 1/den."""
    table = cos_enclosures(x.m, prec, embed)
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
    alpha_enc = embedding_enclosures_oracle(module.alpha, reps, work, embed=True)
    if not all(e.is_positive for e in alpha_enc):
        return None
    roots = [e.sqrt(work) for e in alpha_enc]
    inv_scale = Enclosure(Fraction(module.c), Fraction(module.c)).sqrt(work).reciprocal()
    rows = [[(root * cell) * inv_scale
             for root, cell in zip(roots, embedding_enclosures_oracle(g, reps, work, embed=True))]
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


# -- The mpmath route of the embed leaves ------------------------------------


# Under gmpy mpmath takes other cutoffs (libelefun: COS_SIN_CACHE_PREC 200,
# EXP_COSH_CUTOFF 400), so its iv.cos can differ from the embed leaves in
# the last bits.
python_backend_only = pytest.mark.skipif(
    mpmath.libmp.BACKEND != "python",
    reason=f"the embed leaves repeat mpmath's pure-Python backend, not {mpmath.libmp.BACKEND}")


def dyadic(t):
    """A finite raw mpmath endpoint as (signed mantissa, exponent)."""
    sign, man, exp, _ = t
    man = int(man)
    if man == 0:
        if exp == 0:
            return 0, 0
        raise ValueError("nonfinite interval endpoint")
    return (-man if sign else man), exp


def iv_cos_oracle(t, m, prec):
    """The endpoints of ``mpmath.iv.cos(2 * mpmath.iv.pi * t / m)`` at
    ``iv.prec = prec``, each as ``dyadic`` gives it."""
    ctx = mpmath.iv
    old = ctx.prec
    try:
        ctx.prec = prec
        a, b = ctx.cos(2 * ctx.pi * t / m)._mpi_
    finally:
        ctx.prec = old
    return dyadic(a), dyadic(b)


def embed_cos_table_oracle(m, prec):
    """``rotlat.gram._embed_cos_table`` through mpmath: the leaves
    ``iv_cos_oracle(t, m, prec)`` over 2^S, S the largest endpoint
    exponent but at most prec + 32, finer endpoints rounded outward."""
    ends = [iv_cos_oracle(t, m, prec) for t in range(m)]
    shift = min(max(0, *(-e for pair in ends for _, e in pair)), prec + 32)

    def scaled(man, e, up):
        k = shift + e
        if k >= 0:
            return man << k
        return -(-man >> -k) if up else man >> -k

    lo = tuple(scaled(man, e, False) for (man, e), _ in ends)
    hi = tuple(scaled(man, e, True) for _, (man, e) in ends)
    return shift, lo, hi


# -- The mpf route of the embed cells ----------------------------------------


def mpf_cell(num, den):
    """num / den put in lowest terms, then ``mpf(num) / den`` at the
    working precision: mpf rounds the reduced numerator, then the
    quotient, so the written digits depend on the reduction."""
    g = math.gcd(num, den)
    return mpmath.mpf(num // g) / (den // g)


def nstr_cell(num, den, precision, dps):
    """One embed cell the way mpmath writes it: ``nstr(mpf_cell(num, den),
    dps)`` under ``workprec(precision)``."""
    with mpmath.workprec(precision):
        return mpmath.nstr(mpf_cell(num, den), dps)


def embedding_matrix(module, precision=128):
    """Generator matrix of the scaled lattice as mpf values at the
    requested precision (bits): each entry is its enclosure's midpoint
    (lo + hi) / (2 D), through ``mpf_cell``."""
    with mpmath.workprec(precision):
        return tuple(tuple(mpf_cell(lo + hi, 2 * den) for lo, hi in row)
                     for row, den in embedding_enclosure_rows(module, precision))


def embedding_csv_oracle(module, precision=128):
    """``embedding_csv`` through the mpf route: ``embedding_matrix`` with
    each value written by ``nstr``."""
    dps = max(17, int(precision * 0.30103) + 3)
    lines = [f"# precision_bits={precision}"]
    with mpmath.workprec(precision):
        for row in embedding_matrix(module, precision):
            lines.append(",".join(mpmath.nstr(v, dps) for v in row))
    return "\n".join(lines) + "\n"


def widen_leaves(monkeypatch, at, bits):
    """Widen the cosine leaves of both tables (``cos_enclosures``) by
    2^-bits on each side at the working precisions ``at`` (all of them
    when None); returns the precisions asked for.  The norm search's
    per-module enclosure cache is swapped for an empty one while the
    leaves are widened, so no enclosure outlives the test."""
    asked = []
    fresh = lru_cache(maxsize=None)(rotlat.distance._gamma_enclosures.__wrapped__)
    monkeypatch.setattr(rotlat.distance, "_gamma_enclosures", fresh)
    gram = sys.modules["rotlat.gram"]
    for owner, name in ((rotlat.cyclo, "_cos_table"), (gram, "_embed_cos_table")):
        def widened(m, prec, real=getattr(owner, name)):
            asked.append(prec)
            shift, lo, hi = real(m, prec)
            if at is None or prec in at:
                pad = 1 << (shift - bits)
                return shift, tuple(a - pad for a in lo), tuple(b + pad for b in hi)
            return shift, lo, hi

        monkeypatch.setattr(owner, name, widened)
    return asked


# -- closure by products -------------------------------------------------------


def is_ideal_oracle(module):
    """Closure under the ring generators by forming each product w * gamma_i
    and testing its membership, in generator x gamma order: the first
    product outside the module is the witness."""
    for w in module.field.generators:
        for g in module.gamma:
            product = w * g
            if not in_module(module, product):
                return IdealCheck(False, IdealityWitness(w, g, product))
    return IdealCheck(True, None)


# -- multiplication matrices, dense products and a dense inverse --------------


def transpose(a):
    return [list(row) for row in zip(*a)]


def mat_mul(a, b):
    """The dense product of two matrices, entry by entry: the oracle for
    the package's sparse products."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _mult_rows(x):
    """den(x) times the matrix of multiplication by x on the power basis
    (row j = x * zeta^j), each row the previous one shifted and reduced."""
    rows = [list(x.num)]
    for _ in range(euler_phi(x.m) - 1):
        rows.append(list(rotlat.cyclo._reduce([0, *rows[-1]], x.m)))
    return rows


def mult_matrix_abs(x):
    """Matrix of multiplication by x on the power basis (row j = x * zeta^j):
    a route to traces and norms independent of the Ramanujan-sum table."""
    return [[Fraction(c, x.den) for c in row] for row in _mult_rows(x)]


def trace_via_mult_matrix(x):
    rows = mult_matrix_abs(x)
    return sum((rows[i][i] for i in range(len(rows))), Fraction(0))


def trace_by_form(x):
    """Tr(x) from Q(zeta_m) down to Q: the 1 x 1 trace form of 1 twisted by x."""
    rows, den = trace_form((CycloElt.one(x.m),), x)
    return Fraction(rows[0][0], den)


def norm_abs(x):
    """Norm of x from Q(zeta_m) down to Q (determinant of the multiplication map)."""
    rows = _mult_rows(x)
    return Fraction(det_int(rows), x.den ** len(rows))


def norm_by_determinant(x, field):
    """Norm of x from the field down to Q, as the determinant of
    multiplication by x on the integral basis (row j the coordinates of
    x * w_j): the route ``norm_real`` falls back to, and the oracle for the
    norms it and the norm search pin off embedding enclosures."""
    rows, scale = [], 1
    for w in field.basis:
        acc, s = integer_coords(field, x * w)
        rows.append(acc)
        scale *= s
    return Fraction(det_int(rows), scale)


def inverse_rational(rows):
    """Inverse of a square rational matrix via Gauss-Jordan; raises if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


# -- views of one closed form ---------------------------------------------------


def lattice_dimension(code, **params):
    return _closed_form(code, params)[1]


def scale_exponents(code, **params):
    """The exponent table of the scale integer c (params checked first)."""
    return dict(sorted(_closed_form(code, params)[0].scale(params).items()))


def dp_unscaled_exponents(code, **params):
    return _closed_form(code, params)[2]


def dp_rel_exponents(code, **params):
    return _closed_form(code, params)[3]


# -- the cyclotomic polynomial and order oracles ------------------------------


def _polydiv_exact(num, den):
    """Exact division of integer polynomials; den must be monic and divide num."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial_oracle(m):
    """Phi_m as (x^m - 1) divided by Phi_d for every proper divisor d of m,
    largest first, by long division."""
    if m == 1:
        return (-1, 1)
    quo = [0] * (m + 1)
    quo[0], quo[m] = -1, 1
    for d in range(m - 1, 0, -1):
        if m % d == 0:
            quo = _polydiv_exact(quo, cyclotomic_polynomial_oracle(d))
    return tuple(quo)


def order_in_quotient_oracle(a, m, subgroup):
    """The order of a modulo the subgroup, by walking a, a^2, ... one
    multiplication at a time, at most phi(m) steps."""
    a %= m
    if 1 not in subgroup:
        raise ValueError("subgroup must contain 1")
    x = a
    t = 1
    bound = euler_phi(m)
    while x not in subgroup:
        x = x * a % m
        t += 1
        if t > bound:
            raise ValueError(f"{a} is not invertible modulo {m}")
    return t


# -- the minimum-norm oracle ---------------------------------------------------


def box_in_scan_order(coeff_bound, n):
    """Every nonzero vector of the coefficient box in the norm search's
    order: sup-norm first, then the product order over the alphabet
    0, -1, 1, -2, 2, ... (last coordinate fastest)."""
    box = itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=n)
    return sorted((a for a in box if any(a)),
                  key=lambda a: (max(map(abs, a)), tuple(2 * abs(x) - (x < 0) for x in a)))


def half_box_in_scan_order(coeff_bound, n):
    """The vectors of ``box_in_scan_order`` whose first nonzero coordinate
    is negative: one of each pair +-a, the set the norm search walks."""
    return [a for a in box_in_scan_order(coeff_bound, n) if next(x for x in a if x) < 0]


def min_norm_search_oracle(module, coeff_bound, budget=NORM_SEARCH_BUDGET, half=False):
    """``min_norm_search`` without pruning: one exact determinant for every
    vector of the box, in the order of ``box_in_scan_order``, which sorts
    the box independently of the search's own walk.  With ``half``, only
    the vectors of ``half_box_in_scan_order`` are scanned, and so counted."""
    K = module.field
    n = K.n
    mats = [[integral_coords(K, g * w) for w in K.basis] for g in module.gamma]
    idx = range(n)
    best = None
    witness = ()
    evaluated = 0
    for a in (half_box_in_scan_order if half else box_in_scan_order)(coeff_bound, n):
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


def confirmed_by_search(module, coeff_bound):
    """``dp_closed_form``'s ``oracle_confirmed`` as the box walk alone gives
    it: an exhaustive ``min_norm_search`` whose minimum is the registry's
    ``min_norm``."""
    spec = _closed_form(module.construction, dict(module.field.params))[0]
    found = min_norm_search(module, coeff_bound)
    return found.exhaustive and found.min_abs_norm == spec.min_norm


def gram_json(g):
    """A GramMatrix's rational entries as JSON strings, in the layout
    ``tests/test_golden.py`` pins (``"scale_applied"`` is always "1")."""
    obj = {
        "scale_applied": "1",
        "entries": [[str(Fraction(e, g.den)) for e in row] for row in g.num],
    }
    return json.dumps(obj, indent=2) + "\n"

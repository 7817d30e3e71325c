"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

An element is phi(m) integer numerators over the power basis
{1, zeta_m, ..., zeta_m^(phi(m)-1)} and one common denominator, kept in
lowest terms and reduced modulo the monic m-th cyclotomic polynomial, so
the ring operations run in integers; ``coeffs`` is a read-only view of
the rational coordinates.  On top of the ring operations this module
provides absolute traces (via the closed form Tr(zeta_m^k) = c_m(k), the
Ramanujan sum), the integer trace-form kernel built on that closed form,
and certified real-interval enclosures of embedding values.

Enclosure policy: cosine values at the rational angles 2*pi*t/m are
enclosed once per (m, precision) with directed rounding and kept as
integer lower and upper numerators over one power of two 2^S.  One
kernel, ``real_embedding_bounds``, sums those leaves in integers into
bounds over x.den * 2^S, choosing the lower or upper leaf by the sign of
each coefficient, so reported intervals are true enclosures whose width
is governed by the leaf precision alone.  Total positivity, the
embedding rows and the norm-search pruning all read these integer
bounds; no other enclosure form exists in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath

from .numtheory import divisors, euler_phi, mobius


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
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
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed as (x^m - 1) / prod of the lower-order cyclotomic polynomials;
    lru_cache doubles as the per-conductor cache and is safe under
    concurrent use.
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    if m == 1:
        return (-1, 1)
    quo = [0] * (m + 1)
    quo[0], quo[m] = -1, 1
    for d in divisors(m)[:-1]:
        quo = _polydiv_exact(quo, cyclotomic_polynomial(d))
    return tuple(quo)


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(m) and the nonzero (j, coefficient) pairs of Phi_m below its
    leading term: what reduction modulo the monic Phi_m subtracts."""
    poly = cyclotomic_polynomial(m)
    deg = len(poly) - 1
    return deg, tuple((j, c) for j, c in enumerate(poly[:deg]) if c)


def _reduce(c: list[int], m: int) -> tuple[int, ...]:
    """Integer polynomial c (consumed) modulo Phi_m, as phi(m) coefficients."""
    deg, terms = _phi_terms(m)
    if len(c) < deg:
        c.extend([0] * (deg - len(c)))
    for i in range(len(c) - 1, deg - 1, -1):
        t = c[i]
        if t:
            base = i - deg
            for j, p in terms:
                c[base + j] -= t * p
    return tuple(c[:deg])


def _clear(values) -> tuple[list[int], int]:
    """Rational values as integer numerators over one common denominator;
    integers pass through untouched."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return values, 1
    fracs = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


@dataclass(frozen=True)
class CycloElt:
    """Element of Q(zeta_m): phi(m) integer numerators ``num`` over the power
    basis and one denominator ``den`` > 0, in lowest terms, so == and hash
    are value equality."""

    m: int
    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("conductor must be positive")
        if len(self.num) != euler_phi(self.m):
            raise ValueError(
                f"conductor {self.m} needs {euler_phi(self.m)} coefficients, "
                f"got {len(self.num)}"
            )
        if self.den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(self.den, *self.num)  # also rejects non-integer numerators
        if g != 1:
            object.__setattr__(self, "num", tuple(c // g for c in self.num))
            object.__setattr__(self, "den", self.den // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coordinates over the power basis (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, m: int, seq) -> "CycloElt":
        """The element sum_k seq[k] zeta_m^k, for rational seq of any length."""
        num, den = _clear(seq)
        return cls(m, _reduce(num, m), den)

    @classmethod
    def zero(cls, m: int) -> "CycloElt":
        return cls.from_coeffs(m, [])

    @classmethod
    def one(cls, m: int) -> "CycloElt":
        return cls.rational(m, 1)

    @classmethod
    def rational(cls, m: int, value) -> "CycloElt":
        return cls.from_coeffs(m, [value])

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CycloElt":
        """zeta_m^k."""
        k %= m
        return cls.from_coeffs(m, [0] * k + [1])

    @classmethod
    def zeta_pair(cls, m: int, k: int) -> "CycloElt":
        """zeta_m^k + zeta_m^(-k)."""
        return cls.zeta(m, k) + cls.zeta(m, -k)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElt):
            if other.m != self.m:
                raise ValueError(f"conductor mismatch: {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElt.rational(self.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        return CycloElt(self.m, tuple(a * db + b * da for a, b in zip(self.num, other.num)), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycloElt(self.m, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloElt(self.m, tuple(q.numerator * a for a in self.num), q.denominator * self.den)
        if not isinstance(other, CycloElt):
            return NotImplemented
        m = self.m
        if other.m != m:
            raise ValueError(f"conductor mismatch: {m} vs {other.m}")
        # cyclic convolution in Z[x]/(x^m - 1), then one reduction modulo Phi_m
        b = [(j, c) for j, c in enumerate(other.num) if c]
        out = [0] * m
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in b:
                    out[(i + j) % m] += ai * bj
        return CycloElt(m, _reduce(out, m), self.den * other.den)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.num)

    # -- Galois action and conductor embedding ------------------------

    def _spread(self, target: int, step: int) -> "CycloElt":
        """The image under zeta_m |-> zeta_target^step."""
        out = [0] * target
        for j, c in enumerate(self.num):
            if c:
                out[j * step % target] += c
        return CycloElt(target, _reduce(out, target), self.den)

    def galois(self, s: int) -> "CycloElt":
        """Image under zeta_m |-> zeta_m^s; s must be invertible mod m."""
        s %= self.m
        if gcd(s, self.m) != 1:
            raise ValueError(f"{s} is not invertible modulo {self.m}")
        return self._spread(self.m, s)

    def conj(self) -> "CycloElt":
        return self.galois(-1)

    def lift(self, target: int) -> "CycloElt":
        """Image in Q(zeta_target) under zeta_m |-> zeta_target^(target/m)."""
        if target % self.m != 0:
            raise ValueError(f"conductor {target} is not a multiple of {self.m}")
        return self._spread(target, target // self.m)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "CycloElt":
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("element must be an object with a 'coeffs' list")
        m = obj["m"]
        if type(m) is not int or not all(
            type(s) is int or type(s) is str and re.fullmatch("-?[0-9]+(/[0-9]+)?", s)
            for s in obj["coeffs"]
        ):
            raise ValueError("element needs an integer 'm' and integer or 'a/b' string coeffs")
        try:
            # integer strings, the form to_json writes, stay on _clear's integer path
            num, den = _clear(Fraction(s) if type(s) is str and "/" in s else int(s)
                              for s in obj["coeffs"])
            return cls(m, tuple(num), den)
        except ZeroDivisionError as exc:
            raise ValueError(f"malformed element: {exc}") from None


# -- traces and norms over Q -------------------------------------------


@lru_cache(maxsize=None)
def _trace_table(m: int) -> tuple[int, ...]:
    """Tr(zeta_m^t) for t = 0..m-1: the Ramanujan sum c_m(t) =
    mu(m/d) * phi(m)/phi(m/d), d = gcd(t, m), an integer for every t."""
    phi = euler_phi(m)
    out = []
    for t in range(m):
        md = m // gcd(t, m)
        out.append(mobius(md) * (phi // euler_phi(md)))
    return tuple(out)


def trace_abs(x: CycloElt) -> Fraction:
    """Trace of x from Q(zeta_m) down to Q."""
    table = _trace_table(x.m)
    return Fraction(sum(c * t for c, t in zip(x.num, table)), x.den)


def trace_form(xs, twist: CycloElt | None = None) -> tuple[list[list[int]], int]:
    """Tr(twist * x_i * x_j) for all i, j (twist defaults to 1), as integer
    numerators over one positive denominator (not reduced).

    Tr(zeta^t) = c_m(t) holds for every integer t, so with
    u[t] = Tr(twist * zeta^t) = sum_a twist_a c_m((a + t) mod m) and
    v_x[l] = sum_k x_k u[(k + l) mod m], each numerator is the dot product
    of x_j's numerators with v_(x_i), scaled to the common denominator; no
    product is formed or reduced modulo Phi_m.  The form is symmetric, so
    each entry below the diagonal is copied from above.
    """
    m = xs[0].m
    if twist is None:
        twist = CycloElt.one(m)
    if any(e.m != m for e in (*xs, twist)):
        raise ValueError("trace_form needs one conductor")
    phi = euler_phi(m)
    table = _trace_table(m)
    u = [0] * m
    for a, c in enumerate(twist.num):
        if c:
            u = [s + c * b for s, b in zip(u, table[a:] + table[:a])]
    wrapped = u + u[:phi]
    dx = lcm(*(x.den for x in xs))
    sparse = [([(l, c) for l, c in enumerate(x.num) if c], dx // x.den) for x in xs]
    rows = [[0] * len(xs) for _ in xs]
    for i, (nz_i, fx) in enumerate(sparse):
        v = [0] * phi
        for k, c in nz_i:
            v = [a + c * b for a, b in zip(v, wrapped[k:k + phi])]
        for j in range(i, len(xs)):
            nz, fy = sparse[j]
            rows[i][j] = rows[j][i] = fx * fy * sum(c * v[l] for l, c in nz)
    return rows, dx * dx * twist.den


# -- certified real enclosures ------------------------------------------


def _dyadic(t) -> tuple[int, int]:
    """A finite raw mpmath endpoint as (signed mantissa, exponent)."""
    sign, man, exp, _ = t
    man = int(man)
    if man == 0:
        if exp == 0:
            return 0, 0
        raise ValueError("nonfinite interval endpoint")
    return (-man if sign else man), exp


@lru_cache(maxsize=None)
def _cos_table(m: int, prec: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Leaves of every enclosure: cos(2*pi*t/m) for t = 0..m-1, enclosed at
    prec bits with directed rounding, as (S, lower numerators, upper
    numerators) over the one denominator 2^S."""
    ctx = mpmath.iv
    old = ctx.prec
    try:
        ctx.prec = prec
        two_pi = 2 * ctx.pi
        ends = []
        for t in range(m):
            a, b = ctx.cos(two_pi * t / m)._mpi_
            ends.append((_dyadic(a), _dyadic(b)))
    finally:
        ctx.prec = old
    shift = max(0, *(-e for pair in ends for _, e in pair))
    lo = tuple(man << (shift + e) for (man, e), _ in ends)
    hi = tuple(man << (shift + e) for _, (man, e) in ends)
    return shift, lo, hi


def real_embedding_bounds(x: CycloElt, reps, prec: int) -> tuple[list[tuple[int, int]], int]:
    """Certified bounds of sum_j c_j cos(2*pi*j*k/m) for each k in reps, as
    integer (lower, upper) numerators over one positive denominator.

    For x fixed by complex conjugation this is the embedding
    zeta_m |-> exp(2*pi*i*k/m) of x, which is then real.  With leaves
    [L_t, U_t] / 2^S, the lower numerator is
    sum_{c_j > 0} c_j L_(jk mod m) + sum_{c_j < 0} c_j U_(jk mod m) and the
    upper one its mirror, over x.den * 2^S: exactly the interval sum of the
    leaves scaled by c_j / x.den, formed in integers.
    """
    shift, lo, hi = _cos_table(x.m, prec)
    m = x.m
    pos = [(j, c) for j, c in enumerate(x.num) if c > 0]
    neg = [(j, c) for j, c in enumerate(x.num) if c < 0]
    out = []
    for k in reps:
        out.append((
            sum(c * lo[j * k % m] for j, c in pos) + sum(c * hi[j * k % m] for j, c in neg),
            sum(c * hi[j * k % m] for j, c in pos) + sum(c * lo[j * k % m] for j, c in neg),
        ))
    return out, x.den << shift

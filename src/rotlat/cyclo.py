"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

An element is phi(m) integer numerators over the power basis
{1, zeta_m, ..., zeta_m^(phi(m)-1)} and one common denominator, kept in
lowest terms and reduced modulo the monic m-th cyclotomic polynomial, so
the ring operations run in integers; ``coeffs`` is a read-only view of
the rational coordinates.  On top of the ring operations this module
provides the integer trace-form kernel, built on the closed form
Tr(zeta_m^k) = c_m(k) (the Ramanujan sum), and certified real-interval
enclosures of embedding values.

Enclosure policy: cosine values at the rational angles 2*pi*t/m are
enclosed once per (m, precision) as integer lower and upper numerators
over one power of two 2^S.  One kernel, ``_sum_leaves``, sums such leaves
in integers into bounds over x.den * 2^S, choosing the lower or upper leaf
by the sign of each coefficient, so reported intervals are true
enclosures whose width is governed by the leaf precision alone.  The
leaves have two sources.  ``_cos_table`` computes them here in exact
integer arithmetic (a fixed-point pi, one Taylor-series base angle and
integer rotation steps, each leaf widened by a proven error radius);
``real_embedding_bounds`` sums them, and total positivity and the
norm-search pruning read it.  The ``embed`` rows alone sum the
directed-rounding leaves of mpmath's ``iv.cos``, kept in ``gram`` and
computed in integers by ``ivcos``, because the written embedding bytes
are pinned to those leaves' endpoints.  No command loads mpmath.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter

from .numtheory import divisors, euler_phi, mobius


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Phi_m = prod over d | m of (x^d - 1)^mu(m/d) (Washington, Introduction
    to Cyclotomic Fields, ch. 2): each x^d - 1 with mu(m/d) = 1 is
    multiplied in, then each with mu(m/d) = -1 is divided out by the exact
    recurrence q_i = q_(i-d) - p_i, which must leave no remainder.
    lru_cache doubles as the per-conductor cache and is safe under
    concurrent use.
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    poly = [1]
    for d in divisors(m):
        if mobius(m // d) == 1:
            poly = [0] * d + poly
            for i in range(len(poly) - d):
                poly[i] -= poly[i + d]
    for d in divisors(m):
        if mobius(m // d) == -1:
            q: list[int] = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            if ([0] * d + q)[len(q):] != poly[len(q):]:
                raise ArithmeticError("polynomial division left a remainder")
            poly = q
    return tuple(poly)


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


_COEFF = re.compile("-?[0-9]+(/[0-9]+)?")
_COEFFS_MESSAGE = "element needs an integer 'm' and integer or 'a/b' string coeffs"


def _clear(values) -> tuple[list[int], int]:
    """Rational values as integer numerators over one common denominator;
    integers pass through untouched."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return values, 1
    fracs = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


class Value:
    """Base of the value types that validate or normalise on construction.

    The constructor sets each attribute once (through ``object.__setattr__``);
    assignment and deletion raise AttributeError afterwards.  ==, hash, repr
    and pickling read the fields named in ``_fields``, in order: a value
    equals only a value of its own class, and hashes as the tuple of those
    fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = property(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._key


class CycloElt(Value):
    """Element of Q(zeta_m): phi(m) integer numerators ``num`` over the power
    basis and one denominator ``den`` > 0, in lowest terms, so == and hash
    are value equality."""

    __slots__ = _fields = ("m", "num", "den")

    def __init__(self, m: int, num: tuple[int, ...], den: int = 1):
        if m < 1:
            raise ValueError("conductor must be positive")
        if len(num) != euler_phi(m):
            raise ValueError(
                f"conductor {m} needs {euler_phi(m)} coefficients, got {len(num)}"
            )
        if den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(den, *num)  # also rejects non-integer numerators
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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

    def lift(self, target: int) -> "CycloElt":
        """Image in Q(zeta_target) under zeta_m |-> zeta_target^(target/m)."""
        if target % self.m != 0:
            raise ValueError(f"conductor {target} is not a multiple of {self.m}")
        return self._spread(target, target // self.m)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        if self.den == 1:
            return {"m": self.m, "coeffs": [str(a) for a in self.num]}
        return {"m": self.m, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "CycloElt":
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("element must be an object with a 'coeffs' list")
        m, coeffs = obj["m"], obj["coeffs"]
        # A file repeats a few coefficients (mostly "0") many times, so each
        # distinct one is checked and parsed once.  Only ints and strings
        # pass the type test, so the set cannot merge 1 with True or 1.0.
        if type(m) is not int or not set(map(type, coeffs)) <= {int, str}:
            raise ValueError(_COEFFS_MESSAGE)
        distinct = set(coeffs)
        if not all(type(s) is int or _COEFF.fullmatch(s) for s in distinct):
            raise ValueError(_COEFFS_MESSAGE)
        try:
            # integer strings, the form to_json writes, stay on _clear's integer path
            value = {s: Fraction(s) if type(s) is str and "/" in s else int(s) for s in distinct}
        except ZeroDivisionError as exc:
            raise ValueError(f"malformed element: {exc}") from None
        num, den = _clear([value[s] for s in coeffs])
        return cls(m, tuple(num), den)


# -- traces over Q ------------------------------------------------------


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


def _atan_inv(k: int, w: int) -> tuple[int, int]:
    """2^w * atan(1/k) for an integer k >= 2, and a bound on its error in
    units of 2^-w.

    Term j is floor(2^w / ((2j+1) k^(2j+1))), exact to below one unit
    because floor(floor(a) / b) = floor(a / b) for a positive integer b.
    The series stops at the first power that floors to 0, where the
    alternating tail is below one unit, so J terms err by less than J + 1.
    """
    power = (1 << w) // k
    total, j = 0, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        power //= k * k
        j += 1
    return total, j + 1


def _cos_sin(x: int, w: int) -> tuple[int, int, int]:
    """2^w cos(u) and 2^w sin(u) for u = x / 2^w in [0, 1.6], and a bound
    on the error of each in units of 2^-w.

    Taylor term n is floor(term_(n-1) * u / n), below the true 2^w u^n / n!
    by less than 2 (by less than 1 at n = 2; each step multiplies the
    error by u / n <= 1/2 from n = 4 on and adds less than 1).  The series
    stops at the first term that floors to 0; the true terms from there on
    fall, so each alternating tail is below 2 units, and N terms err by
    less than 2N + 2.
    """
    c, s = 1 << w, 0
    term, n = c, 0
    while term:
        n += 1
        term = (term * x >> w) // n
        if n & 1:
            s += -term if n & 2 else term
        else:
            c += -term if n & 2 else term
    return c, s, 2 * n + 2


@lru_cache(maxsize=None)
def _cos_table(m: int, prec: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The integer leaves: cos(2*pi*t/m) for t = 0..m-1 as (S, lower
    numerators, upper numerators) over 2^S, S = prec; each leaf is at
    most 2 units of 2^-prec wide and exact at 0 and +-1.

    All angles are multiples of u = pi/(2m).  pi comes from Machin's
    formula 16 atan(1/5) - 4 atan(1/239) and cos u, sin u from their
    Taylor series, at ``extra`` guard bits above W = ``work`` = prec + g,
    with a counted error checked to stay below half a unit of 2^-W;
    rounded to W bits, each is within 1 unit of 2^-W.  The
    integer rotation (x, y) -> floor((x c - y s, x s + y c) / 2^W) from
    (2^W, 0) then gives 2^W (cos au, sin au) for a = 0..m/2 within 4a
    units (Euclidean): one step adds under sqrt(2) * 9/8 for the rounded
    c and s plus sqrt(2) for the floors, while the error stays below
    2^(W-3) (4a <= 2m < 2^(W-3) for prec >= 1).  cos(2*pi*t/m) = cos(4t u)
    is +-cos(au) or sin(au) with a <= m/2 (cos(pi - v) = -cos v,
    cos(pi/2 - v) = sin v, and t, m - t share a leaf), and its leaf is
    that value widened outward by 4a and rounded outward to 2^-prec.  As
    8a < 2^g, the width is at most 2 units.
    """
    g = m.bit_length() + 3
    work = prec + g
    extra = work.bit_length() + 6
    w = work + extra
    pi_a, err_a = _atan_inv(5, w)
    pi_b, err_b = _atan_inv(239, w)
    u = (16 * pi_a - 4 * pi_b) // (2 * m)
    c, s, err = _cos_sin(u, w)
    err += (16 * err_a + 4 * err_b) // (2 * m) + 2  # |cos' u|, |sin' u| <= 1
    if 2 * err > 1 << extra:
        raise ArithmeticError("base angle error above its guard bits")
    half = 1 << (extra - 1)
    c, s = (c + half) >> extra, (s + half) >> extra
    x, y = 1 << work, 0
    xs, ys = [x], [y]
    for _ in range(m // 2):
        x, y = (x * c - y * s) >> work, (x * s + y * c) >> work
        xs.append(x)
        ys.append(y)
    lo, hi = [0] * m, [0] * m
    for t in range(m // 2 + 1):
        j, sign = 4 * t, 1
        if j > m:
            j, sign = 2 * m - j, -1
        if 2 * j <= m:
            a, v = j, xs[j]
        else:
            a = m - j
            v = ys[a]
        v *= sign
        lo[t] = lo[-t] = (v - 4 * a) >> g
        hi[t] = hi[-t] = -((-v - 4 * a) >> g)
    return prec, tuple(lo), tuple(hi)


def real_embedding_bounds(x: CycloElt, reps, prec: int) -> tuple[list[tuple[int, int]], int]:
    """Certified bounds of sum_j c_j cos(2*pi*j*k/m) for each k in reps, as
    integer (lower, upper) numerators over one positive denominator: the
    integer leaves ``_cos_table(x.m, prec)`` summed by ``_sum_leaves``.

    For x fixed by complex conjugation this is the embedding
    zeta_m |-> exp(2*pi*i*k/m) of x, which is then real.
    """
    return _sum_leaves(x, reps, _cos_table(x.m, prec))


def _sum_leaves(x: CycloElt, reps, leaves) -> tuple[list[tuple[int, int]], int]:
    """The enclosure kernel.  With leaves (S, L, U), cos(2*pi*t/m) in
    [L_t, U_t] / 2^S, the lower numerator for k is
    sum_{c_j > 0} c_j L_(jk mod m) + sum_{c_j < 0} c_j U_(jk mod m) and the
    upper one its mirror, over x.den * 2^S: exactly the interval sum of the
    leaves scaled by c_j / x.den, formed in integers.
    """
    shift, lo, hi = leaves
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

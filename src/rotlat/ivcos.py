"""Interval cosines at rational angles, as mpmath's ``iv.cos`` gives them,
in integers.

The ``embed`` rows sum the leaves cos(2*pi*t/m) enclosed with directed
rounding (``gram._embed_cos_table``), and the written embedding bytes are
pinned to the endpoints that ``mpmath.iv.cos(2 * mpmath.iv.pi * t / m)``
returns at ``iv.prec = prec`` under mpmath 1.3.0's pure-Python backend.
``cos_interval`` repeats that chain bit for bit:

- pi enclosed at prec bits from the exact floor(pi * 2^(prec+20)), doubled,
  times t and over m, each product and quotient rounded outward at prec
  bits, and t and m first rounded to prec bits themselves;
- per endpoint x, mpmath's ``cos_sin_quadrant`` at wp = prec + 20 bits:
  ``mod_pi2`` (x mod pi/2 with its cancellation retries), the fixed-point
  ``cos_sin_basecase`` (a cache of cos and sin at 400 bits in steps of
  2^-8 plus a short Taylor series, or above 400 bits the doubled-angle
  ``exponential_series`` and its ``isqrt_fast``), the quadrant turn, the
  rounding toward zero at wp bits, and the quadrant index of ``mod_pi2``
  at 15 bits;
- ``mpi_cos_sin``'s ordering and quadrant rules, then its outward
  perturbation by (2^wp +- 2^10) / 2^wp at prec bits, clamped to [-1, 1].

A value is a pair (man, exp) for man * 2^exp, normalised as mpmath stores
it: man odd, or (0, 0).  Every step rounds as mpmath does: the interval
products and quotients are correctly rounded in one direction (any exact
method gives the same bits), and the fixed-point series repeat mpmath's
own truncations, term for term.  mpmath's gmpy backend takes other
cutoffs (``COS_SIN_CACHE_PREC`` 200), so its bits can differ; these are
the pure-Python backend's.  Only ``gram._embed_cos_table`` imports this
module, on first use.
"""

from __future__ import annotations

from .cyclo import _atan_inv

_CACHE_PREC = 400  # mpmath's COS_SIN_CACHE_PREC (pure-Python backend)
_CACHE_STEP = 8  # COS_SIN_CACHE_STEP
_SERIES_U_CUTOFF = 1500  # EXP_SERIES_U_CUTOFF
_basecase_cache: dict[int, tuple[int, int]] = {}  # cos_sin_cache
_pi_memo = [-1, 0]  # (precision, floor(pi * 2^precision))


def pi_floor(p: int) -> int:
    """floor(pi * 2^p), exactly: the value mpmath's ``pi_fixed(p)`` returns.

    Like mpmath's ``constant_memo``, a miss computes the constant at
    int(p * 1.05 + 10) bits and a hit shifts the memo down; the floor of
    the floor is the floor, so the result is the same in any order."""
    prec, value = _pi_memo
    if p <= prec:
        return value >> (prec - p)
    prec = int(p * 1.05 + 10)
    _pi_memo[:] = prec, _machin_pi_floor(prec)
    return _pi_memo[1] >> (prec - p)


def _machin_pi_floor(p: int) -> int:
    """floor(pi * 2^p) from Machin's 16 atan(1/5) - 4 atan(1/239) with
    ``cyclo._atan_inv``'s counted error, the guard bits doubled until the
    whole error interval floors to one integer (pi is irrational, so one
    always does)."""
    guard = p.bit_length() + 8
    while True:
        w = p + guard
        a, err_a = _atan_inv(5, w)
        b, err_b = _atan_inv(239, w)
        v, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
        lo = (v - err) >> guard
        if lo == (v + err) >> guard:
            return lo
        guard *= 2


def _rounded(man: int, exp: int, prec: int, up: bool) -> tuple[int, int]:
    """man * 2^exp rounded to prec bits toward +inf (``up``) or -inf,
    normalised (mpmath's ``normalize`` with round_ceiling or round_floor)."""
    n = abs(man).bit_length() - prec
    if n > 0:
        man = -(-man >> n) if up else man >> n
        exp += n
    if not man:
        return 0, 0
    z = (man & -man).bit_length() - 1
    return man >> z, exp + z


def _quotient(x: tuple[int, int], y: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    """x / y for positive x and y, rounded to prec bits in one direction:
    a quotient of at least prec + 4 bits with a sticky bit for a nonzero
    remainder, as mpmath's ``mpf_div`` forms it."""
    (xm, xe), (ym, ye) = x, y
    extra = max(prec - xm.bit_length() + ym.bit_length() + 5, 5)
    q, rem = divmod(xm << extra, ym)
    if rem:
        q = (q << 1) + 1
        extra += 1
    return _rounded(q, xe - ye - extra, prec, up)


def _less(x: tuple[int, int], y: tuple[int, int]) -> bool:
    (xm, xe), (ym, ye) = x, y
    e = min(xe, ye)
    return xm << (xe - e) < ym << (ye - e)


def cos_interval(t: int, m: int, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The endpoints (lower, upper) of ``mpmath.iv.cos(2 * mpmath.iv.pi *
    t / m)`` at ``iv.prec = prec``, each as (man, exp) with man odd or
    (0, 0); integers t >= 0, m >= 1, prec >= 1."""
    if t < 0 or m < 1 or prec < 1:
        # mpmath's infinite endpoints come only from a zero or
        # sign-changing divisor, which an angle 2*pi*t/m never has
        raise ValueError(f"cos_interval needs t >= 0, m >= 1 and prec >= 1, got {t}, {m}, {prec}")
    if not t:
        return (1, 0), (1, 0)  # mpi_cos_sin of the exact zero interval
    wp = prec + 20
    pi = pi_floor(wp)
    pi_lo, pi_hi = _rounded(pi, -wp, prec, False), _rounded(pi + 1, -wp, prec, True)
    t_lo, t_hi = _rounded(t, 0, prec, False), _rounded(t, 0, prec, True)
    m_lo, m_hi = _rounded(m, 0, prec, False), _rounded(m, 0, prec, True)
    # 2 * pi is exact; the product with t and the quotient by m round outward
    x_lo = _rounded(pi_lo[0] * t_lo[0], pi_lo[1] + 1 + t_lo[1], prec, False)
    x_hi = _rounded(pi_hi[0] * t_hi[0], pi_hi[1] + 1 + t_hi[1], prec, True)
    ca, na = _cos_quadrant(*_quotient(x_lo, m_hi, prec, False), wp)
    cb, nb = _cos_quadrant(*_quotient(x_hi, m_lo, prec, True), wp)
    if _less(cb, ca):
        ca, cb = cb, ca
    if na != nb:
        if nb - na >= 4:
            return (-1, 0), (1, 0)
        if na // 4 != nb // 4:  # a maximum of cos lies between the endpoints
            cb = (1, 0)
        if (na - 2) // 4 != (nb - 2) // 4:  # and a minimum
            ca = (-1, 0)
    return _finalize(ca, wp, prec, False), _finalize(cb, wp, prec, True)


def _finalize(v: tuple[int, int], wp: int, prec: int, up: bool) -> tuple[int, int]:
    """mpi_cos_sin's ``finalize``: v times (2^wp + 2^10) / 2^wp when that
    moves it outward, else times (2^wp - 2^10) / 2^wp, rounded to prec
    bits in the same direction, then clamped to [-1, 1]."""
    man, exp = v
    k = wp - 10
    factor = (1 << k) + 1 if (man < 0) != up else (1 << k) - 1
    man, exp = _rounded(man * factor, exp - k, prec, up)
    if exp + abs(man).bit_length() >= 1:
        return (-1 if man < 0 else 1), 0
    return man, exp


def _cos_quadrant(man: int, exp: int, wp: int) -> tuple[tuple[int, int], int]:
    """mpmath's ``cos_sin_quadrant(x, wp)`` for x = man * 2^exp > 0: cos x
    from ``mpf_cos_sin`` rounded toward zero at wp bits, and the quadrant
    index of ``mod_pi2(man, exp, mag, 15)``."""
    mag = man.bit_length() + exp
    w = wp + 10
    if mag < -w:
        # mpf_cos_sin's tail: cos x is 1 perturbed down, and mod_pi2 of a
        # value below 1 is quadrant 0
        return ((1 << wp) - 1, -wp), 0
    t, n, w = _mod_pi2(man, exp, mag, w)
    c = _cos_sin_basecase(t, w, n & 1)
    if n & 3 in (1, 2):
        c = -c
    cos = _rounded(c, -w, wp, c < 0)
    return cos, _mod_pi2(man, exp, mag, 15)[1]


def _mod_pi2(man: int, exp: int, mag: int, wp: int) -> tuple[int, int, int]:
    """mpmath's ``mod_pi2``: x = man * 2^exp > 0 as (t, n, wp') with
    x = n * pi/2 + t / 2^wp'.  For x >= 1 it takes pi at 20 << i guard bits,
    i = 0, 1, ..., until the remainder keeps wp + mag - 10 bits clear of
    a multiple of pi/2."""
    if mag > 0:
        i = 0
        while True:
            wpmod = wp + mag + (20 << i)
            pi2 = pi_floor(wpmod - 1)
            offset = wpmod + exp
            t = man << offset if offset >= 0 else man >> -offset
            n, y = divmod(t, pi2)
            small = pi2 - y if y > pi2 >> 1 else y
            if small >> (wp + mag - 10):
                return y >> mag, n, wpmod - mag
            i += 1
    wp -= mag
    offset = exp + wp
    return (man << offset if offset >= 0 else man >> -offset), 0, wp


def _cos_sin_basecase(x: int, prec: int, sine: int) -> int:
    """mpmath's ``cos_sin_basecase(x, prec)`` for 0 <= x / 2^prec < pi/2:
    its sine when ``sine``, else its cosine.  Up to 400 bits: the cached
    cos and sin of x's leading 8 fractional bits, rotated by a Taylor
    series in the rest."""
    if prec > _CACHE_PREC:
        return _exponential_series(x, prec, sine)[sine]
    precs = prec - _CACHE_STEP
    t = x >> precs
    entry = _basecase_cache.get(t)
    if entry is None:
        w = t << (10 + _CACHE_PREC - _CACHE_STEP)
        cos_t, sin_t = _exponential_series(w, 10 + _CACHE_PREC, True)
        entry = _basecase_cache[t] = cos_t >> 10, sin_t >> 10
    offset = _CACHE_PREC - prec
    cos_t, sin_t = entry[0] >> offset, entry[1] >> offset
    x -= t << precs
    cos, sin, k = 1 << prec, x, 2
    a = -((x * x) >> prec)
    while a:
        a //= k
        cos += a
        k += 1
        a = (a * x) >> prec
        a //= k
        sin += a
        k += 1
        a = -((a * x) >> prec)
    if sine:
        return (sin * cos_t + cos * sin_t) >> prec
    return (cos * cos_t - sin * sin_t) >> prec


def _exponential_series(x: int, prec: int, sine: int) -> tuple[int, int | None]:
    """mpmath's ``exponential_series(x, prec, type=2)`` for x >= 0: the
    cosine and, when ``sine``, the sine (else None).  The cosine series
    runs at 2^-r of the angle, in two interleaved sums below 1,500 bits
    and u of them from there on, and r doublings restore it; the sine is
    ``isqrt_fast`` of 1 - cos^2."""
    r = int(0.5 * prec ** 0.5)
    xmag = x.bit_length() - prec
    r = max(0, xmag + r)
    extra = 10 + 2 * max(r, -xmag)
    wp = prec + extra
    x <<= extra - r
    one = 1 << wp
    if prec < _SERIES_U_CUTOFF:
        x2 = a = (x * x) >> wp
        x4 = (x2 * x2) >> wp
        s0 = s1 = 0
        k = 2
        while a:
            a //= (k - 1) * k
            s0 += a
            k += 2
            a //= (k - 1) * k
            s1 += a
            k += 2
            a = (a * x4) >> wp
        s1 = (x2 * s1) >> wp
        c = s1 - s0 + one
    else:
        u = int(0.3 * prec ** 0.35)
        x2 = a = (x * x) >> wp
        xpowers = [one, x2]
        for _ in range(1, u):
            xpowers.append((xpowers[-1] * x2) >> wp)
        sums = [0] * u
        k = 2
        while a:
            for i in range(u):
                a //= (k - 1) * k
                if k & 2:
                    sums[i] -= a
                else:
                    sums[i] += a
                k += 2
            a = (a * xpowers[-1]) >> wp
        for i in range(1, u):
            sums[i] = (sums[i] * xpowers[i]) >> wp
        c = sum(sums) + one
    pshift = wp - 1
    for _ in range(r):
        c = ((c * c) >> pshift) - one
    s = _isqrt_fast(abs((one << wp) - c * c)) >> extra if sine else None
    return c >> extra, s


def _isqrt_fast(x: int) -> int:
    """mpmath's ``isqrt_fast_python``: a float start and Newton steps,
    which may fall 1 below floor(sqrt(x)); mpmath's sines carry that."""
    if x < 1 << 800:
        y = int(x ** 0.5)
        if x >= 1 << 100:
            y = (y + x // y) >> 1
            if x >= 1 << 200:
                y = (y + x // y) >> 1
                if x >= 1 << 400:
                    y = (y + x // y) >> 1
        return y
    bc = x.bit_length() + 20
    x <<= 20  # 10 guard bits
    bc += bc & 1
    hbc = bc // 2
    start = min(50, hbc)
    r = int(2.0 ** (2 * start) * (x >> (bc - 2 * start)) ** -0.5)
    steps = [hbc]  # mpmath's giant_steps(start, hbc)
    while steps[-1] > 2 * start:
        steps.append(steps[-1] // 2 + 2)
    pp = start
    for p in reversed(steps):
        r2 = (r * r) >> (2 * pp - p)
        xr2 = ((x >> (bc - p)) * r2) >> p
        r = (r * ((3 << p) - xr2)) >> (pp + 1)
        pp = p
    return (r * (x >> hbc)) >> (pp + 10)

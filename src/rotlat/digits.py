"""Decimal digits of a binary fraction, written as mpmath writes them.

``rotlat embed`` writes each cell of the generator matrix from its
enclosure's midpoint num / den, and the embed bytes are pinned to what
``mpmath.nstr(mpmath.mpf(num // g) / (den // g), dps)`` gives under
``workprec(precision)``, g = gcd(num, den).  ``cell_writer`` repeats
mpmath's arithmetic in integers: ``mpf`` rounds the reduced numerator to
the working precision (half-even), the division rounds the quotient the
same way, ``to_digits_exp`` takes dps + 3 digits rounded toward zero from
a fixed-point image, and ``to_str`` rounds those at dps digits, chooses
fixed or exponent form and strips zeros.  Only ``gram.embedding_csv``
imports this module, on first use.
"""

from __future__ import annotations

from math import gcd, log

_LOG2_10 = log(10, 2)  # the float to_digits_exp computes, bit for bit
_STR_BITS = 13_000  # below CPython's 4,300-digit int-to-str limit


def cell_writer(precision: int, dps: int):
    """The function (num, den) -> the decimal that ``mpmath.nstr(mpmath.mpf(
    num // g) / (den // g), dps)`` returns under ``workprec(precision)``,
    where g = gcd(num, den), den > 0 and dps >= 1; integers only."""
    bitprec = int((dps + 3) * _LOG2_10) + 10
    min_fixed = min(-(dps // 3), -5)
    pow10 = {}

    def cell(num: int, den: int) -> str:
        if not num:
            return "0.0"
        g = gcd(num, den)
        sign = "-" if num < 0 else ""
        man, exp = _rounded_quotient(abs(num) // g, den // g, precision)
        top = man.bit_length() + exp  # |value| lies in [2^(top-1), 2^top)
        exponent = 0
        if abs(top) > 3500:
            man, exp, exponent = _scaled_by_power_of_ten(man, exp, bitprec)
            top = man.bit_length() + exp
        fixprec = max(bitprec - top, 0)
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        shift = exp + fixprec
        fixed = man << shift if shift >= 0 else man >> -shift
        scale = pow10.get(fixdps)
        if scale is None:
            scale = pow10[fixdps] = 10 ** fixdps
        digits = _decimal(fixed * scale >> fixprec)
        exponent += len(digits) - fixdps - 1
        return sign + _nstr_digits(digits, exponent, dps, min_fixed)

    return cell


def _round_half_even(man: int, shift: int, sticky: int = 0) -> int:
    """man / 2^shift (shift >= 1) rounded to an integer, ties to even;
    a nonzero ``sticky`` means the true value lies strictly between man
    and man + 1, so a tie is broken upward."""
    q = man >> shift
    rest = man - (q << shift)
    half = 1 << (shift - 1)
    if rest > half or (rest == half and (sticky or q & 1)):
        q += 1
    return q


def _rounded_quotient(num: int, den: int, precision: int) -> tuple[int, int]:
    """mpf(num) / den at ``precision`` bits, both roundings half-even, as
    (man, exp) with value man * 2^exp; num, den > 0."""
    exp = 0
    excess = num.bit_length() - precision
    if excess > 0:
        num = _round_half_even(num, excess)
        exp = excess
    zeros = (den & -den).bit_length() - 1
    den >>= zeros
    exp -= zeros
    if den == 1:
        return num, exp
    # a quotient of at least precision + 2 bits, then one rounding
    extra = precision + 2 + den.bit_length() - num.bit_length()
    quot, rem = divmod(num << extra, den)
    excess = quot.bit_length() - precision
    return _round_half_even(quot, excess, rem), exp - extra + excess


def _decimal(n: int) -> str:
    """str(n) for n >= 0, split in halves above CPython's digit limit."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    half = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).rjust(half, "0")


def _nstr_digits(digits: str, exponent: int, dps: int, min_fixed: int) -> str:
    """mpmath's ``to_str`` on the digits d.ddd... * 10^exponent that
    ``to_digits_exp`` gave: round half up at dps digits, fixed form when
    min_fixed < exponent < dps, trailing zeros stripped."""
    if len(digits) > dps and digits[dps] in "56789":
        head = digits[:dps].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1)
        else:
            digits = "1"
            exponent += 1
    else:
        digits = digits[:dps]
    if min_fixed < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            digits = digits.ljust(split, "0")
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return digits
    return f"{digits}e{exponent:+d}"


# floor(ln 2 * 2^256) and floor(ln 10 * 2^254), for mpmath's ln2 and ln10
# constants at up to 256 bits
_LN2 = 0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2b
_LN10 = 0x935d8dddaaa8ac16ea56d62b82d30a28e28fecf9da5df90e83c61e8201f02d72


def _scaled_by_power_of_ten(man: int, exp: int, bitprec: int) -> tuple[int, int, int]:
    """``to_digits_exp``'s rescaling of a value man * 2^exp whose binary
    exponent passes 3500: b = trunc(e * ln 2 / ln 10) for the odd-mantissa
    exponent e, from mpmath's ln 2 and ln 10 at bitcount(|e|) + 5 bits, then
    the value over its 10^b at bitprec bits (rounded toward zero), as
    (man, exp, b)."""
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    exp += zeros
    k = abs(exp).bit_length() + 5
    b = abs(exp) * (_LN2 >> (256 - k)) // (4 * (_LN10 >> (256 - k)))
    if exp < 0:
        b = -b
        ten, ten_exp = _power_of_ten(-b, bitprec + 5, up=True)
        ten, ten_exp = _truncated_quotient(1, 0, ten, ten_exp, bitprec)  # 10^b
    else:
        ten, ten_exp = _power_of_ten(b, bitprec)
    return _truncated_quotient(man, exp, ten, ten_exp, bitprec) + (b,)


def _truncated_quotient(man, exp, dman, dexp, bits):
    """(man * 2^exp) / (dman * 2^dexp) cut to ``bits`` bits toward zero."""
    extra = bits + dman.bit_length()
    return _cut((man << extra) // dman, exp - dexp - extra, bits)


def _power_of_ten(n: int, prec: int, up: bool = False) -> tuple[int, int]:
    """mpmath's ``mpf_pow_int(10, n, prec)`` for n >= 0, rounded toward
    zero, or away from it with ``up``: exact when 3n < 1000, else binary
    powering that cuts every product past prec + 4 * bitcount(n) + 4 bits
    in the same direction."""
    if 3 * n < 1000:
        man, exp = 5 ** n, n
    else:
        work = prec + 4 * n.bit_length() + 4
        man, exp = 1, 0
        base, base_exp = 5, 1
        while True:
            if n & 1:
                man, exp = _cut(man * base, exp + base_exp, work, up)
                n -= 1
                if not n:
                    break
            base, base_exp = _cut(base * base, 2 * base_exp, work, up)
            n //= 2
    return _cut(man, exp, prec, up)


def _cut(man: int, exp: int, bits: int, up: bool = False) -> tuple[int, int]:
    """man * 2^exp (man > 0) cut to ``bits`` bits, toward zero or (``up``)
    away from it."""
    excess = man.bit_length() - bits
    if excess <= 0:
        return man, exp
    return (-(-man >> excess) if up else man >> excess), exp + excess

"""The integer cell writer against the mpf route it reproduces: every
cell compared with ``nstr(mpf(num // g) / (den // g), dps)`` at the same
precision."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

import rotlat.digits as digits
from rotlat.digits import cell_writer
from helpers import mpf_cell, nstr_cell


def _embed_dps(precision):
    return max(17, int(precision * 0.30103) + 3)


def _assert_cells_match(precision, dps, cells):
    write = cell_writer(precision, dps)
    for num, den in cells:
        assert write(num, den) == nstr_cell(num, den, precision, dps), (precision, dps, num, den)


def _random_cells(rng, precision, count):
    """Fractions of up to 3 * precision + 40 bits over each side, a fifth of
    them over a power of two, with either sign."""
    for _ in range(count):
        num = rng.getrandbits(rng.randint(1, 3 * precision + 40)) * rng.choice((1, -1))
        if rng.randrange(5):
            den = rng.getrandbits(rng.randint(1, 3 * precision + 40)) + 1
        else:
            den = 1 << rng.randint(0, 3 * precision)
        yield num, den


@pytest.mark.parametrize("precisions", [range(8, 101), range(101, 201), range(201, 301),
                                        (1000, 4096, 16368)], ids=str)
def test_cells_match_mpmath_on_random_fractions(precisions):
    rng = random.Random(precisions[0])
    for precision in precisions:
        count = 40 if precision <= 300 else 10
        _assert_cells_match(precision, _embed_dps(precision), _random_cells(rng, precision, count))


@pytest.mark.parametrize("precision", [8, 9, 53, 128, 333])
def test_cells_round_numerator_ties_to_even(precision):
    # (2 M + 1) * 2^(s - 1) has precision + s bits and lies halfway between
    # M * 2^s and (M + 1) * 2^s; odd and even M round different ways
    rng = random.Random(precision)
    cells = []
    for parity in (0, 1):
        for s in (1, 2, 7, 40):
            while True:
                m = rng.getrandbits(precision - 1) | 1 << (precision - 1)
                m += (m & 1) ^ parity
                num = (2 * m + 1) << (s - 1)
                den = rng.getrandbits(precision + 30) | 1
                if m.bit_length() == precision and math.gcd(num, den) == 1:
                    break
            cells += [(num, den), (-num, den), (num, den << s)]
    _assert_cells_match(precision, _embed_dps(precision), cells)


def _near_midpoint(rng, precision, f, r):
    """(M, t): odd t < 2^(f - 1), M of at most ``precision`` bits and
    gcd(M, t) = 1, with M / t = ((2q + 1) - r / t) / 2^f for a q of
    ``precision`` bits: a quotient |r| / t units of 2^-f from the midpoint
    between two ``precision``-bit values."""
    mod = 1 << f
    while True:
        q = rng.getrandbits(precision - 1) | 1 << (precision - 1)
        t = r * pow(2 * q + 1, -1, mod) % mod
        m, rest = divmod(t * (2 * q + 1) - r, mod)
        assert rest == 0
        if t < mod // 2 and m.bit_length() <= precision and math.gcd(m, t) == 1:
            return m, t


@pytest.mark.parametrize("precision", [8, 24, 53, 128, 301])
def test_cells_round_quotients_beside_a_midpoint(precision):
    # an exact quotient tie needs a dyadic quotient of precision + 1 bits,
    # which an odd t >= 3 and a numerator of at most precision bits never
    # give; what can happen is a quotient a hair above or below the
    # midpoint, or an exact quotient once the numerator is rounded
    rng = random.Random(precision)
    cells = []
    for f in (precision + 8, precision + 60, 2 * precision + 100):
        for r in (1, -1, 3, -3):
            m, t = _near_midpoint(rng, precision, f, r)
            cells += [(m, t), (-m, t << 5), (m << 3, t)]
    # exact quotients: num rounds to M * 2^s with t | M
    for t in (3, 5, 7, 9, 11, 13, 255):
        while True:
            m = t * rng.getrandbits(precision)
            m >>= max(0, m.bit_length() - precision)
            m -= m % t
            if m.bit_length() == precision:
                break
        for s in (2, 9):
            for j in (1, -1, (1 << (s - 1)) - 1):
                num = (m << s) + j
                if math.gcd(num, t) == 1:
                    cells.append((num, t))
    _assert_cells_match(precision, _embed_dps(precision), cells)


def _power_of_ten(e):
    """10^e as (num, den)."""
    return (10 ** e, 1) if e >= 0 else (1, 10 ** -e)


def _value(cell):
    man, exp = mpf_cell(*cell).man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_cells_carry_nines_into_the_next_power_of_ten():
    # one part in 10^(dps + 2) below 10^e: the nines round up to "1",
    # and the decimal exponent goes up by one, across the fixed-form
    # boundaries too (e = min_fixed + 1 and e = dps)
    precision, carried = 128, 0
    for dps in range(1, 25):
        cells = []
        for e in range(-9, dps + 3):
            num, den = _power_of_ten(e)
            cell = (num * (10 ** (dps + 2) - 1), den * 10 ** (dps + 2))
            with mpmath.workprec(precision):
                if _value(cell) < Fraction(*_power_of_ten(e)):
                    carried += 1
            written = cell_writer(precision, dps)(*cell)
            assert Fraction(written) == Fraction(*_power_of_ten(e))
            cells += [cell, (-cell[0], cell[1])]
        _assert_cells_match(precision, dps, cells)
    assert carried > 100
    # at the embed's own dps a float falls that close to a power of ten
    # rarely: of 10^-12 .. 10^(dps + 2) at 8 .. 300 bits, only 10^-6 at
    # 149 bits
    _assert_cells_match(149, _embed_dps(149), [(10 ** 49 - 1, 10 ** 55)])
    assert cell_writer(149, _embed_dps(149))(10 ** 49 - 1, 10 ** 55) == "0.000001"
    with mpmath.workprec(149):
        assert _value((10 ** 49 - 1, 10 ** 55)) < Fraction(1, 10 ** 6)


@pytest.mark.parametrize("precision", [8, 64, 128, 256, 1000])
def test_cells_switch_form_at_min_fixed_and_dps(precision):
    # fixed form holds exactly when min_fixed < exponent < dps
    dps = _embed_dps(precision)
    min_fixed = min(-(dps // 3), -5)
    write = cell_writer(precision, dps)
    cells = []
    for e in (min_fixed - 1, min_fixed, min_fixed + 1, -1, 0, 1, dps - 1, dps, dps + 1):
        num, den = _power_of_ten(e)
        for m, d in ((3, 2), (1, 1), (99, 100), (19, 2)):
            cells.append((num * m, den * d))
        assert ("e" in write(num * 3, den * 2)) == (not min_fixed < e < dps)
    _assert_cells_match(precision, dps, cells + [(-n, d) for n, d in cells])


@pytest.mark.parametrize("precision", [8, 128, 16368])
def test_cells_of_zero_and_of_negatives(precision):
    write = cell_writer(precision, _embed_dps(precision))
    assert write(0, 1) == write(0, 12345) == nstr_cell(0, 7, precision, _embed_dps(precision)) == "0.0"
    for num, den in _random_cells(random.Random(precision), precision, 20):
        if num:
            assert write(-abs(num), den) == "-" + write(abs(num), den)
    _assert_cells_match(precision, _embed_dps(precision), [(-3, 4), (-1, 1), (-10 ** 30, 3)])


@pytest.mark.parametrize("precision", [8, 53, 300, 3600, 5000])
def test_cells_past_two_to_the_3500_rescale_by_a_power_of_ten(precision, monkeypatch):
    # to_digits_exp divides a value of binary exponent beyond +-3500 by a
    # power of ten first; the writer repeats that arithmetic
    calls = []
    scale = digits._scaled_by_power_of_ten
    monkeypatch.setattr(digits, "_scaled_by_power_of_ten",
                        lambda *a: calls.append(a) or scale(*a))
    rng = random.Random(precision)
    cells = []
    for shift in (3600, 5000, 20000):
        for _ in range(4):
            num = rng.getrandbits(precision + 40) + 1
            den = rng.getrandbits(precision + 40) + 1
            cells += [(num << shift, den), (-num, den << shift),
                      (num * 3 ** shift, den), (num, den * 5 ** (shift // 2))]
    if precision > 3500:
        # mantissas past 2^3500 with small binary exponents: small powers of ten
        cells += [(rng.getrandbits(b) | 1 << (b - 1) | 1, 1) for b in (3501, 3700, precision)]
    _assert_cells_match(precision, _embed_dps(precision), cells)
    assert len(calls) == len(cells)


def test_rescaling_constants_match_mpmath():
    from mpmath.libmp import mpf_ln2, mpf_ln10, mpf_pow_int, from_int, round_down, round_up

    def value(man, exp):
        return Fraction(man) * Fraction(2) ** exp

    for k in range(5, 257):
        assert value(*mpf_ln2(k)[1:3]) == Fraction(digits._LN2 >> (256 - k), 1 << k)
        assert value(*mpf_ln10(k)[1:3]) == Fraction(digits._LN10 >> (256 - k), 1 << (k - 2))
    for prec in (10, 90, 333):
        for n in (*range(0, 12), 333, 334, 335, 1000, 1053, 4099):
            for up, rnd in ((False, round_down), (True, round_up)):
                ours = digits._power_of_ten(n, prec, up)
                assert value(*ours) == value(*mpf_pow_int(from_int(10), n, prec, rnd)[1:3])

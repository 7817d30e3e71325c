"""The integer interval cosine (``rotlat.ivcos``) against mpmath, the chain
it repeats: the endpoints of ``iv.cos(2 * iv.pi * t / m)`` on a grid that
reaches every branch, each stage against the mpmath function it ports,
and the exact pi against ``pi_fixed``."""

import random
import sys

import pytest
from mpmath.libmp import from_man_exp, libelefun, libintmath, libmpi

from rotlat import ivcos
from rotlat.gram import _WORK_CAP
from helpers import dyadic, embed_cos_table_oracle, iv_cos_oracle, python_backend_only

pytestmark = python_backend_only


def _grid():
    # t or m longer than prec bits: both are rounded before the product
    for m, prec in ((257, 8), (1031, 9), (1365, 9), (4096, 8), (4096, 10)):
        yield m, prec
    # the cached base case (wp + 10 <= 400 after reduction), 4 | m where
    # the endpoints straddle k pi/2, odd and composite m, and m = 1
    for m in (1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 20, 21, 77, 105, 128):
        for prec in (11, 24, 40, 144, 360):
            yield m, prec
    # the series above 400 bits: two sums below 1,500 bits, u sums from there
    for m in (4, 7, 16, 20, 33):
        for prec in (371, 401, 1000, 1469, 1470, 2064):
            yield m, prec


@pytest.mark.parametrize("m, prec", list(_grid()))
def test_cos_interval_is_mpmath_iv_cos(m, prec):
    for t in range(m):
        assert ivcos.cos_interval(t, m, prec) == iv_cos_oracle(t, m, prec), (t, m, prec)


@pytest.mark.parametrize("t, m, prec", [(1, 2**50, 8), (3, 2**50, 8), (1, 2**45, 16),
                                        (2**60 + 1, 2**62, 8), (5, 3**40, 10)])
def test_cos_interval_of_tiny_and_long_angles(t, m, prec):
    # below 2^-(prec+30) mpmath's cosine is 1 perturbed down (the first
    # three); the last two round t and m to prec bits
    assert ivcos.cos_interval(t, m, prec) == iv_cos_oracle(t, m, prec)


@pytest.mark.parametrize("m, prec", [(1, 24), (4, 8), (7, 40), (8, 144), (20, 77),
                                     (60, 300), (128, 1024)])
def test_embed_cos_table_is_the_mpmath_table(m, prec):
    assert sys.modules["rotlat.gram"]._embed_cos_table(m, prec) == embed_cos_table_oracle(m, prec)


def test_reduction_retries_next_to_a_multiple_of_pi_over_2(monkeypatch):
    # 2 pi / 4 rounded to prec bits is within about 2^-prec of pi/2, so
    # mod_pi2 widens its cancellation guard (20 << i bits) several times
    real, guards = ivcos._mod_pi2, []

    def spy(man, exp, mag, wp):
        t, n, wp_out = real(man, exp, mag, wp)
        if mag > 0:
            guards.append(wp_out - wp)  # 20 << i after i retries
        return t, n, wp_out

    monkeypatch.setattr(ivcos, "_mod_pi2", spy)
    for prec in (40, 144, 1000):
        for t in (1, 3):
            assert ivcos.cos_interval(t, 4, prec) == iv_cos_oracle(t, 4, prec)
    assert min(guards) > 20 and max(guards) >= 20 << 5


def test_pi_floor_is_mpmath_pi_fixed(monkeypatch):
    # each Machin floor on its own, then the memo in ascending order up to
    # twice the working-precision cap (the embed escalates once past it)
    for p in range(8, 1500):
        assert ivcos._machin_pi_floor(p) == libelefun.pi_fixed(p), p
    monkeypatch.setattr(ivcos, "_pi_memo", [-1, 0])
    for p in range(8, 2 * _WORK_CAP + 64):
        assert ivcos.pi_floor(p) == libelefun.pi_fixed(p), p


def test_isqrt_fast_is_mpmath_isqrt_fast():
    # floats below 2^800, Newton steps above, and the near-squares where
    # either may fall one below the floor
    rng = random.Random(24)
    for bits in (*range(1, 120), *range(120, 5000, 37)):
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        r = rng.getrandbits((bits + 1) // 2) | 1
        for v in (x, r * r, r * r - 1, r * r + 1):
            assert ivcos._isqrt_fast(v) == libintmath.isqrt_fast_python(v), v


@pytest.mark.parametrize("prec", [20, 100, 410, 600, 1499, 1500, 2100, 5000])
def test_exponential_series_is_mpmath_exponential_series(prec):
    # next to the 1,500-bit cutoff the two series forms differ in about
    # one result in a hundred, so many angles are drawn there
    rng = random.Random(prec)
    xs = [0, 1, 1 << prec, (1 << prec) * 3 // 2]
    count = 400 if prec in (1499, 1500) else 20
    xs += [rng.getrandbits(rng.randint(1, prec + 1)) for _ in range(count)]
    for x in xs:
        cos, sin = libelefun.exponential_series(x, prec, 2)
        assert ivcos._exponential_series(x, prec, True) == (cos, sin)
        assert ivcos._exponential_series(x, prec, False) == (cos, None)


@pytest.mark.parametrize("prec", [31, 40, 100, 393, 400, 401, 1000, 1600])
def test_cos_sin_basecase_is_mpmath_cos_sin_basecase(prec):
    rng = random.Random(prec)
    half_pi = libelefun.pi_fixed(prec - 1)
    xs = [0, 1, half_pi - 1, *(rng.randrange(half_pi) for _ in range(40))]
    for x in xs:
        c, s = libelefun.cos_sin_basecase(x, prec)
        assert (ivcos._cos_sin_basecase(x, prec, 0), ivcos._cos_sin_basecase(x, prec, 1)) == (c, s)


def _random_angles(rng, count):
    """Odd mantissas of 1 to 400 bits with exponents that put the value
    between 2^-40 and 8."""
    for _ in range(count):
        man = rng.getrandbits(rng.randint(1, 400)) | 1
        yield man, rng.randint(-40, 3) - man.bit_length()


@pytest.mark.parametrize("wp", [15, 28, 164, 420, 1520])
def test_mod_pi2_is_mpmath_mod_pi2(wp):
    rng = random.Random(wp)
    for man, exp in _random_angles(rng, 60):
        mag = man.bit_length() + exp
        assert ivcos._mod_pi2(man, exp, mag, wp) == libelefun.mod_pi2(man, exp, mag, wp)


@pytest.mark.parametrize("wp", [21, 40, 164, 380, 381, 800, 1500, 2084])
def test_cos_quadrant_is_mpmath_cos_sin_quadrant(wp):
    rng = random.Random(wp)
    for man, exp in _random_angles(rng, 40):
        c, _, n = libmpi.cos_sin_quadrant(from_man_exp(man, exp), wp)
        assert ivcos._cos_quadrant(man, exp, wp) == (dyadic(c), n), (man, exp)


@pytest.mark.parametrize("args", [(0, 0, 40), (1, -3, 40), (-1, 7, 40), (1, 7, 0)])
def test_cos_interval_rejects_what_no_angle_is(args):
    with pytest.raises(ValueError, match="cos_interval needs"):
        ivcos.cos_interval(*args)

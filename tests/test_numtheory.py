import math
import random

import pytest
from hypothesis import given, strategies as st

from rotlat.numtheory import (
    crt,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    order_in_quotient,
    v2,
)
from helpers import order_in_quotient_oracle


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    assert {n for n in range(2, 32) if is_prime(n)} == primes
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(65537)
    assert not is_prime(65536)


@given(st.integers(min_value=1, max_value=5000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n):
        assert is_prime(p)
        prod *= p**e
    assert prod == n


@given(st.integers(min_value=1, max_value=2000))
def test_phi_matches_bruteforce(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n,mu", [(1, 1), (2, -1), (4, 0), (6, 1), (7, -1), (8, 0), (30, -1)])
def test_mobius_values(n, mu):
    assert mobius(n) == mu


@given(st.integers(min_value=1, max_value=1000))
def test_divisors(n):
    ds = divisors(n)
    assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_v2():
    assert v2(40) == 3
    assert v2(-12) == 2
    assert v2(7) == 0
    with pytest.raises(ValueError):
        v2(0)


def test_v2_is_linear_in_the_bit_length():
    # the pow2 r = 16 discriminant has this size; repeated halving took seconds
    assert v2(3 * 2**245759) == 245759
    assert v2(-(2**245759)) == 245759
    assert v2(3**1000) == 0


def test_crt():
    x = crt(7, 8, 1, 5)
    assert x % 8 == 7 and x % 5 == 1


def test_order_in_quotient():
    # 2 has order 3 in (Z/7)^* / {1, 6}
    assert order_in_quotient(2, 7, frozenset((1, 6))) == 3
    # and order 2 in (Z/5)^* / {1, 4}
    assert order_in_quotient(2, 5, frozenset((1, 4))) == 2
    assert order_in_quotient(1, 7, frozenset((1,))) == 1


def _generated(gens, m):
    """The subgroup of (Z/mZ)^* generated by gens."""
    out = {1}
    grown = True
    while grown:
        new = {x * g % m for x in out for g in gens} - out
        out |= new
        grown = bool(new)
    return frozenset(out)


def _outcome(fn, a, m, subgroup):
    try:
        return fn(a, m, subgroup)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("m", range(2, 151))
def test_order_in_quotient_matches_the_walk(m):
    # every residue a (non-invertible ones included) against the trivial
    # group, the whole group, subgroups from random generators and a set
    # without 1, which must raise the same ValueError as the walk
    rng = random.Random(m)
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    subgroups = [frozenset((1,)), frozenset(units), _generated([m - 1], m)]
    subgroups += [_generated(rng.sample(units, min(k, len(units))), m) for k in (1, 1, 2)]
    subgroups.append(subgroups[-1] - {1})
    for subgroup in subgroups:
        for a in range(-1, m + 1):
            assert _outcome(order_in_quotient, a, m, subgroup) == \
                _outcome(order_in_quotient_oracle, a, m, subgroup), (a, subgroup)


def test_order_in_quotient_modulo_one_is_one():
    # (Z/1Z)^* is the trivial group: every class has order 1
    assert order_in_quotient(2, 1, frozenset((1,))) == 1
    with pytest.raises(ValueError, match="must contain 1"):
        order_in_quotient(2, 1, frozenset((0,)))

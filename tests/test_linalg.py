from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rotlat.linalg import (
    det_int,
    gram_schmidt,
    identity_matrix,
    pivot_inverse,
    sparse_vec_mat,
)
from helpers import inverse_rational, mat_mul, transpose


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


sq_int_matrix = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(sq_int_matrix)
@settings(max_examples=150)
def test_det_int_matches_cofactor(rows):
    assert det_int(rows) == _cofactor_det(rows)


def test_det_zero_pivot_row_swap():
    rows = [[0, 1], [1, 0]]
    assert det_int(rows) == -1
    assert det_int([[0, 0], [0, 1]]) == 0


@given(sq_int_matrix)
@settings(max_examples=100)
def test_inverse_rational(rows):
    if det_int(rows) == 0:
        with pytest.raises(ValueError):
            inverse_rational(rows)
        return
    inv = inverse_rational(rows)
    n = len(rows)
    assert mat_mul(rows, inv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


wide_int_matrix = st.tuples(st.integers(1, 3), st.integers(0, 3)).flatmap(
    lambda nk: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=sum(nk), max_size=sum(nk)),
        min_size=nk[0],
        max_size=nk[0],
    )
)


@given(wide_int_matrix)
@settings(max_examples=150)
def test_pivot_inverse_matches_dense_inverse(rows):
    n, width = len(rows), len(rows[0])
    full_rank = any(det_int([[row[c] for c in cols] for row in rows])
                    for cols in combinations(range(width), n))
    if not full_rank:
        with pytest.raises(ValueError):
            pivot_inverse(rows)
        return
    pivots, den, inv, det = pivot_inverse(rows)
    assert det == det_int([[row[c] for c in pivots] for row in rows])
    # the pivots are the first independent columns: each other column
    # depends on the pivots before it
    assert len(pivots) == n and list(pivots) == sorted(pivots)
    for c in range(width):
        if c not in pivots:
            sub = [[row[j] for j in pivots if j < c] + [row[c]] for row in rows]
            assert _rank(sub) == _rank([r[:-1] for r in sub])
    expected = inverse_rational([[row[c] for c in pivots] for row in rows])
    assert den > 0 and gcd(den, *(v for r in inv for _, v in r)) == 1
    assert all(v for r in inv for _, v in r)
    dense = [[Fraction(0)] * n for _ in range(n)]
    for i, r in enumerate(inv):
        for j, v in r:
            dense[i][j] = Fraction(v, den)
    assert dense == expected
    for v in ([1] * n, list(range(-1, n - 1))):
        assert sparse_vec_mat(v, inv, n) == [sum(v[i] * den * expected[i][j] for i in range(n))
                                             for j in range(n)]


def _rank(rows):
    width = len(rows[0]) if rows else 0
    return max((k for k in range(1, min(len(rows), width) + 1)
                if any(det_int([[rows[i][j] for j in cols] for i in rs])
                       for rs in combinations(range(len(rows)), k)
                       for cols in combinations(range(width), k))), default=0)


def test_gram_schmidt_of_a_small_form():
    assert gram_schmidt([[2, 1], [1, 2]]) == ([1, 2, 3], [[0, 0], [1, 0]])


def test_gram_schmidt_stops_at_a_nonpositive_minor():
    for rows in ([[0, 1], [1, 0]], [[1, 2], [2, 1]], [[1, 1, 0], [1, 1, 1], [0, 1, 5]]):
        with pytest.raises(ValueError, match="positive definite"):
            gram_schmidt(rows)


# small entries make zero and negative leading minors common
small_sym_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: [[rows[max(i, j)][min(i, j)] + 2 * (i == j) for j in range(n)]
                        for i in range(n)])
)


@given(small_sym_matrix)
@settings(max_examples=150)
def test_gram_schmidt_minors_equal_positive_block_determinants(rows):
    n = len(rows)
    minors = [_cofactor_det([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
    if any(m <= 0 for m in minors):
        with pytest.raises(ValueError):
            gram_schmidt(rows)
        return
    d, lam = gram_schmidt(rows)
    assert d == [1] + minors
    # lam[i][j] is the determinant of rows 0..j-1, i against columns 0..j
    for i in range(n):
        assert lam[i][i:] == [0] * (n - i)
        for j in range(i):
            assert lam[i][j] == _cofactor_det([rows[r][:j + 1] for r in [*range(j), i]])


def test_transpose_identity():
    assert transpose(identity_matrix(3)) == identity_matrix(3)

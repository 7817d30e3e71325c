"""Exact linear algebra over integers: fraction-free elimination on lists
of lists.  A rational matrix arrives as integer numerators over one
denominator its owner keeps.  ``pivot_inverse`` is the one elimination of
a matrix that is solved against (a field's basis, a module's coordinate
matrix) and also gives that block's determinant.  ``gram_schmidt`` is the
positive-definiteness test, with the determinant as its last minor: of the
Gram matrices, of the field's basis self-check and of the trace form that
decides a sign the enclosures leave open.  ``det_int`` has one reader, the
determinant behind ``fields.norm_real``.  ``sparse_vec_mat`` is the
package's one integer product, a vector times the nonzero entries of a
matrix's rows: it
serves T * G * T^t in the LLL, the coordinate solves and their span check,
module membership and its check on gamma's numerators, and the ideal
test's rows C_i * M_w * D C^-1 and its witness.
"""

from __future__ import annotations

from math import gcd, lcm, prod


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_int(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pk - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def gram_schmidt(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of a symmetric integer matrix
    (Cohen, GTM 138, 2.6.7): d[i] is the leading i x i minor (d[0] = 1) and
    lam[i][j] = d[j + 1] * mu_ij for j < i, zero for j >= i.  Raises
    ValueError at the first leading minor <= 0, so it is also the
    positive-definiteness test; every division is exact."""
    n = len(rows)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        lam_i, g_i = lam[i], rows[i]
        for j in range(i + 1):
            u = g_i[j]
            for dl1, dl, a, b in zip(d[1:j + 1], d, lam_i, lam[j]):  # l = 0..j-1
                u = (dl1 * u - a * b) // dl
            if j < i:
                lam_i[j] = u
        if u <= 0:  # u is now d[i + 1]
            raise ValueError("Gram matrix must be positive definite")
        d[i + 1] = u
    return d, lam


def pivot_inverse(rows: list[list[int]]):
    """The pivot columns of an integer matrix A of full row rank n (its
    first n linearly independent columns), and the inverse of the n x n
    block of A on those columns as a common denominator D > 0 plus the
    nonzero entries (column, value) of the integer matrix D * inverse,
    row by row, and the determinant of that block.  Raises ValueError if
    the rank is below n.

    One fraction-free Gauss-Jordan pass over [A | I] (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2), each row kept primitive;
    rows with a zero in the pivot column are not touched, so sparse,
    nearly triangular input stays cheap.
    """
    n = len(rows)
    width = len(rows[0]) if n else 0
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots: list[int] = []
    up = down = 1  # the block's determinant now is its determinant in A times up / down
    for col in range(width):
        k = len(pivots)
        if k == n:
            break
        piv = next((i for i in range(k, n) if a[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            up = -up
        rowk = a[k]
        pk = rowk[col]
        for i in range(n):
            f = a[i][col]
            if f and i != k:
                row = [pk * x - f * y for x, y in zip(a[i], rowk)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
                up, down = up * pk, down * g
        pivots.append(col)
    if len(pivots) < n:
        raise ValueError("matrix does not have full row rank")
    # row k reads p_k at pivots[k] and 0 at the other pivots, so row k of
    # the inverse is its right half divided by p_k
    inv = []
    for k, row in enumerate(a):
        g = gcd(row[pivots[k]], *row[width:])
        inv.append((row[pivots[k]] // g, [x // g for x in row[width:]]))
    den = lcm(*(abs(q) for q, _ in inv))
    det = prod(row[c] for row, c in zip(a, pivots)) * down // up
    return tuple(pivots), den, tuple(
        tuple((j, x * (den // q)) for j, x in enumerate(right) if x) for q, right in inv
    ), det


def sparse_vec_mat(v: list[int], rows, width: int) -> list[int]:
    """v * A for an integer vector v and the sparse rows of an integer
    matrix A with ``width`` columns, over the nonzero entries only."""
    acc = [0] * width
    for x, row in zip(v, rows):
        if x:
            for j, a in row:
                acc[j] += x * a
    return acc

"""Dense linear algebra over exact rationals or floats.

Everything operates on lists of lists.  Exact mode (``int`` and ``Fraction``
entries) solves by integer-preserving Bareiss elimination, pivoting on the
first nonzero entry, so no ``Fraction`` is normalised until the answer; float
mode uses partial pivoting.  Sizes are desk-scale (tensor identities need at
most a few hundred rows), so Gaussian elimination is all that is required.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _inv(x):
    """1/x, exact (a ``Fraction``) when x is rational."""
    return Fraction(1, 1) / x if _is_exact(x) else 1 / x


def integer_row(row):
    """Rationals times the lcm of their denominators: integers, same ratios."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def mat_identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != 0:
                    oi[j] += c * bt[j]
    return out


def mat_kron(a, b):
    na, nb = len(a), len(b)
    ma, mb = len(a[0]), len(b[0])
    out = [[0] * (ma * mb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(ma):
            c = a[i][j]
            if c == 0:
                continue
            for k in range(nb):
                for t in range(mb):
                    if b[k][t] != 0:
                        out[i * nb + k][j * mb + t] = c * b[k][t]
    return out


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_inverse(a):
    """Inverse by ``solve_linear``: exact for rational entries, real for real."""
    return solve_linear(a, mat_identity(len(a)))


def solve_linear(a, b):
    """Solve A X = B, by Bareiss elimination if exact, else by Gauss-Jordan.

    ``b`` is one right-hand-side vector (the solution is a vector) or a
    block given as rows, one per equation (the solution is a block, one row
    per unknown).  Raises ``ZeroDivisionError`` on a singular ``a``.
    """
    n = len(a)
    block = n > 0 and isinstance(b[0], (list, tuple))
    work = [list(row) + (list(rhs) if block else [rhs]) for row, rhs in zip(a, b)]
    if all(_is_exact(x) for row in work for x in row):
        sol = _solve_bareiss(work, n)
        return sol if block else [row[0] for row in sol]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(work[r][col]))
        if abs(work[pivot][col]) == 0:
            raise ZeroDivisionError("singular linear system")
        work[col], work[pivot] = work[pivot], work[col]
        piv = work[col][col]
        work[col] = [x / piv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work] if block else [row[n] for row in work]


def _solve_bareiss(work, n: int):
    """Rows of X for the rational system [A | B] given as the n rows ``work``:
    Bareiss elimination of the integer-scaled rows (each entry a minor, each
    division exact, det = the last pivot), then det * X by back-substitution."""
    rows = [integer_row(row) for row in work]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular linear system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top, piv = rows[col], rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col]
            rows[r] = [(piv * x - factor * y) // det for x, y in zip(rows[r], top)]
        det = piv  # the previous pivot; after the last column, det (up to sign)
    scaled = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        scaled[i] = [
            (det * row[n + c] - sum(row[j] * scaled[j][c] for j in range(i + 1, n))) // row[i]
            for c in range(len(row) - n)
        ]
    return [[Fraction(y, det) for y in ys] for ys in scaled]


def flip_matrix(n: int):
    """P on C^n (x) C^n with P(v (x) w) = w (x) v, as an n^2 x n^2 matrix."""
    out = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            out[i * n + j][j * n + i] = 1
    return out


def partial_transpose_first(a, n: int):
    """Transpose in the first tensor factor of an n^2 x n^2 matrix:
    B[(i,k),(j,l)] = A[(j,k),(i,l)]."""
    out = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    out[i * n + k][j * n + l] = a[j * n + k][i * n + l]
    return out

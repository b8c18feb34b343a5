"""Linear algebra over exact rationals or floats.

Matrices are sparse: a list of rows, each a dict {column: nonzero entry}
with ascending columns, so an R-matrix on C^n (x) C^n keeps its O(n^2)
entries.  ``mat_mul`` sums each entry over t ascending, as a dense product
skipping zero terms does; ``integer_matrix`` scales an exact matrix to
integers.  ``solve_linear`` is dense (lists of lists): exact mode (``int``
and ``Fraction`` entries) solves by integer-preserving Bareiss elimination,
pivoting on the first nonzero entry, so no ``Fraction`` is normalised until
the answer; float mode uses partial pivoting.
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


def integer_matrix(a):
    """(M, s) with M = s A over the integers, s the lcm of the denominators
    of the nonzero entries of the exact sparse matrix A."""
    scale = math.lcm(*(x.denominator for row in a for x in row.values()))
    rows = [{j: x.numerator * (scale // x.denominator) for j, x in row.items()} for row in a]
    return rows, scale


def mat_identity(n: int):
    return [{i: 1} for i in range(n)]


def mat_mul(a, b):
    """A B, each entry summed over t ascending: the float sums of a dense
    product that skips zero terms."""
    out = []
    for ai in a:
        acc = {}
        for t, c in ai.items():
            for j, v in b[t].items():
                acc[j] = acc.get(j, 0) + c * v
        out.append({j: acc[j] for j in sorted(acc) if acc[j] != 0})
    return out


def mat_kron(a, b):
    """A (x) B for a square B."""
    nb = len(b)
    return [
        {j * nb + t: c * v for j, c in ra.items() for t, v in rb.items()} for ra in a for rb in b
    ]


def mat_transpose(a):
    """The transpose of a square matrix."""
    out = [{} for _ in a]
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


def mat_inverse(a):
    """Inverse by ``solve_linear`` on the densified matrix: exact for
    rational entries, real for real."""
    n = len(a)
    dense = [[row.get(j, 0) for j in range(n)] for row in a]
    inverse = solve_linear(dense, [[int(i == j) for j in range(n)] for i in range(n)])
    return [{j: x for j, x in enumerate(row) if x != 0} for row in inverse]


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
    return [{j * n + i: 1} for i in range(n) for j in range(n)]


def partial_transpose_first(a, n: int):
    """Transpose in the first tensor factor of an n^2 x n^2 matrix:
    B[(i,k),(j,l)] = A[(j,k),(i,l)]."""
    out = [{} for _ in a]
    for r, row in enumerate(a):
        j, k = divmod(r, n)
        for c, x in row.items():
            i, l = divmod(c, n)
            out[i * n + k][j * n + l] = x
    return out

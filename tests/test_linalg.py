"""Tests for exact dense matrix helpers."""

import random
from fractions import Fraction as F

import pytest

from bcq.linalg import (
    _inv,
    _is_exact,
    flip_matrix,
    mat_identity,
    mat_inverse,
    mat_kron,
    mat_mul,
    mat_transpose,
    partial_transpose_first,
    solve_linear,
)


def test_exactness_test_and_inverse():
    # the package's one exactness test: int and Fraction, never float
    assert _is_exact(F(1, 2)) and _is_exact(2)
    assert not _is_exact(0.5) and not _is_exact(0.5j)
    assert _inv(2) == F(1, 2) and type(_inv(2)) is F
    assert _inv(F(-2, 3)) == F(-3, 2)
    assert _inv(0.5) == 2.0 and type(_inv(0.5)) is float


def test_identity_and_mul():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert mat_mul(a, mat_identity(2)) == a
    assert mat_mul(mat_identity(2), a) == a
    b = [[F(0), F(1)], [F(1), F(0)]]
    assert mat_mul(a, b) == [[F(2), F(1)], [F(4), F(3)]]


def test_inverse_roundtrip_exact():
    a = [[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(2)]]
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == mat_identity(3)
    assert mat_mul(inv, a) == mat_identity(3)


def test_inverse_singular_raises():
    with pytest.raises(ZeroDivisionError):
        mat_inverse([[F(1), F(2)], [F(2), F(4)]])


def test_solve_linear():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = solve_linear(a, b)
    assert [sum(a[i][j] * x[j] for j in range(2)) for i in range(2)] == b


def test_solve_linear_block():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [[F(5), F(1)], [F(10), F(0)]]
    x = solve_linear(a, b)
    assert mat_mul(a, x) == b
    assert x == [[F(1), F(3, 5)], [F(3), F(-1, 5)]]
    with pytest.raises(ZeroDivisionError):
        solve_linear([[F(1), F(2)], [F(2), F(4)]], [[F(1)], [F(2)]])


def test_kron_shape_and_values():
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(0)]]
    k = mat_kron(a, b)
    assert len(k) == 4 and len(k[0]) == 4
    assert k[0][1] == F(1)  # a[0][0] * b[0][1]
    assert k[2][1] == F(3)  # a[1][0] * b[0][1]
    assert k[2][3] == F(4)  # a[1][1] * b[0][1]


def test_transpose_and_diff():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert mat_transpose(a) == [[F(1), F(3)], [F(2), F(4)]]


def test_flip_matrix_swaps_tensor_factors():
    n = 2
    f = flip_matrix(n)
    # P(e_0 (x) e_1) = e_1 (x) e_0
    v = [[0], [1], [0], [0]]  # e_0 (x) e_1
    assert mat_mul(f, v) == [[0], [0], [1], [0]]
    assert mat_mul(f, f) == mat_identity(n * n)


def test_partial_transpose_involution():
    n = 2
    m = [[F(i * 4 + j) for j in range(4)] for i in range(4)]
    once = partial_transpose_first(m, n)
    assert partial_transpose_first(once, n) == m
    # entry check: (i k | j l) -> (j k | i l)
    # position rows i*n+k, cols j*n+l
    assert once[0 * n + 1][1 * n + 0] == m[1 * n + 1][0 * n + 0]


def test_inverse_of_real_matrix_is_real():
    a = [[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.25, 1.0, 2.0]]
    inv = mat_inverse(a)
    assert not any(isinstance(x, complex) for row in inv for x in row)
    product = mat_mul(a, inv)
    assert all(
        abs(product[i][j] - (i == j)) < 1e-14 for i in range(3) for j in range(3)
    )


def gauss_jordan_oracle(a, b):
    """Plain Fraction Gauss-Jordan, first nonzero pivot, a block right side."""
    n = len(a)
    work = [[F(x) for x in row] + [F(x) for x in rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular")
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_rational(rng):
    if rng.random() < 0.15:
        return F(0)
    return F(rng.randint(-40, 40), rng.randint(1, 30))


@pytest.mark.parametrize("seed", range(12))
def test_solve_matches_oracle_on_random_rational_systems(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    a = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):  # a nonzero diagonal keeps the system regular
        a[i][i] += F(rng.randint(50, 90), rng.randint(1, 7))
    width = rng.randint(1, 4)
    block = [[random_rational(rng) for _ in range(width)] for _ in range(n)]
    want = gauss_jordan_oracle(a, block)
    got = solve_linear(a, block)
    assert got == want
    assert all(type(x) is F for row in got for x in row)
    assert mat_mul(a, got) == block
    vector = [row[0] for row in block]
    assert solve_linear(a, vector) == [row[0] for row in want]


def test_solve_swaps_rows_on_a_zero_leading_entry():
    a = [[F(0), F(2), F(1)], [F(3, 2), F(1), F(0)], [F(1), F(0), F(5, 7)]]
    b = [F(1), F(2, 3), F(-1)]
    x = solve_linear(a, b)
    assert x == [row[0] for row in gauss_jordan_oracle(a, [[v] for v in b])]
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


def test_solve_int_only_and_mixed_input():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    b = [[1, 0], [0, 1], [5, -2]]
    x = solve_linear(a, b)
    assert x == gauss_jordan_oracle(a, b)
    assert all(type(v) is F for row in x for v in row)
    mixed = [[F(2, 3), 1, 0], [1, F(-3, 5), 1], [0, 1, 4]]
    rhs = [1, F(1, 2), F(-7, 3)]
    y = solve_linear(mixed, rhs)
    assert y == [row[0] for row in gauss_jordan_oracle(mixed, [[v] for v in rhs])]
    assert mat_inverse(mixed) == gauss_jordan_oracle(mixed, mat_identity(3))


def test_solve_singular_only_after_elimination_raises():
    # every entry and the first pivot are nonzero; the second column
    # vanishes below the diagonal after the first elimination step
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(3), F(6), F(10)]]
    with pytest.raises(ZeroDivisionError):
        gauss_jordan_oracle(a, [[1], [1], [1]])
    with pytest.raises(ZeroDivisionError):
        solve_linear(a, [F(1), F(1), F(1)])
    with pytest.raises(ZeroDivisionError):
        mat_inverse(a)

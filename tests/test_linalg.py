"""Tests for exact dense matrix helpers."""

from fractions import Fraction as F

import pytest

from bcq.linalg import (
    flip_matrix,
    mat_identity,
    mat_inverse,
    mat_kron,
    mat_mul,
    mat_transpose,
    partial_transpose_first,
    solve_linear,
)


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

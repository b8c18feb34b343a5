"""Tests for the sparse matrix helpers and the dense exact solver."""

import itertools
import math
import random
import struct
from fractions import Fraction as F

import pytest

from bcq.linalg import (
    _inv,
    _is_exact,
    integer_matrix,
    mat_identity,
    mat_inverse,
    mat_kron,
    mat_mul,
    mat_transpose,
    partial_transpose_first,
    solve_linear,
)
from bcq.qgrass import j_sigma, j_tilde_sigma, r_matrix, r_minus, r_plus


def sparse(rows):
    """A dense literal (lists of lists) in the sparse form of ``bcq.linalg``."""
    return [{j: x for j, x in enumerate(row) if x != 0} for row in rows]


def dense(m, width=None):
    """A sparse matrix as lists of lists, ``width`` columns (square by default).
    Fails unless every row holds nonzero entries in ascending columns below
    ``width``, so an entry the dense form cannot show is not dropped."""
    width = len(m) if width is None else width
    for row in m:
        assert list(row) == sorted(row) and all(0 <= j < width for j in row), row
        assert all(x != 0 for x in row.values()), row
    return [[row.get(j, 0) for j in range(width)] for row in m]


def dense_mul(a, b):
    """The dense product the sparse one replaced: each entry summed over t
    ascending, zero terms skipped."""
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c == 0:
                continue
            for j in range(m):
                if b[t][j] != 0:
                    out[i][j] += c * b[t][j]
    return out


def dense_kron(a, b):
    na, nb, ma, mb = len(a), len(b), len(a[0]), len(b[0])
    out = [[0] * (ma * mb) for _ in range(na * nb)]
    for i, j, k, t in itertools.product(range(na), range(ma), range(nb), range(mb)):
        if a[i][j] != 0 and b[k][t] != 0:
            out[i * nb + k][j * mb + t] = a[i][j] * b[k][t]
    return out


def dense_partial_transpose(a, n):
    """B[(i,k),(j,l)] = A[(j,k),(i,l)] on dense n^2 x n^2 matrices."""
    return [
        [a[j * n + k][i * n + l] for j in range(n) for l in range(n)]
        for i in range(n)
        for k in range(n)
    ]


def assert_sparse_form(m):
    """Every stored entry is nonzero and every row lists its columns in
    ascending order."""
    for row in m:
        assert list(row) == sorted(row) and all(x != 0 for x in row.values())


@pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(-3, 5), 0.3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sparse_products_match_the_dense_oracle(n, q):
    # the factors of the reflection checks; floats must agree bit for bit
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    r, rm, rp = (dense(f(n, q)) for f in (r_matrix, r_minus, r_plus))
    for l in range(1, n // 2 + 1):
        js, jt = dense(j_sigma(n, l, 1, q)), dense(j_tilde_sigma(n, l, 1, q))
        x1, x2 = dense_kron(js, identity), dense_kron(identity, jt)
        assert dense(mat_kron(sparse(js), sparse(identity))) == x1
        assert dense(mat_kron(sparse(identity), sparse(jt))) == x2
        assert dense(mat_kron(sparse(js), sparse(jt))) == dense_kron(js, jt)
        want, got = r, sparse(r)
        for factor in (x1, rm, x2, rp, r):
            want, got = dense_mul(want, factor), mat_mul(got, sparse(factor))
            assert_sparse_form(got)
            assert dense(got) == want
            pt = partial_transpose_first(got, n)
            assert_sparse_form(pt)
            assert dense(pt) == dense_partial_transpose(want, n)


def test_integer_matrix_scales_by_the_lcm_of_the_denominators():
    m, scale = integer_matrix(sparse([[F(1, 2), 0, F(-2, 3)], [0, 3, 0], [F(5, 4), 0, 1]]))
    assert scale == 12
    assert m == sparse([[6, 0, -8], [0, 36, 0], [15, 0, 12]])
    assert all(type(x) is int for row in m for x in row.values())
    assert integer_matrix([{0: 2}, {}]) == ([{0: 2}, {}], 1)


def test_exactness_test_and_inverse():
    # the package's one exactness test: int and Fraction, never float
    assert _is_exact(F(1, 2)) and _is_exact(2)
    assert not _is_exact(0.5) and not _is_exact(0.5j)
    assert _inv(2) == F(1, 2) and type(_inv(2)) is F
    assert _inv(F(-2, 3)) == F(-3, 2)
    assert _inv(0.5) == 2.0 and type(_inv(0.5)) is float


def test_inverse_keeps_the_bits_of_a_float_division():
    # Fraction(1, 1) / x divides as float or complex when x is one
    rng = random.Random(5)
    floats = [0.5, -3.0, 1e-320, -5e-324, 2.0 ** -1060, 1e300, math.inf, -math.inf, math.nan]
    floats += [math.ldexp(rng.uniform(-1, 1), rng.randint(-1000, 1020)) for _ in range(2000)]
    for x in floats + [complex(a, b) for a, b in zip(floats, reversed(floats))]:
        got, want = _inv(x), 1 / x
        assert type(got) is type(want)
        parts = (got.real, got.imag, want.real, want.imag) if type(x) is complex else (got, want)
        bits = [struct.pack("<d", v) for v in parts]
        assert bits[: len(bits) // 2] == bits[len(bits) // 2 :], x
    for zero in (0, F(0), 0.0, -0.0, 0j):
        with pytest.raises(ZeroDivisionError):
            _inv(zero)
    for x, want in ((3, F(1, 3)), (-1, F(-1)), (F(-2, 3), F(-3, 2)), (F(7, 1), F(1, 7))):
        assert _inv(x) == want and type(_inv(x)) is F


def test_identity_and_mul():
    a = sparse([[F(1), F(2)], [F(3), F(4)]])
    assert mat_mul(a, mat_identity(2)) == a
    assert mat_mul(mat_identity(2), a) == a
    b = sparse([[F(0), F(1)], [F(1), F(0)]])
    assert dense(mat_mul(a, b)) == [[F(2), F(1)], [F(4), F(3)]]


def test_inverse_roundtrip_exact():
    a = sparse([[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(2)]])
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == mat_identity(3)
    assert mat_mul(inv, a) == mat_identity(3)


def test_inverse_singular_raises():
    with pytest.raises(ZeroDivisionError):
        mat_inverse(sparse([[F(1), F(2)], [F(2), F(4)]]))


def test_solve_linear():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = solve_linear(a, b)
    assert [sum(a[i][j] * x[j] for j in range(2)) for i in range(2)] == b


def test_solve_linear_block():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [[F(5), F(1)], [F(10), F(0)]]
    x = solve_linear(a, b)
    assert dense(mat_mul(sparse(a), sparse(x))) == b
    assert x == [[F(1), F(3, 5)], [F(3), F(-1, 5)]]
    with pytest.raises(ZeroDivisionError):
        solve_linear([[F(1), F(2)], [F(2), F(4)]], [[F(1)], [F(2)]])


def test_kron_shape_and_values():
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(0)]]
    k = dense(mat_kron(sparse(a), sparse(b)))
    assert len(k) == 4 and len(k[0]) == 4
    assert max(c for row in mat_kron(sparse(a), sparse(b)) for c in row) == 3
    assert k[0][1] == F(1)  # a[0][0] * b[0][1]
    assert k[2][1] == F(3)  # a[1][0] * b[0][1]
    assert k[2][3] == F(4)  # a[1][1] * b[0][1]


def test_transpose_and_diff():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert dense(mat_transpose(sparse(a))) == [[F(1), F(3)], [F(2), F(4)]]


def test_partial_transpose_involution():
    n = 2
    m = sparse([[F(i * 4 + j) for j in range(4)] for i in range(4)])
    once = partial_transpose_first(m, n)
    assert partial_transpose_first(once, n) == m
    # entry check: (i k | j l) -> (j k | i l)
    # position rows i*n+k, cols j*n+l
    assert dense(once)[0 * n + 1][1 * n + 0] == dense(m)[1 * n + 1][0 * n + 0]


def test_inverse_of_real_matrix_is_real():
    a = sparse([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.25, 1.0, 2.0]])
    inv = mat_inverse(a)
    assert not any(isinstance(x, complex) for row in inv for x in row.values())
    product = dense(mat_mul(a, inv))
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
    assert dense(mat_mul(sparse(a), sparse(got)), width) == block
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
    assert dense(mat_inverse(sparse(mixed))) == gauss_jordan_oracle(mixed, dense(mat_identity(3)))


def test_solve_singular_only_after_elimination_raises():
    # every entry and the first pivot are nonzero; the second column
    # vanishes below the diagonal after the first elimination step
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(3), F(6), F(10)]]
    with pytest.raises(ZeroDivisionError):
        gauss_jordan_oracle(a, [[1], [1], [1]])
    with pytest.raises(ZeroDivisionError):
        solve_linear(a, [F(1), F(1), F(1)])
    with pytest.raises(ZeroDivisionError, match="singular linear system"):
        solve_linear([[float(x) for x in row] for row in a], [1.0, 1.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        mat_inverse(sparse(a))

"""Tests for the R-matrix layer, reflection identities, q-exterior
intertwiners, branching and the Gelfand property."""

import itertools
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from bcq.linalg import (
    flip_matrix,
    mat_identity,
    mat_mul,
    mat_transpose,
    partial_transpose_first,
)
from bcq.qgrass import (
    QExtVector,
    _partial_transpose_inverse,
    beta_map,
    branching_coeffs,
    casimir_eigenvalue,
    gelfand_check,
    intertwiner_check,
    j_infty,
    j_sigma,
    j_tilde_sigma,
    psi_constant,
    psi_hat_r,
    qsgn,
    qybe_check,
    r_matrix,
    r_minus,
    r21_minus,
    r_plus,
    refalt_check,
    reflection_check,
    spherical_multiplicity,
    tensor_power,
    theta_constant_check,
    u_vector,
    w_vectors,
    wedge,
    wedge_dual,
)
from bcq.polyring import LaurentPoly, peel, schur
from bcq.weights import GrassmannShape

Q = F(1, 2)


def test_r_matrix_n2_frozen():
    # basis e1(x)e1, e1(x)e2, e2(x)e1, e2(x)e2
    r = r_matrix(2, Q)
    expected = [
        [Q, 0, 0, 0],
        [0, 1, 0, 0],
        [0, Q - 1 / Q, 1, 0],
        [0, 0, 0, Q],
    ]
    assert r == expected


def test_r_inverses():
    for n in (2, 3):
        assert mat_mul(r_matrix(n, Q), r_minus(n, Q)) == mat_identity(n * n)
        assert mat_mul(r_plus(n, Q), r_minus(n, Q)) != mat_identity(n * n)


def _assert_matrices_match(a, b, exact):
    if exact:
        assert a == b
    else:
        diffs = (abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
        assert max(diffs) < 1e-12


@pytest.mark.parametrize("q", [F(1, 2), 0.3])
def test_r_matrix_identities(q):
    exact = isinstance(q, F)
    for n in (2, 3, 4, 5):
        p = flip_matrix(n)
        identity = mat_identity(n * n)
        r, rm = r_matrix(n, q), r_minus(n, q)
        # R^+ = P R P = R^T
        assert r_plus(n, q) == mat_mul(mat_mul(p, r), p) == mat_transpose(r)
        # (R21)^{-1} = P R^{-1} P = (R^-)^T, the inverse of R21 = R^+
        assert r21_minus(n, q) == mat_mul(mat_mul(p, rm), p) == mat_transpose(rm)
        _assert_matrices_match(mat_mul(r_plus(n, q), r21_minus(n, q)), identity, exact)
        # R^-(q) = R(q^{-1}) and R R^- = I
        _assert_matrices_match(rm, r_matrix(n, 1 / q), exact)
        _assert_matrices_match(mat_mul(r, rm), identity, exact)


def test_checks_float_mode():
    q = 0.3
    shape = GrassmannShape(4, 2)
    js, jt = j_sigma(4, 2, 1, q), j_tilde_sigma(4, 2, 1, q)
    reports = [
        qybe_check(3, q),
        reflection_check(js, 4, q),
        refalt_check(jt, js, 4, q),
        intertwiner_check(shape, 2, 1, q, tilde=False),
        intertwiner_check(shape, 2, 1, q, tilde=True),
        theta_constant_check(shape, 2, 1, q, tilde=False),
        theta_constant_check(shape, 2, 1, q, tilde=True),
    ]
    for report in reports:
        assert report.exact is False, report.identity
        assert report.residual < 1e-10 and report.passed, report.identity
    perturbed = [row[:] for row in js]
    perturbed[0][1] += 1e-3
    report = reflection_check(perturbed, 4, q)
    assert report.exact is False
    assert report.residual > 1e-10 and not report.passed


def test_qybe_exact():
    for n in (2, 3):
        report = qybe_check(n, Q)
        assert report.passed and report.exact


def test_reflection_exact():
    for n in (2, 3, 4):
        for l in range(1, n // 2 + 1):
            for sigma in (0, 1):
                report = reflection_check(j_sigma(n, l, sigma, Q), n, Q)
                assert report.passed and report.exact
    report_inf = reflection_check(j_infty(4, 2), 4, Q)
    assert report_inf.passed


def test_reflection_fails_for_random_matrix():
    rng = random.Random(7)
    n = 3
    x = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    report = reflection_check(x, n, Q)
    assert not report.passed


def test_refalt_exact():
    for n in (3, 4):
        for l in range(1, n // 2 + 1):
            for sigma in (0, 1):
                report = refalt_check(
                    j_tilde_sigma(n, l, sigma, Q), j_sigma(n, l, sigma, Q), n, Q
                )
                assert report.passed and report.exact


def test_qsgn_and_wedge():
    # disjoint, one decreasing pair
    assert qsgn((2,), (1,), Q) == -Q
    assert qsgn((1,), (2,), Q) == 1
    # overlap kills the product
    assert qsgn((1, 2), (2,), Q) == 0
    assert wedge((1,), (2,), Q) == (1, (1, 2))
    assert wedge((2,), (1,), Q) == (-Q, (1, 2))
    # dual convention reverses the roles
    assert wedge_dual((1,), (2,), Q) == (-Q, (1, 2))
    assert wedge_dual((2,), (1,), Q) == (1, (1, 2))


def test_beta_map():
    # beta(v*_i (x) v_j) = q^{-delta_ij} v_j (x) v*_i + correction on i = j
    diag = dict(beta_map((2, 2), Q))
    assert diag[(2, 2)] == 1 / Q
    assert diag[(1, 1)] == 1 / Q - Q
    off = dict(beta_map((1, 2), Q))
    assert off == {(2, 1): 1}


def test_intertwiner_small():
    shape = GrassmannShape(4, 2)
    for r in (1, 2):
        for sigma in (0, 1):
            for tilde in (False, True):
                report = intertwiner_check(shape, r, sigma, Q, tilde=tilde)
                assert report.passed and report.exact


def test_psi_image_of_u_like_vector_has_expected_weight():
    shape = GrassmannShape(4, 2)
    w, w_tilde, w_inf = w_vectors(shape, 0, Q)
    image = psi_hat_r(tensor_power(w, 2), shape, 2, Q)
    assert image.space == "Wedge.2"
    assert not image.is_zero


def test_psi_constant_values():
    # c_r(sigma) = (q^sigma/(q^2-1))^r (q^2; q^2)_r
    q = Q
    c2 = (q**0 / (q**2 - 1)) ** 2 * (1 - q**2) * (1 - q**4)
    assert psi_constant(2, 0, 2, q) == c2


def test_theta_constants():
    shape = GrassmannShape(6, 3)
    for r in (2, 3):
        for tilde in (False, True):
            report = theta_constant_check(shape, r, 0, Q, tilde=tilde)
            assert report.passed and report.exact


def test_casimir_frozen():
    assert casimir_eigenvalue((1, 0, 0, -1), 4, Q) == F(1105, 256)
    # chi_0 = sum_k q^{2(n-k)}
    assert casimir_eigenvalue((0, 0), 2, Q) == Q**2 + 1


def test_branching_frozen():
    shape = GrassmannShape(4, 2)
    coeffs = branching_coeffs((1, 0, 0, -1), shape)
    assert coeffs == {
        ((1, 0), (0, -1)): 1,
        ((1, -1), (0, 0)): 1,
        ((0, 0), (1, -1)): 1,
        ((0, 0), (0, 0)): 1,
        ((0, -1), (1, 0)): 1,
    }
    # trivial representation decomposes trivially
    assert branching_coeffs((0, 0, 0, 0), shape) == {((0, 0), (0, 0)): 1}


def test_spherical_multiplicity():
    shape = GrassmannShape(4, 2)
    assert spherical_multiplicity((1, 0, 0, -1), shape) == 1
    assert spherical_multiplicity((1, 0, 0, 0), shape) == 0
    assert spherical_multiplicity((0, 0, 0, 0), shape) == 1


def _block_dominant(p, n, l):
    """The terms of p whose exponent is a partition on both blocks."""
    return LaurentPoly(n, {
        e: c for e, c in p.terms.items()
        if all(e[i] >= e[i + 1] for i in range(n - 1) if i != n - l - 1)
    })


@lru_cache(maxsize=None)
def _block_product(mu, nu, n, l):
    """s_mu(z') s_nu(z''), each block Schur polynomial embedded in n
    variables, restricted to the block-dominant exponents."""
    first = LaurentPoly(n, {a + (0,) * l: c for a, c in schur(mu, n - l).terms.items()})
    second = LaurentPoly(n, {(0,) * (n - l) + b: c for b, c in schur(nu, l).terms.items()})
    return _block_dominant(first * second, n, l)


def _branching_oracle(lam, shape):
    """Branching by peeling in LaurentPoly arithmetic: subtract
    c s_mu(z') s_nu(z'') at the lexicographically largest exponent of what
    is left of s_lambda.  Only block-dominant exponents are kept: the
    leading exponent of a block-symmetric polynomial is one, so the steps
    are those of the peel on the whole polynomial."""
    n, l = shape.n, shape.l
    m = max(0, -lam[-1])
    rem = _block_dominant(schur(tuple(e + m for e in lam), n), n, l)
    out = {}
    while not rem.is_zero:
        exp = max(rem.terms)
        mu, nu = exp[: n - l], exp[n - l :]
        c = rem.terms[exp]
        rem = rem - _block_product(mu, nu, n, l).scale(c)
        out[(tuple(e - m for e in mu), tuple(e - m for e in nu))] = c
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_branching_matches_oracle(n):
    # every dominant weight with entries in [-2, 2], every l
    for l in range(1, n // 2 + 1):
        shape = GrassmannShape(n, l)
        trivial = ((0,) * (n - l), (0,) * l)
        for lam in itertools.combinations_with_replacement(range(2, -3, -1), n):
            expected = _branching_oracle(lam, shape)
            assert branching_coeffs(lam, shape) == expected, (lam, l)
            assert spherical_multiplicity(lam, shape) == expected.get(trivial, 0), (lam, l)


def test_gelfand_small():
    for shape in (GrassmannShape(4, 2), GrassmannShape(5, 2)):
        report = gelfand_check(shape, 1)
        assert report.passed and report.exact
        assert report.detail["failures"] == []


@pytest.mark.parametrize("lam", [(0, 1, 0, 0), (1, 0, 0), (0, 0, 0, 0, 0)])
def test_branching_rejects_invalid_weight(lam):
    # spherical_multiplicity returned 0 on a non-dominant weight and on a
    # weight of the wrong length
    shape = GrassmannShape(4, 2)
    with pytest.raises(ValueError):
        spherical_multiplicity(lam, shape)
    with pytest.raises(ValueError):
        branching_coeffs(lam, shape)


def test_gelfand_rejects_negative_bound():
    # a negative bound checked no weight and passed
    with pytest.raises(ValueError):
        gelfand_check(GrassmannShape(5, 2), -1)


@lru_cache(maxsize=None)
def _schur_product_expansion(n, l, m):
    """Schur-basis expansion of s_{(m^{n-l})} s_{(m^l)} in n variables,
    peeled at the lexicographically largest exponent."""
    p1 = schur((m,) * (n - l) + (0,) * l, n)
    p2 = schur((m,) * l + (0,) * (n - l), n)
    return peel(
        (p1 * p2).terms, lambda rest: (max(rest),) * 2, lambda lam: schur(lam, n).terms
    )


@pytest.mark.parametrize("l", [1, 2, 3])
def test_spherical_multiplicity_matches_product_oracle(l):
    # every dominant weight with entries in [-2, 2] at n = 7, the range of
    # the benchmark's Gelfand sweep
    n = 7
    shape = GrassmannShape(n, l)
    for lam in itertools.combinations_with_replacement(range(2, -3, -1), n):
        m = max(0, -lam[-1])
        expected = _schur_product_expansion(n, l, m).get(tuple(e + m for e in lam), 0)
        assert spherical_multiplicity(lam, shape) == expected, lam


def test_gelfand_n7_l3_bound3():
    report = gelfand_check(GrassmannShape(7, 3), 3)
    assert report.passed and report.exact
    assert report.detail["checked"] == 1716


def test_u_vector_support():
    shape = GrassmannShape(4, 2)
    u = u_vector(shape, 1)
    # index sets drawn from {1..l} union {n-l+1..n} avoiding mirrors
    for (i_set, j_set) in u.coeffs:
        assert len(i_set) == 1 and len(j_set) == 1
        i, j = i_set[0], j_set[0]
        assert j == shape.n + 1 - i


def test_j_matrices_shape():
    n, l = 5, 2
    js = j_sigma(n, l, 1, Q)
    jt = j_tilde_sigma(n, l, 1, Q)
    assert len(js) == n and len(jt) == n
    # middle block of J^sigma is the identity
    assert js[2][2] == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partial_transpose_inverse_stays_real(n):
    q = 0.3
    for m in (r21_minus(n, q), r_matrix(n, q)):
        a = partial_transpose_first(m, n)
        inv = _partial_transpose_inverse(a, n)
        assert not any(isinstance(x, complex) for row in inv for x in row)
        product = mat_mul(a, inv)
        size = n * n
        assert all(
            abs(product[i][j] - (i == j)) < 1e-12
            for i in range(size)
            for j in range(size)
        )

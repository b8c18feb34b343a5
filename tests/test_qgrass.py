"""Tests for the R-matrix layer, reflection identities, q-exterior
intertwiners, branching and the Gelfand property."""

import itertools
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcq import qgrass
from bcq.linalg import (
    flip_matrix,
    mat_identity,
    mat_mul,
    mat_transpose,
    partial_transpose_first,
)
from bcq.qgrass import (
    QExtVector,
    _orbit_weights,
    _partial_transpose_inverse,
    _psi_image,
    _u,
    _weight,
    beta_map,
    branching_coeffs,
    casimir_eigenvalue,
    gelfand_check,
    intertwiner_check,
    j_infty,
    j_sigma,
    j_tilde_sigma,
    phi_hat_r,
    principal_term,
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
    theta_constant,
    theta_constant_check,
    theta_hat_r,
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


@pytest.mark.parametrize("q", [F(1, 2), F(3, 7), F(2), F(-1, 3)])
def test_constants_match_their_quotient_forms(q):
    # psi: (b/(q^2-1))^r (q^2; q^2)_r, theta: -b (1-q^{2r})/(1-q^2)
    for l, r, sigma, tilde in itertools.product((1, 2, 3), (1, 2, 3), (0, 1), (False, True)):
        b = qgrass._constant_base(sigma, l, q, tilde)
        pochhammer = 1
        for i in range(1, r + 1):
            pochhammer *= 1 - q ** (2 * i)
        assert psi_constant(r, sigma, l, q, tilde) == (b / (q * q - 1)) ** r * pochhammer
        assert theta_constant(r, sigma, l, q, tilde) == -b * (1 - q ** (2 * r)) / (1 - q * q)


@pytest.mark.parametrize("q", [F(1), F(-1)])
def test_checks_pass_in_the_classical_limit(q):
    # the quotient forms divided by zero at q = +-1
    shape = GrassmannShape(6, 3)
    for r, sigma, tilde in itertools.product((1, 2, 3), (0, 1), (False, True)):
        report = intertwiner_check(shape, r, sigma, q, tilde=tilde)
        assert report.passed and report.exact, (r, sigma, tilde)
        if r >= 2:
            report = theta_constant_check(shape, r, sigma, q, tilde=tilde)
            assert report.passed and report.exact, (r, sigma, tilde)


def _key_weight(key, n=6):
    """Weight of an interleaved (V (x) V*)^{(x) r} key."""
    return _weight(key[::2], key[1::2], n)


def _wedge_weights(v, n=6):
    return {_weight(i_set, j_set, n) for i_set, j_set in v.coeffs}


def test_beta_and_phi_keep_the_weight():
    for i, j in itertools.product(range(1, 7), repeat=2):
        # beta(v*_i (x) v_j) has the weight e_j - e_i
        assert {_weight((vj,), (di,), 6) for (vj, di), _ in beta_map((i, j), Q)} == {
            _weight((j,), (i,), 6)
        }
    for size in (1, 2):
        for i_set in itertools.combinations(range(1, 7), size):
            for j in range(1, 7):
                image = phi_hat_r(i_set, j, Q)
                assert {_weight((m,), k_set, 6) for (m, k_set), _ in image} == {
                    _weight((j,), i_set, 6)
                }


def _assert_psi_keeps_weight(key):
    image = psi_hat_r(QExtVector("V*V", {key: 1}), GrassmannShape(6, 3), len(key) // 2, Q)
    assert _wedge_weights(image) <= {_key_weight(key)}, key


def test_psi_keeps_the_weight_of_every_key_up_to_r2():
    for r in (1, 2):
        for key in itertools.product(range(1, 7), repeat=2 * r):
            _assert_psi_keeps_weight(key)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(1, 6)] * 6))
def test_psi_keeps_the_weight_at_r3(key):
    # the 6^6 keys at r = 3 take seconds; sample them
    _assert_psi_keeps_weight(key)


def test_theta_keeps_the_weight():
    shape = GrassmannShape(6, 3)
    for r in (2, 3):
        subsets = list(itertools.combinations(range(1, 7), r - 1))
        for i_set, j_set in itertools.product(subsets, repeat=2):
            u = QExtVector(f"Wedge.{r - 1}", {(i_set, j_set): 1})
            for s, t in itertools.product(range(1, 7), repeat=2):
                image = theta_hat_r(u, QExtVector("V*V.1", {(s, t): 1}), shape, Q)
                assert _wedge_weights(image) <= {_weight(i_set + (s,), j_set + (t,), 6)}


def _criterion_03_cases():
    for n in range(2, 7):
        for l in range(1, min(3, n // 2) + 1):
            for r in range(1, min(3, l) + 1):
                for sigma, tilde in itertools.product((0, 1), (False, True)):
                    yield GrassmannShape(n, l), r, sigma, tilde


def test_pruned_psi_principal_term_matches_the_full_one():
    for shape, r, sigma, tilde in _criterion_03_cases():
        w = w_vectors(shape, sigma, Q)[1 if tilde else 0]
        full = principal_term(psi_hat_r(tensor_power(w, r), shape, r, Q), shape, r)
        pruned = principal_term(_psi_image(w, shape, r, Q), shape, r)
        assert list(pruned.coeffs.items()) == list(full.coeffs.items()), (shape, r, sigma, tilde)
        assert [type(c) for c in pruned.coeffs.values()] == [type(c) for c in full.coeffs.values()]
        assert pruned.coeffs


def test_pruned_theta_principal_term_matches_the_full_one():
    shape = GrassmannShape(6, 3)
    for r, sigma, tilde in itertools.product((2, 3), (0, 1), (False, True)):
        w = w_vectors(shape, sigma, Q)[1 if tilde else 0]
        u = _u(shape, r - 1, Q, tilde)
        full = principal_term(theta_hat_r(u, w, shape, Q), shape, r)
        pruned = principal_term(theta_hat_r(u, w, shape, Q, _orbit_weights(shape, r)), shape, r)
        assert list(pruned.coeffs.items()) == list(full.coeffs.items()), (r, sigma, tilde)
        assert pruned.coeffs


@pytest.mark.parametrize(
    "name, check", [("psi_constant", intertwiner_check), ("theta_constant", theta_constant_check)]
)
def test_wrong_constant_fails_the_pruned_check(monkeypatch, name, check):
    true_constant = getattr(qgrass, name)
    monkeypatch.setattr(qgrass, name, lambda *args: Q * true_constant(*args))
    shape = GrassmannShape(6, 3)
    for r, sigma, tilde in itertools.product((2, 3), (0, 1), (False, True)):
        report = check(shape, r, sigma, Q, tilde=tilde)
        assert report.exact and not report.passed, (r, sigma, tilde)


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

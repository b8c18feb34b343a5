"""Tests for the R-matrix layer, reflection identities, q-exterior
intertwiners, branching and the Gelfand property."""

import itertools
import math
import random
from collections import Counter
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
    _wedge,
    _weight,
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
)
from bcq.polyring import LaurentPoly, peel, schur
from bcq.weights import GrassmannShape, WeightVector, is_spherical

Q = F(1, 2)


def dense(m):
    """A square sparse matrix ({column: entry} rows) as lists of lists.
    Fails unless every row holds nonzero entries in ascending columns below
    the size, so an entry the dense form cannot show is not dropped."""
    for row in m:
        assert list(row) == sorted(row) and all(0 <= j < len(m) for j in row), row
        assert all(x != 0 for x in row.values()), row
    return [[row.get(j, 0) for j in range(len(m))] for row in m]


def sparse(rows):
    """A dense matrix (lists of lists) in the sparse form of ``bcq.linalg``."""
    return [{j: x for j, x in enumerate(row) if x != 0} for row in rows]


def test_r_matrix_n2_frozen():
    # basis e1(x)e1, e1(x)e2, e2(x)e1, e2(x)e2
    r = r_matrix(2, Q)
    expected = [
        [Q, 0, 0, 0],
        [0, 1, 0, 0],
        [0, Q - 1 / Q, 1, 0],
        [0, 0, 0, Q],
    ]
    assert dense(r) == expected
    assert sum(map(len, r)) == 5


def test_r_inverses():
    for n in (2, 3):
        assert mat_mul(r_matrix(n, Q), r_minus(n, Q)) == mat_identity(n * n)
        assert mat_mul(r_plus(n, Q), r_minus(n, Q)) != mat_identity(n * n)


def _assert_matrices_match(a, b, exact):
    if exact:
        assert a == b
    else:
        diffs = (abs(x - y) for ra, rb in zip(dense(a), dense(b)) for x, y in zip(ra, rb))
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
    perturbed = dense(js)
    perturbed[0][1] += 1e-3
    report = reflection_check(sparse(perturbed), 4, q)
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
    report = reflection_check(sparse(x), n, Q)
    assert not report.passed


def test_refalt_exact():
    for n in (3, 4):
        for l in range(1, n // 2 + 1):
            for sigma in (0, 1):
                report = refalt_check(
                    j_tilde_sigma(n, l, sigma, Q), j_sigma(n, l, sigma, Q), n, Q
                )
                assert report.passed and report.exact


def _side_scales(monkeypatch, run):
    """(S_lhs, S_rhs) of the one ``_matrix_diffs`` call ``run()`` makes, the
    products of the scales of each side's (matrix, scale) factors, and its
    report.  Every factor entry must be an ``int``: no ``Fraction`` reaches
    the products of an exact check."""
    seen = []
    real = qgrass._matrix_diffs

    def spy(lhs, rhs):
        assert all(type(x) is int for m, _ in lhs + rhs for row in m for x in row.values())
        seen.append(tuple(math.prod(s for _, s in side) for side in (lhs, rhs)))
        return real(lhs, rhs)

    monkeypatch.setattr(qgrass, "_matrix_diffs", spy)
    report = run()
    assert len(seen) == 1
    return seen[0], report


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_integer_verdict_scales_each_side(monkeypatch, n):
    # a^{-1} and b^{-1} carry different denominators, so every refalt_check
    # compares sides of different scales; the other two checks do not
    for q, l, sigma in itertools.product((F(1, 2), F(-3, 5)), range(1, n // 2 + 1), (0, 1)):
        js, jt = j_sigma(n, l, sigma, q), j_tilde_sigma(n, l, sigma, q)
        (s_lhs, s_rhs), report = _side_scales(monkeypatch, lambda: refalt_check(jt, js, n, q))
        assert s_lhs != s_rhs and report.passed and report.exact, (q, l, sigma)
        (s_lhs, s_rhs), report = _side_scales(monkeypatch, lambda: reflection_check(js, n, q))
        assert s_lhs == s_rhs and report.passed and report.exact, (q, l, sigma)
    if n <= 4:
        (s_lhs, s_rhs), report = _side_scales(monkeypatch, lambda: qybe_check(n, Q))
        assert s_lhs == s_rhs > 1 and report.passed and report.exact


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_perturbed_j_fails_the_exact_checks(n):
    # 1/3^5 added at (1,1), (1,n) or (n,1) of J^sigma; at n = 2 the perturbed
    # J still solves the reflection equation, so only refalt_check must fail
    for l, sigma, (i, j) in itertools.product(
        range(1, n // 2 + 1), (0, 1), ((0, 0), (0, n - 1), (n - 1, 0))
    ):
        perturbed = dense(j_sigma(n, l, sigma, Q))
        perturbed[i][j] += F(1, 3**5)
        js = sparse(perturbed)
        report = refalt_check(j_tilde_sigma(n, l, sigma, Q), js, n, Q)
        assert report.exact and not report.passed, (l, sigma, i, j)
        if n >= 3:
            report = reflection_check(js, n, Q)
            assert report.exact and not report.passed, (l, sigma, i, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perturbed_r_fails_the_qybe_check(monkeypatch, n):
    # 1/3^5 added to the q - q^{-1} at (e_2 (x) e_1, e_1 (x) e_2), which every
    # n has; any single entry moved this way breaks the equation at n <= 5
    real = qgrass.r_matrix

    def perturbed(n, q):
        r = real(n, q)
        r[n][1] += F(1, 3**5)
        return r

    monkeypatch.setattr(qgrass, "r_matrix", perturbed)
    report = qybe_check(n, Q)
    assert report.exact and not report.passed

# float.hex of the residuals at q = 0.3, recorded with the dense products
# that the sparse ones replaced: the sums run in the same order, so every
# bit is kept.  Keys: (check, n) or (check, n, l, sigma).
FLOAT_RESIDUALS = {
    ("qybe", 2): "0x1.0000000000000p-53",
    ("qybe", 3): "0x1.0000000000000p-53",
    ("qybe", 4): "0x1.0000000000000p-53",
    ("qybe", 5): "0x1.0000000000000p-53",
    ("reflection", 2, 1, 0): "0x0.0p+0",
    ("refalt", 2, 1, 0): "0x1.0000000000000p-53",
    ("reflection", 2, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 2, 1, 1): "0x1.0000000000000p-51",
    ("reflection", 2, 1, 2): "0x1.0000000000000p-53",
    ("refalt", 2, 1, 2): "0x1.0000000000000p-53",
    ("reflection", 3, 1, 0): "0x0.0p+0",
    ("refalt", 3, 1, 0): "0x1.0000000000000p-46",
    ("reflection", 3, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 3, 1, 1): "0x1.0000000000000p-49",
    ("reflection", 3, 1, 2): "0x1.d000000000000p-53",
    ("refalt", 3, 1, 2): "0x1.0480000000000p-50",
    ("reflection", 4, 1, 0): "0x0.0p+0",
    ("refalt", 4, 1, 0): "0x1.8000000000000p-45",
    ("reflection", 4, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 4, 1, 1): "0x1.6000000000000p-46",
    ("reflection", 4, 1, 2): "0x1.d000000000000p-53",
    ("refalt", 4, 1, 2): "0x1.6c00000000000p-47",
    ("reflection", 4, 2, 0): "0x0.0p+0",
    ("refalt", 4, 2, 0): "0x1.0000000000000p-45",
    ("reflection", 4, 2, 1): "0x1.4000000000000p-53",
    ("refalt", 4, 2, 1): "0x1.8000000000000p-44",
    ("reflection", 4, 2, 2): "0x1.d000000000000p-53",
    ("refalt", 4, 2, 2): "0x1.2000000000000p-46",
    ("reflection", 5, 1, 0): "0x0.0p+0",
    ("refalt", 5, 1, 0): "0x1.b400000000000p-40",
    ("reflection", 5, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 5, 1, 1): "0x1.a100000000000p-43",
    ("reflection", 5, 1, 2): "0x1.d000000000000p-53",
    ("refalt", 5, 1, 2): "0x1.fa00000000000p-44",
    ("reflection", 5, 2, 0): "0x0.0p+0",
    ("refalt", 5, 2, 0): "0x1.6000000000000p-39",
    ("reflection", 5, 2, 1): "0x1.4000000000000p-53",
    ("refalt", 5, 2, 1): "0x1.8000000000000p-44",
    ("reflection", 5, 2, 2): "0x1.d000000000000p-53",
    ("refalt", 5, 2, 2): "0x1.3000000000000p-42",
}


def test_float_residuals_keep_every_bit():
    q = 0.3
    got = {("qybe", n): qybe_check(n, q).residual for n in range(2, 6)}
    for n in range(2, 6):
        for l, sigma in itertools.product(range(1, n // 2 + 1), (0, 1, 2)):
            js, jt = j_sigma(n, l, sigma, q), j_tilde_sigma(n, l, sigma, q)
            got[("reflection", n, l, sigma)] = reflection_check(js, n, q).residual
            got[("refalt", n, l, sigma)] = refalt_check(jt, js, n, q).residual
    assert {key: float.hex(x) for key, x in got.items()} == FLOAT_RESIDUALS


def _qsgn_oracle(i_set, j_set, q):
    """sgn(I;J) from two frozensets and one power of -q, as first written."""
    i_set, j_set = frozenset(i_set), frozenset(j_set)
    if i_set & j_set:
        return 0
    return (-q) ** sum(1 for i in i_set for j in j_set if i > j)


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 5), 0.3])
def test_tabled_q_signs_match_the_powers(q):
    # the checks wedge a set in [1, 6] with one index at a time, reading
    # (-q)^k from one table of powers
    signs = [(-q) ** k for k in range(6)]
    subsets = [c for k in range(6) for c in itertools.combinations(range(1, 7), k)]
    for i_set, j in itertools.product(subsets, range(1, 7)):
        for a, b in ((i_set, (j,)), ((j,), i_set)):
            want = _qsgn_oracle(a, b, q)
            got = qsgn(a, b, q)
            assert got == want and type(got) is type(want), (a, b)
            union = tuple(sorted(a + b)) if want != 0 else None
            for pair in (wedge(a, b, q), _wedge(a, b, signs)):
                assert pair == (want, union) and type(pair[0]) is type(want), (a, b)


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 5), 0.3])
def test_tabled_projections_match_direct_powers(monkeypatch, q):
    # psi_hat_r and theta_hat_r with their table of (-q)^k against the same
    # maps with each sign formed as one power of -q
    shape = GrassmannShape(6, 3)

    def images():
        out = []
        for r, sigma in itertools.product((1, 2, 3), (0, 1)):
            w = w_vectors(shape, sigma, q)[0]
            out.append(psi_hat_r(tensor_power(w, r), shape, r, q).coeffs)
            if r >= 2:
                out.append(theta_hat_r(u_vector(shape, r - 1), w, shape, q).coeffs)
        return out

    def direct(i_tuple, j_tuple, signs):
        s = _qsgn_oracle(i_tuple, j_tuple, q)
        return (0, None) if s == 0 else (s, tuple(sorted(i_tuple + j_tuple)))

    tabled = images()
    monkeypatch.setattr(qgrass, "_wedge", direct)
    assert images() == tabled


def test_qsgn_and_wedge():
    # disjoint, one decreasing pair
    assert qsgn((2,), (1,), Q) == -Q
    assert qsgn((1,), (2,), Q) == 1
    # overlap kills the product
    assert qsgn((1, 2), (2,), Q) == 0
    assert wedge((1,), (2,), Q) == (1, (1, 2))
    assert wedge((2,), (1,), Q) == (-Q, (1, 2))


def test_phi_hat_r_on_singletons():
    # phi(v*_i (x) v_j) = q^{-delta_ij} v_j (x) v*_i + correction on i = j
    assert dict(phi_hat_r((2,), 2, Q)) == {(2, (2,)): 1 / Q, (1, (1,)): 1 / Q - Q}
    assert dict(phi_hat_r((1,), 2, Q)) == {(2, (1,)): 1}


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
    assert any(c != 0 for c in image.coeffs.values())


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


def test_phi_keeps_the_weight():
    # on singletons, phi(v*_i (x) v_j) has the weight e_j - e_i
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


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_capped_contents_are_the_uncapped_ones_with_small_parts(n):
    # the cap prunes only the fillings that put more than m copies of a letter
    for l in range(1, n // 2 + 1):
        for lam in itertools.combinations_with_replacement(range(2, -3, -1), n):
            outer, m = qgrass._shift_dominant(lam, n)
            inner = (m,) * (n - l) + (0,) * l
            full = qgrass._lr_contents(outer, inner, l)
            capped = qgrass._lr_contents(outer, inner, l, m)
            assert capped == Counter({nu: c for nu, c in full.items() if max(nu) <= m}), lam


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


@pytest.mark.parametrize("build, message", [
    (lambda: QExtVector("V*V.1", {}) + QExtVector("Wedge.1", {}), "space mismatch"),
    (lambda: u_vector(GrassmannShape(4, 2), 3), "r must satisfy 1 <= r <= l"),
    (lambda: psi_hat_r(QExtVector("V*V", {}), GrassmannShape(4, 2), 0, Q),
     "r must satisfy 1 <= r <= l"),
    # u in Wedge^2 (x) Wedge^2 would map to Wedge^3, past l = 2
    (lambda: theta_hat_r(QExtVector("Wedge.2", {((1, 2), (3, 4)): 1}),
                         QExtVector("V*V.1", {(1, 1): 1}), GrassmannShape(4, 2), Q),
     "need 2 <= r <= l"),
    (lambda: qgrass._r(1, Q, Q), "n must be >= 2"),
])
def test_input_checks_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


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
        assert not any(isinstance(x, complex) for row in inv for x in row.values())
        product = dense(mat_mul(a, inv))
        size = n * n
        assert all(
            abs(product[i][j] - (i == j)) < 1e-12
            for i in range(size)
            for j in range(size)
        )


# float.hex of the residuals at q = 0.3 and q = 1.7, recorded while every
# check still built its own R-side factors.  Keys: (check, q, n, l, sigma).
R_SIDE_RESIDUALS = {
    ("reflection", 0.3, 2, 1, 0): "0x0.0p+0",
    ("refalt", 0.3, 2, 1, 0): "0x1.0000000000000p-53",
    ("reflection", 0.3, 2, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 2, 1, 1): "0x1.0000000000000p-51",
    ("reflection", 0.3, 3, 1, 0): "0x0.0p+0",
    ("refalt", 0.3, 3, 1, 0): "0x1.0000000000000p-46",
    ("reflection", 0.3, 3, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 3, 1, 1): "0x1.0000000000000p-49",
    ("reflection", 0.3, 4, 1, 0): "0x0.0p+0",
    ("refalt", 0.3, 4, 1, 0): "0x1.8000000000000p-45",
    ("reflection", 0.3, 4, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 4, 1, 1): "0x1.6000000000000p-46",
    ("reflection", 0.3, 4, 2, 0): "0x0.0p+0",
    ("refalt", 0.3, 4, 2, 0): "0x1.0000000000000p-45",
    ("reflection", 0.3, 4, 2, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 4, 2, 1): "0x1.8000000000000p-44",
    ("reflection", 0.3, 5, 1, 0): "0x0.0p+0",
    ("refalt", 0.3, 5, 1, 0): "0x1.b400000000000p-40",
    ("reflection", 0.3, 5, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 5, 1, 1): "0x1.a100000000000p-43",
    ("reflection", 0.3, 5, 2, 0): "0x0.0p+0",
    ("refalt", 0.3, 5, 2, 0): "0x1.6000000000000p-39",
    ("reflection", 0.3, 5, 2, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 5, 2, 1): "0x1.8000000000000p-44",
    ("reflection", 0.3, 6, 1, 0): "0x0.0p+0",
    ("refalt", 0.3, 6, 1, 0): "0x1.b260000000000p-35",
    ("reflection", 0.3, 6, 1, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 6, 1, 1): "0x1.3674000000000p-36",
    ("reflection", 0.3, 6, 2, 0): "0x0.0p+0",
    ("refalt", 0.3, 6, 2, 0): "0x1.a600000000000p-35",
    ("reflection", 0.3, 6, 2, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 6, 2, 1): "0x1.7400000000000p-39",
    ("reflection", 0.3, 6, 3, 0): "0x0.0p+0",
    ("refalt", 0.3, 6, 3, 0): "0x1.0000000000000p-42",
    ("reflection", 0.3, 6, 3, 1): "0x1.4000000000000p-53",
    ("refalt", 0.3, 6, 3, 1): "0x1.ea00000000000p-37",
    ("reflection", 1.7, 2, 1, 0): "0x0.0p+0",
    ("refalt", 1.7, 2, 1, 0): "0x0.0p+0",
    ("reflection", 1.7, 2, 1, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 2, 1, 1): "0x1.8000000000000p-50",
    ("reflection", 1.7, 3, 1, 0): "0x0.0p+0",
    ("refalt", 1.7, 3, 1, 0): "0x1.0000000000000p-49",
    ("reflection", 1.7, 3, 1, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 3, 1, 1): "0x1.0000000000000p-47",
    ("reflection", 1.7, 4, 1, 0): "0x0.0p+0",
    ("refalt", 1.7, 4, 1, 0): "0x1.0000000000000p-48",
    ("reflection", 1.7, 4, 1, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 4, 1, 1): "0x1.0000000000000p-46",
    ("reflection", 1.7, 4, 2, 0): "0x0.0p+0",
    ("refalt", 1.7, 4, 2, 0): "0x1.0000000000000p-49",
    ("reflection", 1.7, 4, 2, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 4, 2, 1): "0x1.c000000000000p-47",
    ("reflection", 1.7, 5, 1, 0): "0x0.0p+0",
    ("refalt", 1.7, 5, 1, 0): "0x1.8000000000000p-46",
    ("reflection", 1.7, 5, 1, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 5, 1, 1): "0x1.0000000000000p-44",
    ("reflection", 1.7, 5, 2, 0): "0x0.0p+0",
    ("refalt", 1.7, 5, 2, 0): "0x1.0000000000000p-47",
    ("reflection", 1.7, 5, 2, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 5, 2, 1): "0x1.0000000000000p-45",
    ("reflection", 1.7, 6, 1, 0): "0x0.0p+0",
    ("refalt", 1.7, 6, 1, 0): "0x1.8000000000000p-44",
    ("reflection", 1.7, 6, 1, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 6, 1, 1): "0x1.0000000000000p-42",
    ("reflection", 1.7, 6, 2, 0): "0x0.0p+0",
    ("refalt", 1.7, 6, 2, 0): "0x1.8000000000000p-46",
    ("reflection", 1.7, 6, 2, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 6, 2, 1): "0x1.0000000000000p-43",
    ("reflection", 1.7, 6, 3, 0): "0x0.0p+0",
    ("refalt", 1.7, 6, 3, 0): "0x1.4000000000000p-47",
    ("reflection", 1.7, 6, 3, 1): "0x1.0000000000000p-50",
    ("refalt", 1.7, 6, 3, 1): "0x1.0000000000000p-45",
}


def _r_side_residuals():
    got = {}
    for q, n in itertools.product((0.3, 1.7), range(2, 7)):
        for l, sigma in itertools.product(range(1, n // 2 + 1), (0, 1)):
            js, jt = j_sigma(n, l, sigma, q), j_tilde_sigma(n, l, sigma, q)
            got[("reflection", q, n, l, sigma)] = float.hex(reflection_check(js, n, q).residual)
            got[("refalt", q, n, l, sigma)] = float.hex(refalt_check(jt, js, n, q).residual)
    return got


def test_cached_r_side_keeps_every_residual_bit():
    # once with the factors built afresh, once served from the cache
    qgrass._r_side.cache_clear()
    assert _r_side_residuals() == R_SIDE_RESIDUALS
    assert _r_side_residuals() == R_SIDE_RESIDUALS

# float.hex of the residuals at an exact q with a float J (the float entries
# of the exact J-matrices): such a check is a float check, and its exact
# R-side factors must meet the float J entries unscaled.  Recorded while every
# exact check still scaled its factors on each call.  q = 1/2 is left out, as
# every residual there is 0.0.  Keys: (check, q, n, l, sigma).
FLOAT_J_RESIDUALS = {
    ("reflection", F(1, 3), 2, 1, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 2, 1, 0): "0x0.0p+0",
    ("reflection", F(1, 3), 2, 1, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 2, 1, 1): "0x0.0p+0",
    ("reflection", F(1, 3), 3, 1, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 3, 1, 0): "0x1.0000000000000p-51",
    ("reflection", F(1, 3), 3, 1, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 3, 1, 1): "0x1.0000000000000p-48",
    ("reflection", F(1, 3), 4, 1, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 4, 1, 0): "0x1.0000000000000p-43",
    ("reflection", F(1, 3), 4, 1, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 4, 1, 1): "0x1.3000000000000p-47",
    ("reflection", F(1, 3), 4, 2, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 4, 2, 0): "0x1.0000000000000p-53",
    ("reflection", F(1, 3), 4, 2, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 4, 2, 1): "0x1.0000000000000p-50",
    ("reflection", F(1, 3), 5, 1, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 5, 1, 0): "0x1.c800000000000p-46",
    ("reflection", F(1, 3), 5, 1, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 5, 1, 1): "0x1.0980000000000p-42",
    ("reflection", F(1, 3), 5, 2, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 5, 2, 0): "0x1.d000000000000p-49",
    ("reflection", F(1, 3), 5, 2, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 5, 2, 1): "0x1.6000000000000p-45",
    ("reflection", F(1, 3), 6, 1, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 6, 1, 0): "0x1.0000000000000p-37",
    ("reflection", F(1, 3), 6, 1, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 6, 1, 1): "0x1.2f80000000000p-41",
    ("reflection", F(1, 3), 6, 2, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 6, 2, 0): "0x1.0000000000000p-40",
    ("reflection", F(1, 3), 6, 2, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 6, 2, 1): "0x1.61f0000000000p-44",
    ("reflection", F(1, 3), 6, 3, 0): "0x0.0p+0",
    ("refalt", F(1, 3), 6, 3, 0): "0x1.0000000000000p-53",
    ("reflection", F(1, 3), 6, 3, 1): "0x0.0p+0",
    ("refalt", F(1, 3), 6, 3, 1): "0x1.0000000000000p-46",
    ("reflection", F(-3, 5), 2, 1, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 2, 1, 0): "0x1.0000000000000p-52",
    ("reflection", F(-3, 5), 2, 1, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 2, 1, 1): "0x1.0000000000000p-54",
    ("reflection", F(-3, 5), 3, 1, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 3, 1, 0): "0x1.0000000000000p-52",
    ("reflection", F(-3, 5), 3, 1, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 3, 1, 1): "0x1.0000000000000p-51",
    ("reflection", F(-3, 5), 4, 1, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 4, 1, 0): "0x1.0000000000000p-49",
    ("reflection", F(-3, 5), 4, 1, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 4, 1, 1): "0x1.0000000000000p-50",
    ("reflection", F(-3, 5), 4, 2, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 4, 2, 0): "0x1.0000000000000p-50",
    ("reflection", F(-3, 5), 4, 2, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 4, 2, 1): "0x1.0000000000000p-51",
    ("reflection", F(-3, 5), 5, 1, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 5, 1, 0): "0x1.8000000000000p-47",
    ("reflection", F(-3, 5), 5, 1, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 5, 1, 1): "0x1.2000000000000p-49",
    ("reflection", F(-3, 5), 5, 2, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 5, 2, 0): "0x1.0000000000000p-49",
    ("reflection", F(-3, 5), 5, 2, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 5, 2, 1): "0x1.4000000000000p-48",
    ("reflection", F(-3, 5), 6, 1, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 6, 1, 0): "0x1.0000000000000p-48",
    ("reflection", F(-3, 5), 6, 1, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 6, 1, 1): "0x1.ac00000000000p-48",
    ("reflection", F(-3, 5), 6, 2, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 6, 2, 0): "0x1.8000000000000p-47",
    ("reflection", F(-3, 5), 6, 2, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 6, 2, 1): "0x1.8000000000000p-47",
    ("reflection", F(-3, 5), 6, 3, 0): "0x0.0p+0",
    ("refalt", F(-3, 5), 6, 3, 0): "0x1.0000000000000p-49",
    ("reflection", F(-3, 5), 6, 3, 1): "0x1.0000000000000p-54",
    ("refalt", F(-3, 5), 6, 3, 1): "0x1.0000000000000p-49",
}


def test_float_j_at_an_exact_q_keeps_every_residual_bit():
    got = {}
    for q, n in itertools.product((F(1, 3), F(-3, 5)), range(2, 7)):
        for l, sigma in itertools.product(range(1, n // 2 + 1), (0, 1)):
            js, jt = (
                [{j: float(x) for j, x in row.items()} for row in m]
                for m in (j_sigma(n, l, sigma, q), j_tilde_sigma(n, l, sigma, q))
            )
            for name, report in (
                ("reflection", reflection_check(js, n, q)), ("refalt", refalt_check(jt, js, n, q))
            ):
                assert not report.exact and report.passed, (name, q, n, l, sigma)
                got[(name, q, n, l, sigma)] = float.hex(report.residual)
    assert got == FLOAT_J_RESIDUALS


def test_exact_verdicts_up_to_n6():
    for n in range(2, 7):
        for l, sigma in itertools.product(range(1, n // 2 + 1), (0, 1)):
            js, jt = j_sigma(n, l, sigma, Q), j_tilde_sigma(n, l, sigma, Q)
            for report in (reflection_check(js, n, Q), refalt_check(jt, js, n, Q)):
                assert report.passed and report.exact and report.residual is None, (n, l, sigma)


@pytest.mark.parametrize(
    "exact_q, float_q", [(F(1, 2), 0.5), (F(3, 4), 0.75)], ids=["1/2", "3/4"]
)
def test_r_side_cache_keeps_exact_and_float_keys_apart(exact_q, float_q):
    # exact_q == float_q and the two hash alike.  An untyped cache would serve
    # float calls exact factors (at 3/4, R^- = 4/3 then moves float bits) and
    # exact calls float factors, which cannot be scaled to integers
    assert qgrass._r_side.cache_info().maxsize is not None
    n = 4

    def reports(q):
        out = []
        for l, sigma in itertools.product(range(1, n // 2 + 1), (0, 1)):
            js, jt = j_sigma(n, l, sigma, q), j_tilde_sigma(n, l, sigma, q)
            out += [reflection_check(js, n, q), refalt_check(jt, js, n, q)]
        return out

    qgrass._r_side.cache_clear()
    fresh = reports(float_q)
    assert all(r.exact and r.passed and r.residual is None for r in reports(exact_q))
    qgrass._r_side.cache_clear()
    assert all(r.exact and r.passed and r.residual is None for r in reports(exact_q))
    for report, alone in zip(reports(float_q), fresh):
        assert not report.exact and type(report.residual) is float, report.identity
        assert float.hex(report.residual) == float.hex(alone.residual), report.identity


@pytest.mark.parametrize("q", [Q, 0.3])
def test_public_r_matrices_stay_fresh(q):
    # the checks share their R-side factors; the public builders do not
    n = 3
    js, jt = j_sigma(n, 1, 1, q), j_tilde_sigma(n, 1, 1, q)

    def verdicts():
        return [(r.passed, r.exact, r.residual) for r in (
            reflection_check(js, n, q), refalt_check(jt, js, n, q))]

    before = verdicts()
    for build in (r_matrix, r_minus, r_plus, r21_minus):
        m, again = build(n, q), build(n, q)
        assert m == again and m is not again and m[0] is not again[0]
        m[0][0] = 7
        m[1].clear()
        assert verdicts() == before, build.__name__


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_trivial_multiplicity_is_the_tableau_count(n):
    # the degree-zero shortcut against the full count, on the n <= 7,
    # bound-2 sweep of the benchmark
    for l in range(1, n // 2 + 1):
        for lam in itertools.combinations_with_replacement(range(2, -3, -1), n):
            outer, m = qgrass._shift_dominant(lam, n)
            inner = (m,) * (n - l) + (0,) * l
            expected = qgrass._lr_contents(outer, inner, l, m)[(m,) * l]
            assert qgrass._trivial_multiplicity(outer, m, l) == expected, (lam, l)


@pytest.mark.parametrize(
    "lam, wrong",
    [((1, 0, 0, 0, -1), 2), ((2, 0, 0, -1, -1), 1)],
    ids=["two-on-spherical", "one-off-spherical"],
)
def test_gelfand_fails_on_a_wrong_multiplicity(monkeypatch, lam, wrong):
    shape = GrassmannShape(5, 2)
    spherical = is_spherical(WeightVector(lam, "A"), shape)
    assert sum(lam) == 0 and spherical == (wrong == 2)
    real = qgrass._trivial_multiplicity

    def mutated(outer, m, l):
        return wrong if tuple(e - m for e in outer) == lam else real(outer, m, l)

    monkeypatch.setattr(qgrass, "_trivial_multiplicity", mutated)
    report = gelfand_check(shape, 2)
    assert not report.passed
    assert report.detail["failures"] == [{"lambda": list(lam), "multiplicity": wrong}]


# detail["checked"] of gelfand_check for (n, bound), every l, recorded while
# the sweep still counted tableaux at every weight; no failures anywhere
GELFAND_CHECKED = {
    (2, 0): 1, (2, 1): 6, (2, 2): 15, (2, 3): 28,
    (3, 0): 1, (3, 1): 10, (3, 2): 35, (3, 3): 84,
    (4, 0): 1, (4, 1): 15, (4, 2): 70, (4, 3): 210,
    (5, 0): 1, (5, 1): 21, (5, 2): 126, (5, 3): 462,
    (6, 0): 1, (6, 1): 28, (6, 2): 210, (6, 3): 924,
    (7, 0): 1, (7, 1): 36, (7, 2): 330, (7, 3): 1716,
}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_gelfand_sweep_matches_its_record(n):
    for l, bound in itertools.product(range(1, n // 2 + 1), range(4)):
        report = gelfand_check(GrassmannShape(n, l), bound)
        assert report.passed and report.exact, (l, bound)
        assert report.detail == {"checked": GELFAND_CHECKED[(n, bound)], "failures": []}

"""Tests for multivariable big and little q-Jacobi polynomials.

The library builds every inner product from exact one-variable moments; the
l-fold Jackson sums it replaced live here as oracles: ``_gram_sums`` sums one
S_l chamber of the product grid, streamed over the first coordinate, and
``_gram_sums_node_by_node`` sums the full grid one point at a time.
"""

import math
from fractions import Fraction as F
from functools import lru_cache
from itertools import chain, product, repeat
from operator import mul

import pytest

from bcq.polyring import (
    LaurentPoly,
    chamber_values,
    expand_in_basis,
    monomial_symmetric,
    orbit_sum_W,
    require_invariant,
)
from bcq.qseries import NonConvergenceError, _qpoch_finite, _qpoch_row, jackson_nodes, qpochhammer
from bcq.qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    SumTruncation,
    DEFAULT_TRUNCATION,
    big_inner,
    big_jacobi_poly,
    closed_form_little_constant,
    little_inner,
    little_jacobi_poly,
    norm_big,
    norm_little,
    normalization_check,
)

LITTLE = LittleJacobiParams(0.5, 1 / 3, 0.25, 1)
BIG = BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25, 1)


def test_little_domain_validation():
    LittleJacobiParams(0.5, 1 / 3, 0.25, 1)
    LittleJacobiParams(1.5, -4.0, 0.5, 1)  # a < 1/q, b may be negative
    with pytest.raises(ValueError):
        LittleJacobiParams(5.0, 0.5, 0.25, 1)  # a >= 1/q
    with pytest.raises(ValueError):
        LittleJacobiParams(-0.5, 0.5, 0.25, 1)  # a <= 0
    # a non-integer k would fail later, in _qpoch_finite, with a TypeError
    with pytest.raises(ValueError, match="k must be a positive integer"):
        LittleJacobiParams(0.5, 0.3, 0.25, 2.5)


def test_big_domain_validation():
    BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25, 1)
    with pytest.raises(ValueError):
        BigJacobiParams(5.0, 0.04, 1.0, 4.0, 0.25, 1)  # a >= 1/q
    # complex conjugate pair a = cz, b = -d conj(z) is admitted
    z = 0.1 + 0.2j
    BigJacobiParams(1.0 * z, -4.0 * z.conjugate(), 1.0, 4.0, 0.25, 1)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25, 2.5)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.05, 0.04, 0.0, 4.0, 0.25), "c and d must be positive"),
        ((0.05, 0.04, 1.0, -4.0, 0.25), "c and d must be positive"),
        ((0.1 + 0j, -0.4 + 0j, 1.0, 4.0, 0.25), "z not real"),
        ((0.1 + 0.2j, 0.4 + 0.8j, 1.0, 4.0, 0.25), r"b = -d conj\(z\)"),
        ((0.05, 5.0, 1.0, 4.0, 0.25), r"b outside \(-d/cq, 1/q\)"),  # b >= 1/q
        ((0.05, -20.0, 1.0, 4.0, 0.25), r"b outside \(-d/cq, 1/q\)"),  # b <= -d/cq
    ],
)
def test_big_domain_messages(args, message):
    with pytest.raises(ValueError, match=message):
        BigJacobiParams(*args)


def test_little_b_at_least_one_over_q_rejected():
    with pytest.raises(ValueError, match=r"b outside \(-inf,1/q\)"):
        LittleJacobiParams(0.5, 4.0, 0.25, 1)


def test_normalization_closed_forms():
    for l in (1, 2):
        for k in (1, 2):
            rl = normalization_check(LittleJacobiParams(0.5, 1 / 3, 0.25, k), l)
            rb = normalization_check(
                BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25, k), l
            )
            assert rl.passed and rl.residual < 1e-10
            assert rb.passed and rb.residual < 1e-10


@pytest.mark.parametrize("params", [
    LittleJacobiParams(0.5, -1 / 3, 0.25, 1),
    BigJacobiParams(-0.05, 0.04, 1.0, 4.0, 0.25, 1),
    BigJacobiParams(-0.05, -0.04, 1.0, 4.0, 0.25, 1),
    BigJacobiParams(0.3 + 0.2j, -4 * (0.3 - 0.2j), 1.0, 4.0, 0.25, 1),
])
def test_normalization_past_positive_a_and_b(params):
    # the constants are products in a and b, with no a = q^alpha, b = q^beta:
    # they exist at a, b <= 0 and on the complex branch a = cz, b = -d conj(z)
    for l in (1, 2):
        report = normalization_check(params, l)
        assert report.passed and report.residual < 1e-14, l


def little_weight_1d(x, params: LittleJacobiParams):
    """w_L(x) = ((qx;q)_inf / (qbx;q)_inf) x^alpha, a = q^alpha."""
    q = float(params.q)
    alpha = math.log(float(params.a)) / math.log(q)
    num = qpochhammer(q * x, q, math.inf)
    den = qpochhammer(q * float(params.b) * x, q, math.inf)
    return num / den * x**alpha


def test_one_variable_gram_schmidt_oracle():
    # independent construction: monomial moments of the one-variable weight,
    # then a classical normal-equations solve for the monic degree-2 poly
    q, n_max = 0.25, 120
    nodes = [q**j for j in range(n_max)]
    weights = [little_weight_1d(x, LITTLE) * (1 - q) * x for x in nodes]
    moment = lambda m: sum(w * x**m for x, w in zip(nodes, weights))
    # monic x^2 + c1 x + c0 orthogonal to 1 and x
    m = [moment(i) for i in range(5)]
    det = m[0] * m[2] - m[1] * m[1]
    c1 = -(m[0] * m[3] - m[1] * m[2]) / det
    c0 = -(m[2] * m[2] - m[1] * m[3]) / det
    poly = little_jacobi_poly((2,), LITTLE, 1)
    assert abs(complex(poly.terms.get((2,), 0)) - 1) < 1e-12
    assert abs(complex(poly.terms.get((1,), 0)) - c1) < 1e-9
    assert abs(complex(poly.terms.get((0,), 0)) - c0) < 1e-9


def test_orthogonality_two_variables():
    lams = ((0, 0), (1, 0), (1, 1), (2, 0))
    for family, inner, make in (
        ("little", little_inner, lambda lam: little_jacobi_poly(lam, LITTLE, 2)),
        ("big", big_inner, lambda lam: big_jacobi_poly(lam, BIG, 2)),
    ):
        params = LITTLE if family == "little" else BIG
        polys = {lam: make(lam) for lam in lams}
        norms = {lam: inner(p, p, params) for lam, p in polys.items()}
        for i, lam in enumerate(lams):
            for mu in lams[i + 1 :]:
                ip = inner(polys[lam], polys[mu], params)
                assert abs(ip) / (norms[lam] * norms[mu]) ** 0.5 < 1e-9


def test_monic_symmetric_triangular():
    for poly, lam in (
        (little_jacobi_poly((2, 1), LITTLE, 2), (2, 1)),
        (big_jacobi_poly((1, 1), BIG, 2), (1, 1)),
    ):
        coeffs = expand_in_basis(poly, "S")
        assert abs(complex(coeffs[lam]) - 1) < 1e-12
        assert all(sum(mu) <= sum(lam) for mu in coeffs)


@pytest.mark.parametrize(
    "build, lam, params, l",
    [
        (little_jacobi_poly, (2, 1), LITTLE, 3),
        (big_jacobi_poly, (1,), BIG, 2),
        # (0,) has no lower weight: no Gram matrix is formed
        (little_jacobi_poly, (0,), LITTLE, 2),
    ],
)
def test_variable_count_must_be_the_weight_length(build, lam, params, l):
    with pytest.raises(ValueError, match="weight length mismatch"):
        build(lam, params, l)
    assert build(lam, params, len(lam)) == build(lam, params)


def test_norms_positive():
    assert norm_little((1,), LITTLE) > 0
    assert norm_big((2,), BIG) > 0
    assert norm_little((0,), LITTLE) == pytest.approx(1.0)


def test_truncation_effective_n():
    trunc = SumTruncation(n_max=50, tail_tol=1e-12)
    # enough terms for the tail bound, capped at n_max
    assert trunc.effective_n(0.25) == 20
    assert trunc.effective_n(0.9) == 50


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n_max": 0}, "n_max"),
        ({"n_max": -1}, "n_max"),
        ({"tail_tol": 0}, "tail_tol"),
        ({"tail_tol": -1e-14}, "tail_tol"),
        ({"tail_tol": 1.0}, "tail_tol"),
        ({"tail_tol": 2.0}, "tail_tol"),
    ],
)
def test_truncation_rejects_bad_settings(kwargs, field):
    # tail_tol = 2.0 summed two nodes per axis without a word; 0 and
    # n_max = -1 failed later with a bare math or unpacking error
    with pytest.raises(ValueError, match=field):
        SumTruncation(**kwargs)


def test_big_inner_is_the_one_variable_jackson_sum():
    # at l = 1, <1,1>_B is the one-variable Jackson integral over [-d, c]
    n = DEFAULT_TRUNCATION.effective_n(BIG.q)
    one = LaurentPoly.const(1, 1)
    measured = big_inner(one, one, BIG)
    upper = sum(big_weight_1d(x, BIG) * m for x, m in jackson_nodes(BIG.c, n, BIG.q))
    lower = sum(big_weight_1d(x, BIG) * m for x, m in jackson_nodes(-BIG.d, n, BIG.q))
    expected = upper - lower
    assert abs(measured - expected) <= 1e-14 * abs(expected)


# -- the l-fold Jackson sums, as oracles ----------------------------------------

def big_weight_1d(x, params: BigJacobiParams):
    """w_B(x) = (qx/c, -qx/d; q)_inf / (qax/c, -qbx/d; q)_inf."""
    q, a, b, c, d = float(params.q), params.a, params.b, float(params.c), float(params.d)
    n1, n2, d1, d2 = _qpoch_row([q * x / c, -q * x / d, q * a * x / c, -q * b * x / d], q)
    return n1 * n2 / (d1 * d2)


@lru_cache(maxsize=32)
def _grid_1d(params, trunc: SumTruncation):
    """The 1-D Jackson nodes of one coordinate and their masses mass*w_1d,
    up to n = ``trunc.effective_n(q)``.  Little: the nodes of [0,1], x = q^j
    with x^alpha = a^j.  Big: the nodes of [0,c] and of [0,-d], the latter
    with masses negated, since int_{-d}^c = int_0^c - int_0^{-d}."""
    q = float(params.q)
    n = trunc.effective_n(q)
    if isinstance(params, LittleJacobiParams):
        a, b = float(params.a), float(params.b)
        nodes = jackson_nodes(1, n, q)
        num, den = (_qpoch_row([r * x for x, _ in nodes], q) for r in (q, q * b))
        points = [(x, m * (u / v * a**j)) for j, ((x, m), u, v) in enumerate(zip(nodes, num, den))]
    else:
        c, d = float(params.c), float(params.d)
        points = [(x, m * big_weight_1d(x, params)) for x, m in jackson_nodes(c, n, q)]
        points += [(x, -m * big_weight_1d(x, params)) for x, m in jackson_nodes(-d, n, q)]
    return tuple(zip(*points))


@lru_cache(maxsize=32)
def _pair_table(params, trunc: SumTruncation):
    """pair[i][j] = (x - y) x^{2k-1} (q^{1-k} y/x; q)_{2k-1} at x = nodes[i], y = nodes[j]."""
    q, k = float(params.q), params.k
    nodes = _grid_1d(params, trunc)[0]
    return [
        [(x - y) * (x ** (2 * k - 1) * _qpoch_finite(q ** (1 - k) * (y / x), q, 2 * k - 1))
         for y in nodes]
        for x in nodes
    ]


def _chamber_weight_rows(u, pair, dim: int, lo: int = 0):
    """prod_i u[s_i - lo] prod_{i<j} pair[s_i][s_j] over the chamber
    lo <= s_1 < ... < s_dim < lo + len(u), one row per s_1."""
    for s, (us, row) in enumerate(zip(u, pair[lo:]), lo):
        v = list(map(mul, u[s - lo + 1 :], row[s + 1 :]))
        if dim > 2:
            v = list(chain.from_iterable(_chamber_weight_rows(v, pair, dim - 1, s + 1)))
        yield list(map(mul, repeat(us), v))


def _chamber_rows(params, trunc: SumTruncation, l: int, power):
    """Per s_1: the pinned node, the powers over the nodes after it, and the
    chamber weights, in the order of ``chamber_values``."""
    nodes, masses = _grid_1d(params, trunc)
    for s, weights in enumerate(_chamber_weight_rows(masses, _pair_table(params, trunc), l)):
        if not weights:
            return
        tail = lru_cache(maxsize=None)(lambda e, s=s: power(e)[s + 1 :])
        yield (nodes[s],), tail, weights


def _gram_sums(polys, params, l: int, trunc: SumTruncation, pairs=None):
    """<polys[i], polys[j]> of S_l-symmetric polynomials for the (i, j) of
    ``pairs`` (default every one), 0.0 elsewhere: l! times the chamber sum,
    streamed over s_1; at l = 1 one row over all nodes."""
    for p in polys:
        require_invariant(p, "S")
    nodes, masses = _grid_1d(params, trunc)
    power = lru_cache(maxsize=None)(lambda e: [x**e for x in nodes])
    rows = [((), power, masses)] if l == 1 else _chamber_rows(params, trunc, l, power)
    n = len(polys)
    pairs = [(i, j) for i in range(n) for j in range(i, n)] if pairs is None else pairs
    sums = [[0.0] * n for _ in range(n)]
    for fixed, tail, weights in rows:
        vals = [chamber_values(p, tail, fixed, l - len(fixed)) for p in polys]
        conj = {j: list(map(complex.conjugate, vals[j])) for j in {j for _, j in pairs}}
        for i, j in pairs:
            sums[i][j] += sum(map(mul, map(mul, vals[i], conj[j]), weights)).real
    for i, j in pairs:
        sums[i][j] *= math.factorial(l)
        sums[j][i] = sums[i][j]
    return sums


def _gram_sums_node_by_node(polys, params, l, trunc):
    # the l-fold Jackson sums one grid point at a time: product of the 1-D
    # masses, Vandermonde times x_i^{2k-1} (q^{1-k} x_j/x_i; q)_{2k-1}, and
    # LaurentPoly.evaluate at the point
    nodes, masses = _grid_1d(params, trunc)
    q, k = float(params.q), params.k
    n = len(polys)
    sums = [[0.0] * n for _ in range(n)]
    for combo in product(range(len(nodes)), repeat=l):
        xs = [nodes[s] for s in combo]
        w = 1.0
        for s in combo:
            w *= masses[s]
        for i in range(l):
            for j in range(i + 1, l):
                term = q ** (1 - k) * (xs[j] / xs[i])
                poch = 1.0
                for _ in range(2 * k - 1):
                    poch *= 1 - term
                    term *= q
                w *= (xs[i] - xs[j]) * xs[i] ** (2 * k - 1) * poch
        vals = [complex(p.evaluate(xs)) for p in polys]
        for i in range(n):
            for j in range(i, n):
                sums[i][j] += (vals[i] * vals[j].conjugate() * w).real
    for i in range(n):
        for j in range(i):
            sums[i][j] = sums[j][i]
    return sums


_Z = 0.1 + 0.2j


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "params",
    [
        LittleJacobiParams(0.5, 1 / 3, 0.25),
        BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25),
        BigJacobiParams(1.0 * _Z, -4.0 * _Z.conjugate(), 1.0, 4.0, 0.25),
    ],
    ids=["little", "big", "big-complex"],
)
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_gram_sums_match_node_by_node(l, params, k):
    params = type(params)(**{**vars(params), "k": k})
    # a short grid keeps the l >= 3 oracle small; the chamber sum is the
    # same, and at l = 4 each chamber point stands for 24 grid points.  At
    # k = 2 the weight vanishes where two nodes of one sign are neighbours,
    # so the little grid at l = 4 needs 7 nodes (n_max = 6) to carry any.
    little = isinstance(params, LittleJacobiParams)
    trunc = {3: SumTruncation(n_max=6), 4: SumTruncation(n_max=6 if little else 4)}.get(
        l, DEFAULT_TRUNCATION
    )
    lams = [(0,) * l, (1,) + (0,) * (l - 1), (1,) * l, (2,) + (0,) * (l - 1), (3,) + (1,) * (l - 1)]
    polys = [monomial_symmetric(lam, l) for lam in lams]
    # complex coefficients on two different S_l orbits
    polys.append(
        monomial_symmetric((2,) + (0,) * (l - 1), l) * (1.5 - 0.5j)
        + monomial_symmetric((1,) * l, l) * 0.25j
    )
    got = _gram_sums(polys, params, l, trunc)
    want = _gram_sums_node_by_node(polys, params, l, trunc)
    assert want[0][0] > 0
    if l == 1:
        assert got == want
        return
    for i, row in enumerate(want):
        for j, w in enumerate(row):
            assert abs(got[i][j] - w) <= 1e-13 * (want[i][i] * want[j][j]) ** 0.5


@pytest.mark.parametrize("l", [1, 2, 3])
def test_gram_sums_of_some_pairs_keep_their_bits(l):
    # each pair is its own sum: asked for alone or with others, it keeps the
    # bits of the full matrix; the pairs not asked for read 0.0
    params, trunc = LittleJacobiParams(0.5, 1 / 3, 0.25, 2), SumTruncation(n_max=8)
    lams = [(0,) * l, (1,) + (0,) * (l - 1), (2,) + (1,) * (l - 1)]
    polys = [monomial_symmetric(lam, l) * c for lam, c in zip(lams, (1, 0.5 - 1j, 2))]
    full = _gram_sums(polys, params, l, trunc)
    for pairs in ([(0, 1)], [(0, 0), (2, 2)], [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]):
        got = _gram_sums(polys, params, l, trunc, pairs)
        asked = set(pairs) | {(j, i) for i, j in pairs}
        for i in range(3):
            for j in range(3):
                want = full[i][j] if (i, j) in asked else 0.0
                assert got[i][j].hex() == want.hex()


def test_little_inner_arity_mismatch_raises():
    # read 0.0 before the arity check
    with pytest.raises(ValueError, match="arity mismatch"):
        little_inner(LaurentPoly.const(2, 1), LaurentPoly.const(3, 1), LITTLE)


def test_big_inner_arity_mismatch_raises():
    # died with an IndexError inside grid_values before the arity check
    with pytest.raises(ValueError, match="arity mismatch"):
        big_inner(LaurentPoly.const(2, 1), LaurentPoly.const(1, 1), BIG)


@pytest.mark.parametrize(
    "poly",
    [
        LaurentPoly(2, {(1, 0): 1}),
        # one S_2 orbit with unequal coefficients
        LaurentPoly(2, {(1, 0): 1, (0, 1): 2}),
        # three of the six permutations of (2, 1, 0)
        LaurentPoly(3, {(2, 1, 0): 1, (1, 2, 0): 1, (0, 1, 2): 1}),
        # W-invariant Laurent polynomials, but not polynomials
        orbit_sum_W((1, 0), 2),
        LaurentPoly(1, {(1,): 1, (-1,): 1}),
    ],
    ids=["x1", "unequal-orbit", "incomplete-orbit", "negative-l2", "negative-l1"],
)
def test_non_symmetric_input_rejected(poly):
    # the moment functional sums over the dominant exponents alone, right
    # only for symmetric polynomials, and has no moment of a negative power;
    # with a negative exponent "W" accepts what "S" rejects
    if any(min(e) < 0 for e in poly.terms):
        require_invariant(poly, "W")
    one = LaurentPoly.const(poly.nvars, 1)
    for inner, params in ((little_inner, LITTLE), (big_inner, BIG)):
        with pytest.raises(ValueError):
            inner(poly, one, params)
        with pytest.raises(ValueError):
            inner(one, poly, params)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "params",
    [
        LittleJacobiParams(0.5, 1 / 3, 0.25),
        BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25),
        BigJacobiParams(1.0 * _Z, -4.0 * _Z.conjugate(), 1.0, 4.0, 0.25),
    ],
    ids=["little", "big", "big-complex"],
)
@pytest.mark.parametrize("l", [1, 2, 3])
def test_inner_products_match_the_l_fold_jackson_sum(l, params, k):
    # the moment functional against the l-fold chamber sum over nodes up to
    # q^n <= tail_tol: each axis drops a tail of about tail_tol q / (1 - q),
    # so l axes and the float sums' rounding bound the gap
    params = type(params)(**{**vars(params), "k": k})
    inner = little_inner if isinstance(params, LittleJacobiParams) else big_inner
    lams = [(0,) * l, (1,) + (0,) * (l - 1), (1,) * l, (2,) + (0,) * (l - 1), (3,) + (1,) * (l - 1)]
    polys = [monomial_symmetric(lam, l) for lam in lams]
    polys.append(
        monomial_symmetric((2,) + (0,) * (l - 1), l) * (1.5 - 0.5j)
        + monomial_symmetric((1,) * l, l) * 0.25j
    )
    want = _gram_sums(polys, params, l, DEFAULT_TRUNCATION)
    tol = l * DEFAULT_TRUNCATION.tail_tol + 1e-14
    for i, p in enumerate(polys):
        for j, r in enumerate(polys):
            scale = (want[i][i] * want[j][j]) ** 0.5
            assert abs(inner(p, r, params) - want[i][j]) <= tol * scale, (i, j)


F1 = LittleJacobiParams(3.5, 0.5, 0.25, 1)


def test_mu0_sum_takes_its_length_from_the_term_ratio():
    # F1: the terms of mu_0 fall by a q = 0.875, not by q = 0.25; the q^n
    # cutoff stopped after 25 terms, 3.65% short of the closed form
    report = normalization_check(F1, 1)
    assert report.passed and report.residual < 1e-14
    assert report.detail["target"] == closed_form_little_constant(F1, 1)
    # the same sum past a cap of 200 terms raises instead of truncating
    with pytest.raises(NonConvergenceError, match="more than 200 Jackson terms"):
        normalization_check(F1, 1, SumTruncation(n_max=200))

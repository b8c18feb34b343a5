"""Exact oracles of the big and little q-Jacobi builds.

* The closed quadratic norms N^L and N^B (the q-Jacobi limits of the
  Koornwinder norm formula; van Diejen 1996, Sahi 1999), written here on
  ``qseries.qproduct``: with t = q^k, S = qab and e_i = t^{l-i},

    N^L = prod_i (aq e_i^2)^{lam_i} q^{lam_i(lam_i-1)}
          (S e_i, q e_i, qa e_i, qb e_i; q)_{lam_i} / (S e_i^2, qS e_i^2; q)_{2 lam_i} * pairs
    N^B = prod_i (cd e_i)^{lam_i} q^{lam_i(lam_i-1)/2} (S e_i, q e_i, qa e_i, qb e_i,
          -qbc e_i/d, -qad e_i/c; q)_{lam_i} / (S e_i^2, qS e_i^2; q)_{2 lam_i} * pairs

  with pairs = prod_{i<j} prod_{(c,m)} (tc, qc/t; q)_m / (c, qc; q)_m over
  (c, m) = (S e_i e_j, lam_i + lam_j) and (e_i/e_j, lam_i - lam_j).
* At k = 1 the weight is Delta(x)^2 prod_i w(x_i), so by Andreief's identity
  P_lambda(x) Delta(x) = det[p_{lam_j+l-j}(x_i)] with p_m the monic
  one-variable polynomial, and N_lambda = prod_i h_{lam_i+l-i} / h_{l-i}.
  The p_m are the closed forms 2phi1 (little) and 3phi2 (big) of
  Koekoek, Lesky & Swarttouw, sections 14.12 and 14.5.
* The float builds, which run exactly at the floats' binary values and
  round once, against the exact builds at the rational parameters.
"""

from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from bcq.limits import grassmann_big_params, grassmann_little_params
from bcq.polyring import LaurentPoly, gram_schmidt
from bcq.qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    big_jacobi_poly,
    little_jacobi_poly,
    norm_big,
    norm_little,
)
from bcq.qseries import qpochhammer, qproduct
from bcq.weights import GrassmannShape

LITTLE_SETS = [(F(1, 2), F(1, 3), F(1, 4)), (F(4, 3), F(-13, 2), F(1, 2)), (F(1), F(-4), F(1, 2))]
GRASSMANN_BIG = grassmann_big_params(GrassmannShape(5, 2), 1, F(1, 2))
BIG_SETS = [
    (F(1, 2), F(1, 3), F(1), F(4), F(1, 4)),
    (F(1, 20), F(1, 25), F(1), F(4), F(1, 4)),
    (F(-1, 3), F(2, 5), F(3, 2), F(1, 2), F(1, 3)),
    tuple(vars(GRASSMANN_BIG).values())[:5],
]


def dominant(l: int, size: int) -> list:
    """Every dominant lambda of length l with |lambda| <= size."""
    out = [()]
    for _ in range(l):
        out = [mu + (e,) for mu in out for e in range(min(mu[-1:] + (size,)) + 1)]
    return [mu for mu in out if sum(mu) <= size]


def closed_norm(lam, params, mutate=False):
    """N^L or N^B of the module docstring, one ``qproduct`` call; ``mutate``
    replaces the pair factor (tc; q)_m by (c; q)_m."""
    q, a, b, l = params.q, params.a, params.b, len(lam)
    big = isinstance(params, BigJacobiParams)
    t, s = q**params.k, q * a * b
    e = [t ** (l - i) for i in range(1, l + 1)]
    scale, num, den = F(1), [], []

    def poch(c, m, upper=True):  # (c; q)_m = (c; q)_inf / (c q^m; q)_inf
        (num if upper else den).append(c)
        (den if upper else num).append(c * q**m)

    for ei, m in zip(e, lam):
        if big:
            c, d = params.c, params.d
            scale *= (c * d * ei) ** m * q ** (m * (m - 1) // 2)
            uppers = [s * ei, q * ei, q * a * ei, q * b * ei,
                      -q * b * c * ei / d, -q * a * d * ei / c]
        else:
            scale *= (a * q * ei * ei) ** m * q ** (m * (m - 1))
            uppers = [s * ei, q * ei, q * a * ei, q * b * ei]
        for c in uppers:
            poch(c, m)
        poch(s * ei * ei, 2 * m, False)
        poch(q * s * ei * ei, 2 * m, False)
    for i, j in combinations(range(l), 2):
        for c, m in ((s * e[i] * e[j], lam[i] + lam[j]), (e[i] / e[j], lam[i] - lam[j])):
            poch(c if mutate else t * c, m)
            poch(q * c / t, m)
            poch(c, m, False)
            poch(q * c, m, False)
    return qproduct(scale, num, den, q)


NORM_CASES = [
    (cls, values, k, l)
    for cls, sets in ((LittleJacobiParams, LITTLE_SETS), (BigJacobiParams, BIG_SETS))
    for values in sets
    for k in (1, 2)
    for l in (1, 2, 3)
]


@pytest.mark.parametrize("cls, values, k, l", NORM_CASES)
def test_norms_equal_the_closed_forms_exactly(cls, values, k, l):
    params = cls(*values, k)
    norm = norm_little if cls is LittleJacobiParams else norm_big
    for lam in dominant(l, 4):
        got, want = norm(lam, params), closed_norm(lam, params)
        assert isinstance(got, F) and isinstance(want, F), lam
        assert got == want, lam


@pytest.mark.parametrize("cls, values", [(LittleJacobiParams, LITTLE_SETS[0]),
                                         (BigJacobiParams, BIG_SETS[2])])
def test_closed_norm_mutation_is_caught(cls, values):
    # (tc; q)_m replaced by (c; q)_m in the pair factor: every lambda != 0
    # at l >= 2 then differs from the build
    params = cls(*values, 1)
    norm = norm_little if cls is LittleJacobiParams else norm_big
    for lam in dominant(2, 4)[1:] + dominant(3, 3)[1:]:
        assert norm(lam, params) != closed_norm(lam, params, mutate=True), lam


def one_variable(m: int, params) -> dict:
    """The monic p_m as {power: coefficient}: little
    2phi1(q^-m, abq^{m+1}; aq; q; qx); big 3phi2(q^-m, abq^{m+1}, aqx/c;
    aq, -adq/c; q; q), whose weight on [-adq/c, aq] in aqx/c is that of
    [-d, c] in x."""
    q, a, b = params.q, params.a, params.b
    coeffs = {}
    for j in range(m + 1):
        w = qpochhammer(q**-m, q, j) * qpochhammer(a * b * q ** (m + 1), q, j)
        w *= q**j / (qpochhammer(a * q, q, j) * qpochhammer(q, q, j))
        factor = {j: 1}  # x^j (little); (aqx/c; q)_j expanded (big)
        if isinstance(params, BigJacobiParams):
            w /= qpochhammer(-a * params.d * q / params.c, q, j)
            factor = {0: 1}
            for i in range(j):
                shifted = {p + 1: -v * q**i * a * q / params.c for p, v in factor.items()}
                factor = {p: factor.get(p, 0) + shifted.get(p, 0) for p in factor | shifted}
        for p, v in factor.items():
            coeffs[p] = coeffs.get(p, 0) + w * v
    return {p: v / coeffs[m] for p, v in coeffs.items()}


def det(rows) -> F:
    """Leibniz determinant of a small exact matrix."""
    total = F(0)
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = F(sign)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def evaluate(p: dict, x) -> F:
    return sum(v * x**e for e, v in p.items())


LAMBDAS = {2: [(1, 0), (1, 1), (2, 0), (2, 1), (3, 1)],
           3: [(1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, 1), (3, 1, 1)]}
POINTS = [(F(1, 3), F(-2, 5), F(3, 7)), (F(5, 6), F(1, 9), F(-7, 4)),
          (F(2, 11), F(9, 13), F(-1, 2))]
DET_CASES = [
    *[(grassmann_little_params(GrassmannShape(n, l), q), l)
      for n, l in ((5, 2), (6, 2), (7, 3)) for q in (F(1, 2), F(1, 3))],
    *[(LittleJacobiParams(F(1, 2), F(-2, 3), F(1, 4)), l) for l in (2, 3)],
    *[(BigJacobiParams(F(1, 2), F(1, 3), F(1), F(4), F(1, 4)), l) for l in (2, 3)],
    (GRASSMANN_BIG, 2),
]


def _determinant_sides(params, lam, shift=0):
    """P_lambda(x) Delta(x) and det[p_{lam_j+l-j}(x_i)] at each point, the
    last column's index raised by ``shift``."""
    l = len(lam)
    build = little_jacobi_poly if isinstance(params, LittleJacobiParams) else big_jacobi_poly
    poly = build(lam, params)
    cols = [one_variable(lam[j] + l - 1 - j + shift * (j == l - 1), params) for j in range(l)]
    for point in POINTS:
        x = point[:l]
        delta = 1
        for i, j in combinations(range(l), 2):
            delta *= x[i] - x[j]
        yield poly.evaluate(x) * delta, det([[evaluate(p, xi) for p in cols] for xi in x])


@pytest.mark.parametrize("params, l", DET_CASES)
def test_k1_polynomials_are_determinants_of_one_variable_ones(params, l):
    for lam in LAMBDAS[l]:
        for left, right in _determinant_sides(params, lam):
            assert isinstance(left, F) and left == right, lam


@pytest.mark.parametrize("params, l", DET_CASES[:1] + DET_CASES[-2:])
def test_determinant_mutation_is_caught(params, l):
    # the last column's index lam_l + 0 raised to lam_l + 1
    for lam in LAMBDAS[l]:
        assert any(left != right for left, right in _determinant_sides(params, lam, shift=1)), lam


@pytest.mark.parametrize("params, l", DET_CASES)
def test_k1_norm_is_a_product_of_one_variable_norms(params, l):
    norm = norm_little if isinstance(params, LittleJacobiParams) else norm_big
    for lam in LAMBDAS[l]:
        want = F(1)
        for i, m in enumerate(lam):
            want *= closed_norm((m + l - 1 - i,), params) / closed_norm((l - 1 - i,), params)
        assert norm(lam, params) == want, lam


# -- float builds against the exact ones at the rational parameters -----------

def coeff_error(got: LaurentPoly, want: LaurentPoly) -> float:
    """max |got_e - want_e| over exponents, relative to max |want_e|."""
    scale = max(abs(v) for v in want.terms.values())
    keys = got.terms | want.terms
    return float(max(abs(got.terms.get(e, 0) - want.terms.get(e, 0)) for e in keys) / scale)


def naive_little(lam, params: LittleJacobiParams) -> LaurentPoly:
    """P^L_lambda by ``gram_schmidt`` on L(P Q Pi), each product expanded
    term by term, with L(x^e) = prod_i nu_{e_i}, nu_m = (aq; q)_m / (abq^2; q)_m,
    and Pi = prod_{i<j} (x_i - x_j) prod_{m=1-k}^{k-1} (x_i - q^m x_j)."""
    q, a, b, k, l = params.q, params.a, params.b, params.k, len(lam)
    unit = [LaurentPoly(l, {tuple(int(r == i) for r in range(l)): 1}) for i in range(l)]
    pi = LaurentPoly.const(l, 1)
    for i, j in combinations(range(l), 2):
        for m in (0, *range(1 - k, k)):
            pi = pi * (unit[i] - unit[j].scale(q**m))
    nu = [F(qpochhammer(a * q, q, m)) / qpochhammer(a * b * q * q, q, m)
          for m in range(2 * lam[0] + 2 * k * l)]

    def functional(p):
        total = 0
        for e, c in p.terms.items():
            for m in e:
                c *= nu[m]
            total += c
        return total

    return gram_schmidt(lam, "S", lambda ps: [[functional(x * y * pi) for y in ps] for x in ps])


def _grassmann(n, l, q):
    return grassmann_little_params(GrassmannShape(n, l), q)


FLOAT_ROWS = [  # (float parameters, exact parameters, lambda); the float Gram-Schmidt
    # of the l-fold Jackson sums was off by the relative error in the comment
    *[(_grassmann(5, 2, float(q)), _grassmann(5, 2, q), lam)
      for q in (F(1, 2), F(1, 3)) for lam in ((2, 1), (3, 1))],  # 1.7e-10 .. 0.68
    *[(_grassmann(7, 3, float(q)), _grassmann(7, 3, q), lam)
      for q in (F(1, 2), F(1, 3)) for lam in ((2, 1, 0), (2, 1, 1))],  # 2.0e-7 .. 0.64
    *[(LittleJacobiParams(0.5, 1 / 3, 0.25, 2), LittleJacobiParams(F(1, 2), F(1, 3), F(1, 4), 2),
       lam) for lam in ((2, 2), (3, 1), (2, 1, 1))],  # 1.3e-7, 1.7e-2, 0.49
    (LittleJacobiParams(0.5, 0.3, 0.25), LittleJacobiParams(F(1, 2), F(3, 10), F(1, 4)),
     (3, 2, 1)),  # 0.66
]


@pytest.mark.parametrize("floats, exact, lam", FLOAT_ROWS)
def test_float_build_is_the_rounded_exact_build(floats, exact, lam):
    want = naive_little(lam, exact)
    got = little_jacobi_poly(lam, floats)
    assert coeff_error(got, want) <= 1e-12
    assert all(isinstance(c, float) for c in got.terms.values())
    assert little_jacobi_poly(lam, exact) == want


@pytest.mark.parametrize("lam", [(3, 1), (2, 1, 0), (2, 1, 1)])
def test_float_norm_at_the_criterion_07_set(lam):
    # off by 8.4e-3, 5.5e-3 and a factor 5.2 with the l-fold Jackson sums
    exact = LittleJacobiParams(F(1, 2), F(1, 3), F(1, 4), 2)
    got = norm_little(lam, LittleJacobiParams(0.5, 1 / 3, 0.25, 2))
    want = closed_norm(lam, exact)
    assert abs(got - want) <= 1e-12 * want
    assert isinstance(got, float)

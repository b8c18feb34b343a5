"""The evaluation formula P_lambda(rho) as an exact oracle apart from the D_K engine.

With T = t0 t1 t2 t3 and rho = (t0 t^(l-1), ..., t0 t, t0) (van Diejen,
Invent. Math. 126, 1996; Sahi, Ann. Math. 150, 1999):

    P_lambda(rho) = prod_i (t0 t^(l-i))^(-lambda_i)
        (t0 t1 t^(l-i), t0 t2 t^(l-i), t0 t3 t^(l-i), T t^(l-i)/q; q)_(lambda_i)
        / (T t^(2(l-i))/q; q)_(2 lambda_i)
      * prod_(i<j) (t^(j-i+1); q)_(lambda_i-lambda_j) (T t^(2l-i-j+1)/q; q)_(lambda_i+lambda_j)
        / [(t^(j-i); q)_(lambda_i-lambda_j) (T t^(2l-i-j)/q; q)_(lambda_i+lambda_j)]

Every factor is a finite q-Pochhammer symbol of Fractions.
"""

import itertools
from fractions import Fraction as F

import pytest

from bcq.koornwinder import KoornwinderParams, _integer_params, _phi_pair, koornwinder_poly

GENERIC = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 1)
SQUARE_T = KoornwinderParams(F(2, 9), F(-3, 11), F(1, 2), F(-1, 3), F(3, 7), 2)
# every dominant lambda with |lambda| <= 4 and 1 <= l <= 3
LAMBDAS = [
    lam
    for l in (1, 2, 3)
    for lam in itertools.product(range(5), repeat=l)
    if list(lam) == sorted(lam, reverse=True) and sum(lam) <= 4
]


def pochhammer(a, q, n):
    """(a; q)_n for n >= 0."""
    out = F(1)
    for m in range(n):
        out *= 1 - a * q**m
    return out


def principal_value(lam, p):
    """P_lambda(rho) by the evaluation formula of the module docstring."""
    l = len(lam)
    t0, t1, t2, t3, q, t = (F(v) for v in (*p.tuple4, p.q, p.t))
    big_t = t0 * t1 * t2 * t3
    value = F(1)
    for i, li in enumerate(lam, 1):
        s = t ** (l - i)
        for a in (t0 * t1 * s, t0 * t2 * s, t0 * t3 * s, big_t * s / q):
            value *= pochhammer(a, q, li)
        value /= (t0 * s) ** li * pochhammer(big_t * t ** (2 * (l - i)) / q, q, 2 * li)
        for j, lj in enumerate(lam[i:], i + 1):
            value *= pochhammer(t ** (j - i + 1), q, li - lj)
            value *= pochhammer(big_t * t ** (2 * l - i - j + 1) / q, q, li + lj)
            value /= pochhammer(t ** (j - i), q, li - lj)
            value /= pochhammer(big_t * t ** (2 * l - i - j) / q, q, li + lj)
    return value


def rho(l, p):
    return tuple(F(p.t0) * F(p.t) ** (l - i) for i in range(1, l + 1))


def assert_principal_value(lam, params):
    got = koornwinder_poly(lam, params).evaluate(rho(len(lam), params))
    assert type(got) is F
    assert got == principal_value(lam, params), (lam, params)


@pytest.mark.parametrize("params", [GENERIC, SQUARE_T], ids=["GENERIC", "SQUARE_T"])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_exact_build_matches_the_evaluation_formula(lam, params):
    assert_principal_value(lam, params)


@pytest.mark.parametrize("lam", [(1,), (2, 1), (2, 1, 1)])
def test_a_sign_flip_in_a_phi_minus_numerator_fails_the_formula(monkeypatch, lam):
    # phi_j^- with the factor t0 + x_j in place of t0 - x_j: D_K m~_mu is no
    # longer a Laurent polynomial, so no build meets the formula
    true_phi_pair = _phi_pair

    def flipped(x, j, params, integers=()):
        plus, (num_m, den_m) = true_phi_pair(x, j, params, integers)
        (n0, d0), (a, b) = integers[0][0], (x[j].numerator, x[j].denominator)
        num_m, den_m = num_m * (n0 * b + d0 * a), den_m * (n0 * b - d0 * a)
        if den_m == 0:
            raise ZeroDivisionError(f"phi_{j} has a pole at x")
        return plus, (num_m, den_m)

    monkeypatch.setattr("bcq.koornwinder._phi_pair", flipped)
    with pytest.raises((AssertionError, ArithmeticError)):
        assert_principal_value(lam, GENERIC)


@pytest.mark.parametrize("lam", [(1,), (2, 1), (2, 1, 1)])
def test_the_formula_sees_a_fault_that_the_engine_cannot(monkeypatch, lam):
    # phi_j^+- built at (-t0, -t1, t2, t3), which has the same t0 t1 t2 t3 and
    # so the same eigenvalues: the engine builds that set's P_lambda, a true
    # eigenpolynomial whose own held-out points agree, and only rho rejects it
    true_phi_pair = _phi_pair

    def negated(x, j, params, integers=()):
        other = KoornwinderParams(-params.t0, -params.t1, params.t2, params.t3, params.q, params.k)
        return true_phi_pair(x, j, other, _integer_params(other))

    monkeypatch.setattr("bcq.koornwinder._phi_pair", negated)
    got = koornwinder_poly(lam, GENERIC).evaluate(rho(len(lam), GENERIC))
    assert got != principal_value(lam, GENERIC)

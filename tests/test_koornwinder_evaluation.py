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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcq import koornwinder
from bcq.koornwinder import (
    KoornwinderParams,
    _phi_pair,
    dk_apply,
    eigenvalue,
    koornwinder_poly,
)
from bcq.weights import dominant_downset

GENERIC = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 1)
SQUARE_T = KoornwinderParams(F(2, 9), F(-3, 11), F(1, 2), F(-1, 3), F(3, 7), 2)
THIRD = KoornwinderParams(F(3, 8), F(-2, 5), F(1, 6), F(-4, 9), F(2, 5), 1)
# three rational sets, each at k = 1 and k = 2
SETS = {
    "GENERIC": GENERIC,
    "GENERIC_K2": KoornwinderParams(*GENERIC.tuple4, GENERIC.q, 2),
    "SQUARE_T_K1": KoornwinderParams(*SQUARE_T.tuple4, SQUARE_T.q, 1),
    "SQUARE_T": SQUARE_T,
    "THIRD": THIRD,
    "THIRD_K2": KoornwinderParams(*THIRD.tuple4, THIRD.q, 2),
}


def dominant_weights(size, length):
    """Every dominant lambda with |lambda| <= size and 1 <= l <= length."""
    return [
        lam
        for l in range(1, length + 1)
        for lam in itertools.product(range(size + 1), repeat=l)
        if list(lam) == sorted(lam, reverse=True) and sum(lam) <= size
    ]


# every dominant lambda with |lambda| <= 6 and 1 <= l <= 4, those with
# |lambda| <= 4 and l <= 3 first
LAMBDAS = sorted(dominant_weights(6, 4), key=lambda lam: lam not in dominant_weights(4, 3))


@pytest.fixture(autouse=True)
def empty_row_caches():
    # a build under a monkeypatched _phi_pair must form its own rows, and
    # leave none behind for the builds after it
    for cache in (koornwinder._point_memo, koornwinder._power_tables):
        cache.cache_clear()
    yield
    for cache in (koornwinder._point_memo, koornwinder._power_tables):
        cache.cache_clear()


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


@pytest.mark.parametrize("params", list(SETS.values()), ids=list(SETS))
@pytest.mark.parametrize("lam", LAMBDAS)
def test_exact_build_matches_the_evaluation_formula(lam, params):
    assert_principal_value(lam, params)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.lists(st.sampled_from(sorted({F(n, d) for n in range(-9, 10) if n for d in range(2, 11)})),
             min_size=4, max_size=4),
    st.sampled_from([F(n, 10) for n in range(1, 10)]),
    st.sampled_from([1, 2]),
    st.sampled_from(dominant_weights(4, 3)),
)
def test_random_rational_sets_meet_the_evaluation_formula_and_e_lambda(ts, q, k, lam):
    # the exact build against two checks apart from its own held-out points:
    # P_lambda(rho) by the evaluation formula, and D_K P_lambda = E_lambda P_lambda
    assume(all(a * b < 1 for a, b in itertools.combinations(ts, 2)))  # inside V_K
    params = KoornwinderParams(*ts, q, k)
    e_lam = eigenvalue(lam, params)
    assume(all(eigenvalue(mu, params) != e_lam for mu in dominant_downset(lam)[:-1]))
    try:
        want = principal_value(lam, params)
    except ZeroDivisionError:
        assume(False)  # rho meets a pole of the formula
    poly = koornwinder_poly(lam, params)
    assert poly.evaluate(rho(len(lam), params)) == want, (lam, params)
    assert dk_apply(poly, params) == poly.scale(e_lam), (lam, params)


@pytest.mark.parametrize("lam", [(1,), (2, 1), (2, 1, 1)])
def test_a_sign_flip_in_a_phi_minus_numerator_fails_the_formula(monkeypatch, lam):
    # phi_j^- with the factor t0 + x_j in place of t0 - x_j: D_K m~_mu is no
    # longer a Laurent polynomial, so no build meets the formula
    true_phi_pair = _phi_pair

    def flipped(x, j, ratios):
        plus, (num_m, den_m) = true_phi_pair(x, j, ratios)
        (n0, d0), (a, b) = ratios[0][0], (x[j].numerator, x[j].denominator)
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

    def negated(x, j, ratios):
        ((n0, d0), (n1, d1), *ts), *rest = ratios
        return true_phi_pair(x, j, (((-n0, d0), (-n1, d1), *ts), *rest))

    monkeypatch.setattr("bcq.koornwinder._phi_pair", negated)
    got = koornwinder_poly(lam, GENERIC).evaluate(rho(len(lam), GENERIC))
    assert got != principal_value(lam, GENERIC)

"""Tests for scalar q-analysis primitives."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcq.qseries import (
    INFINITY,
    NonConvergenceError,
    TruncationPolicy,
    jackson_integral,
    jackson_sum_0_to_beta,
    log_qgamma,
    qgamma,
    qpochhammer,
)

rational_q = st.fractions(min_value=F(1, 10), max_value=F(9, 10))
rational_a = st.fractions(min_value=F(-2), max_value=F(1, 2))


def test_qpochhammer_empty_product():
    assert qpochhammer(F(1, 2), F(1, 3), 0) == 1
    assert qpochhammer(0.7, 0.3, 0) == 1


def test_qpochhammer_finite_exact():
    # (1/2; 1/3)_3 = (1 - 1/2)(1 - 1/6)(1 - 1/18) by hand
    assert qpochhammer(F(1, 2), F(1, 3), 3) == F(1, 2) * F(5, 6) * F(17, 18)
    assert qpochhammer(F(1, 2), F(1, 3), 3) == F(85, 216)


def test_qpochhammer_infinite_frozen():
    # independently computed as exp(sum log(1 - a q^j))
    val = qpochhammer(0.5, 0.25, INFINITY)
    assert abs(val - 0.41942244179510746) < 1e-13


def test_qpochhammer_rejects_bad_order():
    with pytest.raises(ValueError):
        qpochhammer(F(1, 2), F(1, 3), -1)
    with pytest.raises(ValueError):
        qpochhammer(F(1, 2), F(1, 3), 1.5)


@given(a=rational_a, q=rational_q, m=st.integers(0, 6), n=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_qpochhammer_splitting(a, q, m, n):
    # (a; q)_{m+n} = (a; q)_m (a q^m; q)_n
    lhs = qpochhammer(a, q, m + n)
    rhs = qpochhammer(a, q, m) * qpochhammer(a * q**m, q, n)
    assert lhs == rhs


def test_qgamma_small_integer_values():
    # Gamma_q(1) = 1, Gamma_q(2) = 1, Gamma_q(3) = 1 + q
    for q in (0.25, 0.5, 0.8):
        assert abs(qgamma(1, q) - 1.0) < 1e-12
        assert abs(qgamma(2, q) - 1.0) < 1e-12
        assert abs(qgamma(3, q) - (1 + q)) < 1e-12


@given(
    a=st.floats(min_value=0.5, max_value=4.0),
    q=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_qgamma_recurrence(a, q):
    # Gamma_q(a+1) = (1 - q^a)/(1 - q) Gamma_q(a)
    lhs = qgamma(a + 1, q)
    rhs = (1 - q**a) / (1 - q) * qgamma(a, q)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_qgamma_pole():
    with pytest.raises(ValueError):
        log_qgamma(0, 0.5)
    with pytest.raises(ValueError):
        log_qgamma(-2, 0.5)


@pytest.mark.parametrize("a", [-0.5, -1.5])
def test_qgamma_at_negative_non_integer_a(a):
    # factors 1 - q^{j+a} with q^{j+a} > 1 are negative: log1p raised a
    # math domain error on them
    q = 0.5
    want = (1 - q) ** (1 - a) * qpochhammer(q, q, INFINITY) / qpochhammer(q**a, q, INFINITY)
    assert abs(qgamma(a, q) - want) < 1e-13 * abs(want)
    assert log_qgamma(a, q) == pytest.approx(math.log(abs(want)), abs=1e-13)


def test_qgamma_at_positive_a_is_unchanged():
    # recorded before negative a were supported
    assert log_qgamma(0.5, 0.5).hex() == "0x1.cf39f40a3069bp-2"
    assert qgamma(0.5, 0.5).hex() == "0x1.9270bc997e76ap+0"
    assert log_qgamma(2.7, 0.9).hex() == "0x1.9df2afc6bb992p-2"
    assert qgamma(2.7, 0.9).hex() == "0x1.7f883d0edbf2fp+0"


def test_jackson_monomial():
    # int_0^1 x d_q x = (1-q)/(1-q^2) = 1/(1+q)
    q = 0.25
    val = jackson_sum_0_to_beta(lambda x: x, 1.0, INFINITY, q)
    assert abs(val - 1 / (1 + q)) < 1e-12
    # int_0^1 x^2 d_q x = (1-q)/(1-q^3)
    val2 = jackson_sum_0_to_beta(lambda x: x * x, 1.0, INFINITY, q)
    assert abs(val2 - (1 - q) / (1 - q**3)) < 1e-12


def test_jackson_finite_exact():
    q = F(1, 2)
    # two nodes: x = 1 and x = 1/2, increments (1 - 1/2) and (1/2 - 1/4)
    val = jackson_sum_0_to_beta(lambda x: x, F(1), 1, q)
    assert val == F(1) * F(1, 2) + F(1, 2) * F(1, 4)


def test_jackson_empty_cases():
    q = F(1, 2)
    assert jackson_sum_0_to_beta(lambda x: x, 0, INFINITY, q) == 0
    assert jackson_sum_0_to_beta(lambda x: x, F(1), -1, q) == 0


@given(
    c1=st.fractions(min_value=F(-2), max_value=F(2)),
    c2=st.fractions(min_value=F(-2), max_value=F(2)),
    q=rational_q,
    n=st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_jackson_linearity(c1, c2, q, n):
    f = lambda x: x
    g = lambda x: x * x
    combined = jackson_sum_0_to_beta(lambda x: c1 * f(x) + c2 * g(x), F(1), n, q)
    split = c1 * jackson_sum_0_to_beta(f, F(1), n, q) + c2 * jackson_sum_0_to_beta(
        g, F(1), n, q
    )
    assert combined == split


def test_jackson_integral_difference():
    q = F(1, 3)
    f = lambda x: x * x
    whole = jackson_integral(f, F(-1), F(1), 4, q)
    expected = jackson_sum_0_to_beta(f, F(1), 4, q) - jackson_sum_0_to_beta(
        f, F(-1), 4, q
    )
    assert whole == expected


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(abs_tol=1e-18)
    with pytest.raises(ValueError):
        TruncationPolicy(max_terms=0)


def test_qbase_validation():
    # q outside (0,1) is refused by every entry point, exact or float
    for q in (F(3, 2), 0, 1.0, -0.5):
        with pytest.raises(ValueError, match="q must lie in"):
            qpochhammer(F(1, 2), q, 2)
        with pytest.raises(ValueError, match="q must lie in"):
            qpochhammer(0.5, q, INFINITY)
        with pytest.raises(ValueError, match="q must lie in"):
            log_qgamma(1.5, q)
        with pytest.raises(ValueError, match="q must lie in"):
            jackson_sum_0_to_beta(lambda x: x, F(1), 3, q)


def test_qpochhammer_float_infinity():
    # float("inf") is a different object from math.inf; it raised OverflowError
    assert qpochhammer(0.5, 0.25, float("inf")) == qpochhammer(0.5, 0.25, INFINITY)


def test_jackson_float_infinity():
    # float("inf") is a different object from math.inf; it raised OverflowError
    q = 0.25
    val = jackson_sum_0_to_beta(lambda x: x, 1.0, float("inf"), q)
    assert val == jackson_sum_0_to_beta(lambda x: x, 1.0, INFINITY, q)
    assert abs(val - 1 / (1 + q)) < 1e-12


def test_nonconvergence_raised():
    tight = TruncationPolicy(abs_tol=1e-15, max_terms=2)
    with pytest.raises(NonConvergenceError):
        qpochhammer(0.5, 0.99, INFINITY, tight)


@pytest.mark.parametrize("beta", [2.0, -1.5])
def test_jackson_monomial_any_endpoint(beta):
    # int_0^beta x d_q x = beta^2 (1-q)/(1-q^2) = beta^2/(1+q), either sign
    q = 0.5
    val = jackson_sum_0_to_beta(lambda x: x, beta, INFINITY, q)
    assert abs(val - beta**2 / (1 + q)) <= 1e-15 * beta**2


def test_jackson_cutoff_is_a_priori():
    # f = 1 on [0,1] at q = 1/2 sums the masses 2^-(j+1) for j <= n, where
    # n = 54 is the first n with 2^-n < 1e-16; the exact sum shows n
    val = jackson_sum_0_to_beta(lambda x: 1, F(1), INFINITY, F(1, 2))
    assert val == 1 - F(1, 2**55)


def test_jackson_cutoff_past_max_terms_raises():
    # 0.999^100 is nowhere near abs_tol, so the a-priori cutoff exceeds the cap
    with pytest.raises(NonConvergenceError):
        jackson_sum_0_to_beta(
            lambda x: x, 1.0, INFINITY, 0.999, TruncationPolicy(max_terms=100)
        )

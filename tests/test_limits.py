"""Tests for the parameter degenerations and classical comparisons."""

import math
from fractions import Fraction as F

import pytest

from bcq import limits
from bcq.awmeasure import norm_K
from bcq.limits import (
    DEFAULT_SWEEP,
    EpsilonSweep,
    grassmann_big_params,
    grassmann_koornwinder_params,
    grassmann_little_params,
    limit_check_big,
    limit_check_little,
    norm_limit_check,
    q_to_1_check,
    selberg_classical,
    sweep_csv,
    t_B,
    t_L,
)
from bcq.qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    closed_form_little_constant,
    normalization_check,
)
from bcq.qseries import NonConvergenceError
from bcq.weights import GrassmannShape

LITTLE = LittleJacobiParams(F(1, 2), F(1, 3), F(1, 4), 1)
BIG = BigJacobiParams(F(1, 20), F(1, 25), F(1, 1), F(4, 1), F(1, 4), 1)
SHORT_SWEEP = EpsilonSweep((F(1, 10), F(3, 100), F(1, 100)))


def test_sweep_validation():
    with pytest.raises(ValueError):
        EpsilonSweep((F(1, 10), F(1, 10)))
    with pytest.raises(ValueError):
        EpsilonSweep((F(1, 100), F(1, 10)))
    with pytest.raises(ValueError):
        EpsilonSweep((F(1, 10), F(0)))
    with pytest.raises(ValueError):
        EpsilonSweep(())
    assert DEFAULT_SWEEP.values[0] == F(1, 10)
    assert DEFAULT_SWEEP.values[-1] == F(1, 10000)


def test_t_L_at_eps_one():
    p = t_L(F(1), LITTLE)
    r = F(1, 2)  # q^(1/2) for q = 1/4
    assert (p.t0, p.t1, p.t2, p.t3) == (r, -LITTLE.a * r, LITTLE.b * r, -r)


def test_t_L_first_entry_blows_up():
    p = t_L(F(1, 1000), LITTLE)
    assert abs(p.t0) > 1


def test_t_B_product_eps_independent():
    for eps in (F(1, 10), F(1, 100)):
        p = t_B(eps, BIG)
        prod = p.t0 * p.t1 * p.t2 * p.t3
        assert prod == BIG.q**2 * BIG.a * BIG.b


def test_limit_little():
    report = limit_check_little((1,), LITTLE)
    assert report.passed
    assert report.residual < 1e-3
    errs = report.detail["errors"]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_limit_big_two_variables():
    report = limit_check_big((1, 1), BIG)
    assert report.passed
    assert report.residual < 1e-3


def test_norm_limit_little():
    params = LittleJacobiParams(F(1, 1), F(-4, 1), F(1, 2), 1)
    report = norm_limit_check((1,), params, SHORT_SWEEP)
    assert report.passed
    assert report.residual < 1e-2


def test_norm_limit_big():
    report = norm_limit_check((1,), BIG, SHORT_SWEEP)
    assert report.passed
    assert report.residual < 1e-2


def test_sweep_csv_format():
    report = limit_check_little((1,), LITTLE, SHORT_SWEEP)
    text = sweep_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,max_coeff_err,norm_err,constructed_ok"
    assert len(lines) == 1 + len(SHORT_SWEEP.values)


def test_sweep_records_points_it_cannot_construct():
    # at q = 99/100 the residue points of t_L(eps) outrun the N_e cap
    params = LittleJacobiParams(F(1, 2), F(1, 3), F(99, 100), 1)
    sweep = EpsilonSweep((F(1, 10), F(1, 1000)))
    for eps in sweep.values:
        with pytest.raises(NonConvergenceError, match="N_e exceeds 64"):
            norm_K((1,), t_L(eps, params))
    report = norm_limit_check((1,), params, sweep)
    assert report.detail["constructed"] == [False, False]
    assert all(math.isnan(e) for e in report.detail["errors"])
    assert report.passed is False
    assert sweep_csv(report).splitlines()[1:] == ["0.1,,nan,False", "0.001,,nan,False"]


def test_grassmann_koornwinder_product_invariant():
    q = F(1, 2)
    for n in range(2, 7):
        for l in range(1, n // 2 + 1):
            for sigma in (-1, 0, 2):
                for tau in (0, 1):
                    p = grassmann_koornwinder_params(
                        GrassmannShape(n, l), sigma, tau, q
                    )
                    prod = p.t0 * p.t1 * p.t2 * p.t3
                    assert prod == q ** (4 + 2 * (n - 2 * l))
                    assert 0 < prod < 1
                    assert p.q == q * q


def test_grassmann_special_shapes():
    q = F(1, 2)
    # n = 2l: the last entry reduces to q^(tau - sigma + 1)
    p = grassmann_koornwinder_params(GrassmannShape(4, 2), 1, 0, q)
    assert p.t3 == q ** (0 - 1 + 1)
    big = grassmann_big_params(GrassmannShape(4, 2), 0, q)
    assert (big.a, big.b, big.c, big.d) == (1, 1, 1, 1)
    little = grassmann_little_params(GrassmannShape(6, 2), q)
    assert little.a == q**4 and little.b == 1
    assert 0 < little.a <= 1


def test_selberg_reduces_to_beta():
    alpha, beta = 0.5, 1.5
    val = selberg_classical(alpha, beta, 1.0, 1)
    expected = math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(
        alpha + beta + 2
    )
    assert abs(val - expected) < 1e-12 * expected


@pytest.mark.parametrize(
    "a, q, scale",
    [
        (1.5, None, 1.05),  # Gamma_q(1.5) 5% off at every q
        (2.5, 0.99, 1.40),  # Gamma_q(2.5) 40% off at q = 0.99 only
    ],
)
def test_q_to_1_check_reads_every_gamma_run(monkeypatch, a, q, scale):
    # the verdict read only Gamma_q(2.5) at the last q and asked only the
    # Selberg errors to decrease, so both faults passed
    qgamma = limits.qgamma

    def wrong(x, base):
        value = qgamma(x, base)
        return value * scale if x == a and q in (None, base) else value

    monkeypatch.setattr(limits, "qgamma", wrong)
    assert q_to_1_check(0.0, 0.0, 1, 2).passed is False


def test_selberg_domain():
    with pytest.raises(ValueError):
        selberg_classical(-1.5, 0.0, 1.0, 2)
    # l = 0 is an empty product, which q_to_1_check would pass vacuously
    for check in (selberg_classical, q_to_1_check):
        with pytest.raises(ValueError, match="l must be >= 1"):
            check(0.0, 0.0, 1, 0)


def test_q_to_1_check_rejects_an_underflowing_target():
    # Selberg's integral at k = 500, l = 3 is below the doubles, and the
    # relative errors divided by it: "float division by zero"
    assert selberg_classical(0.0, 0.0, 500.0, 3) == 0.0
    with pytest.raises(ValueError, match="underflows doubles at k = 500, l = 3"):
        q_to_1_check(0.0, 0.0, 500, 3)


def test_classical_limit():
    for alpha in (0, 1):
        report = q_to_1_check(alpha, 0, 1, 2)
        assert report.passed
        assert report.residual < 0.01


def test_q_to_1_residual_at_integer_arguments():
    # q_to_1_check(0, 0, 1, 2) reads Gamma_q at positive integers only, each
    # a finite product: 2q Gamma_q(1)^3 Gamma_q(2)^3 / (Gamma_q(3) Gamma_q(4))
    # against Selberg's 1/6.  The series it replaced gave 1.0004165994e-3,
    # right to 7 digits; the reference is exact at q = 999/1000.
    q = F(999, 1000)

    def gamma_q(n):
        return math.prod((1 - q**j) / (1 - q) for j in range(1, n))

    value = 2 * q * gamma_q(1) ** 3 * gamma_q(2) ** 3 / (gamma_q(3) * gamma_q(4))
    want = float(abs(value - F(1, 6)) / F(1, 6))
    assert want == pytest.approx(1.0004164995063815e-3, rel=1e-15)
    assert closed_form_little_constant(LittleJacobiParams(1, 1, q), 2) == value
    got = q_to_1_check(0, 0, 1, 2).detail["errors"][-1]
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n, l, want", [
    (4, 1, F(16, 21)),
    (5, 2, F(8192, 187425)),
    (7, 3, F(34359738368, 2865797615055375)),
])
def test_little_constant_exact_at_grassmann_parameters(n, l, want):
    # at (q^{2(n-2l)}, 1; q^2) every (b;q)_inf of the q-Selberg product is a
    # q^m times another, so <1,1>_L is rational; the Jackson sum agrees
    params = grassmann_little_params(GrassmannShape(n, l), F(1, 2))
    assert closed_form_little_constant(params, l) == want
    assert normalization_check(params, l).residual < 1e-15

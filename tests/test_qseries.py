"""Tests for scalar q-analysis primitives."""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcq.awmeasure
import bcq.qjacobi
import bcq.qseries
from bcq.awmeasure import gustafson_constant
from bcq.koornwinder import KoornwinderParams
from bcq.qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    closed_form_big_constant,
    closed_form_little_constant,
)
from bcq.qseries import (
    EXACT_BITS,
    INFINITY,
    NonConvergenceError,
    _euler_plan,
    _euler_split,
    _qpoch_finite,
    _qpoch_row,
    check_base,
    jackson_nodes,
    log_qgamma,
    qgamma,
    qpochhammer,
    qproduct,
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


def test_qgamma_at_positive_a_is_pinned():
    # recorded with the head-and-Euler-tail kernel; against a 40-digit
    # reference the logs are off by 2.2e-16 and 5.0e-16
    assert log_qgamma(0.5, 0.5).hex() == "0x1.cf39f40a3069cp-2"
    assert qgamma(0.5, 0.5).hex() == "0x1.9270bc997e76bp+0"
    assert log_qgamma(2.7, 0.9).hex() == "0x1.9df2afc6bb9a0p-2"
    assert qgamma(2.7, 0.9).hex() == "0x1.7f883d0edbf34p+0"


def test_qgamma_next_to_a_pole():
    # 1 - q^a formed from a powered q^a cancelled: 7.21384e11, 5e-5 off
    a, q = 1e-12, 0.5
    want = qgamma(1 + a, q) * (1 - q) / -math.expm1(a * math.log(q))
    assert abs(qgamma(a, q) - want) <= 1e-14 * want


@pytest.mark.parametrize("a", [1e-17, -1e-17])
def test_qgamma_where_q_to_the_a_rounds_to_one(a):
    # q^a == 1.0 made the factor 1 - q^a zero: "math domain error"
    q = 0.5
    value = qgamma(a, q)
    assert math.isfinite(value) and (value < 0) == (a < 0)
    assert abs(value) == pytest.approx((1 - q) / abs(math.expm1(a * math.log(q))), rel=1e-14)


def test_qgamma_at_positive_integers_is_a_finite_product():
    # Gamma_q(n) = prod_{1 < j < n} (1 - q^j)/(1 - q), exact at the double q
    q = 0.999
    for n in range(1, 8):
        want = math.prod((1 - F(q) ** j) / (1 - F(q)) for j in range(2, n))
        assert qgamma(n, q) == pytest.approx(float(want), rel=1e-14)
    # past MAX_TERMS factors the series takes over: Gamma_q(a+1) = [a]_q Gamma_q(a)
    step = log_qgamma(10_001, 0.5) - log_qgamma(10_000, 0.5)
    assert step == pytest.approx(math.log(2), abs=1e-11)


def _decimal_parts(a, q):
    """(Re, Im) of (a;q)_inf as Decimals: the plain product in the current
    context, independent of bcq.  Factors stop once |a q^j| <= 1e-22 (1-q):
    the log of the rest is then below 1e-22 in size."""
    qd, stop = Decimal(q), Decimal("1e-22") * (1 - Decimal(q))
    z = complex(a)
    re, im = Decimal(z.real), Decimal(z.imag)
    pr, pi = Decimal(1), Decimal(0)
    while re * re + im * im > stop * stop:
        pr, pi = pr * (1 - re) + pi * im, pi * (1 - re) - pr * im
        re, im = re * qd, im * qd
    return pr, pi


def _decimal_qpoch(a, q):
    """(log |(a;q)_inf|, (a;q)_inf) from ``_decimal_parts`` at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        pr, pi = _decimal_parts(a, q)
        log_abs = (pr * pr + pi * pi).ln() / 2
        if abs(log_abs) >= 700:  # outside the range of doubles
            return float(log_abs), None
        return float(log_abs), complex(float(pr), float(pi))


def _decimal_qproduct(scale, num, den, q):
    """scale prod (b;q)_inf over num / prod (b;q)_inf over den, each factor
    from ``_decimal_parts``, at 40 digits, as a complex."""
    with localcontext() as ctx:
        ctx.prec = 40
        re, im = Decimal(scale), Decimal(0)
        for bases, inverse in ((num, False), (den, True)):
            for b in bases:
                pr, pi = _decimal_parts(b, q)
                if inverse:
                    size = pr * pr + pi * pi
                    pr, pi = pr / size, -pi / size
                re, im = re * pr - im * pi, re * pi + im * pr
        return complex(float(re), float(im))


ORACLE_CASES = [
    (q, a)
    for q in (0.4, 0.5, 0.9, 0.99, 0.999)
    for a in [0.5, 0.9, -0.9, 1.7, -48.0]
    + [r * cmath.exp(1j * theta) for r, theta in ((0.3, 1.0), (1, 2.5), (7000, 0.7)) if q < 0.99 or r <= 10]
]


@pytest.mark.parametrize("q, a", ORACLE_CASES)
def test_qpochhammer_matches_decimal_product(q, a):
    log_want, want = _decimal_qpoch(a, q)
    got = qpochhammer(a, q, INFINITY)
    assert type(got) is type(a)
    if want is None:  # past the range of doubles: inf, or 0 (a subnormal)
        assert abs(got) == math.inf if log_want > 0 else abs(got) < 1e-300
        return
    assert abs(math.log(abs(got)) - log_want) <= 1e-14 * max(1.0, abs(log_want))
    if q < 0.999:
        tol = 1e-15 if q <= 0.5 else 5e-14 if q == 0.9 else 3e-13
        assert abs(got - want) <= tol * abs(want)


def test_qgamma_near_one_on_the_default_policy():
    # at q = 0.999 a series of pairs needed ~37k terms of the 10k cap and
    # raised; two logs of size ~1640 cancel here, which leaves ~5e-13
    q = 0.999
    log_want = (
        -0.5 * math.log1p(-q) + _decimal_qpoch(q, q)[0] - _decimal_qpoch(q**1.5, q)[0]
    )
    assert log_qgamma(1.5, q) == pytest.approx(log_want, abs=1e-12)
    assert qgamma(1.5, q) == pytest.approx(math.gamma(1.5), rel=1e-3)


def _jackson_sum(f, beta, n, q):
    return sum(f(x) * mass for x, mass in jackson_nodes(beta, n, q))


def test_jackson_monomial():
    # int_0^1 x d_q x = (1-q)/(1-q^2) = 1/(1+q); nodes past j = 30 add < 1e-37
    q = 0.25
    val = _jackson_sum(lambda x: x, 1.0, 30, q)
    assert abs(val - 1 / (1 + q)) < 1e-12
    # int_0^1 x^2 d_q x = (1-q)/(1-q^3)
    val2 = _jackson_sum(lambda x: x * x, 1.0, 30, q)
    assert abs(val2 - (1 - q) / (1 - q**3)) < 1e-12


def test_jackson_finite_exact():
    q = F(1, 2)
    # two nodes: x = 1 and x = 1/2, increments (1 - 1/2) and (1/2 - 1/4)
    val = _jackson_sum(lambda x: x, F(1), 1, q)
    assert val == F(1) * F(1, 2) + F(1, 2) * F(1, 4)


def test_qbase_validation():
    # q outside (0,1) is refused by every entry point, exact or float
    for q in (F(3, 2), 0, 1.0, -0.5):
        with pytest.raises(ValueError, match="q must lie in"):
            qpochhammer(F(1, 2), q, 2)
        with pytest.raises(ValueError, match="q must lie in"):
            qpochhammer(0.5, q, INFINITY)
        with pytest.raises(ValueError, match="q must lie in"):
            log_qgamma(1.5, q)


def test_qpochhammer_float_infinity():
    # float("inf") is a different object from math.inf; it raised OverflowError
    assert qpochhammer(0.5, 0.25, float("inf")) == qpochhammer(0.5, 0.25, INFINITY)


def test_nonconvergence_raised():
    # |a| = 1e50 at q = 0.99 needs 11525 head factors and 55 Euler terms
    with pytest.raises(NonConvergenceError, match="past MAX_TERMS"):
        qpochhammer(1e50, 0.99, INFINITY)


def _qpoch_entry(a, q):
    """(a;q)_inf one entry at a time, as ``qpochhammer`` formed it before the
    row kernel: its own base check, plan lookup and split."""
    check_base(q)
    b, q = (complex(a) if isinstance(a, complex) else float(a)), float(q)
    head_powers, tail = _euler_split(b, q, _euler_plan(q))
    head = 1.0
    for p in head_powers:
        head *= 1 - b * p
    return head * (cmath.exp if isinstance(b, complex) else math.exp)(-tail)


def _bits(z):
    return type(z).__name__, complex(z).real.hex(), complex(z).imag.hex()


@pytest.mark.parametrize("q", [0.25, F(1, 2), 0.9])
def test_qpoch_row_equals_the_entry_by_entry_products(q):
    # one mixed row: head length h = 0 (|b| <= min(1/2, q^8)) and h > 0,
    # floats, complex numbers, an int and a Fraction; every entry keeps the
    # bits and the type of the product formed on its own
    row = [1e-6, 1e-6 - 1e-6j, 0.7, -48.0, 3 + 4j, 7000 * cmath.exp(0.7j), 2, F(-5, 3)]
    heads = [len(_euler_split(complex(a), float(q), _euler_plan(float(q)))[0]) for a in row]
    assert heads[0] == heads[1] == 0 < min(heads[2:])
    got = _qpoch_row(row, q)
    assert [_bits(v) for v in got] == [_bits(_qpoch_entry(a, q)) for a in row]
    assert [_bits(qpochhammer(a, q, INFINITY)) for a in row] == [_bits(v) for v in got]
    assert _qpoch_row([], q) == []


def test_qpoch_row_raises_as_the_entries_do():
    # a non-finite entry and one past MAX_TERMS raise wherever they stand in
    # the row, as each raised alone; so does a base outside (0, 1)
    for bad, match in ((math.inf, "non-finite"), (complex(math.inf, 1), "non-finite"),
                       (1e50, "past MAX_TERMS")):
        with pytest.raises(NonConvergenceError, match=match):
            _qpoch_entry(bad, 0.99)
        with pytest.raises(NonConvergenceError, match=match):
            _qpoch_row([0.5, 2 + 1j, bad, 0.3], 0.99)
    with pytest.raises(ValueError, match="q must lie in"):
        _qpoch_row([0.5], 1.0)


@pytest.mark.parametrize("beta", [2.0, -1.5])
def test_jackson_monomial_any_endpoint(beta):
    # int_0^beta x d_q x = beta^2 (1-q)/(1-q^2) = beta^2/(1+q), either sign
    q = 0.5
    val = _jackson_sum(lambda x: x, beta, 60, q)  # nodes past j = 60 add < 2^-120
    assert abs(val - beta**2 / (1 + q)) <= 1e-15 * beta**2


def test_qproduct_pairs_exact_bases_to_finite_products():
    # (b;q)_inf / (b q^m;q)_inf = (b;q)_m, and 1/(b q^m;q)_{-m} for m < 0
    q = F(1, 2)
    assert qproduct(3, [F(1, 2)], [F(1, 8)], q) == 3 * F(1, 2) * F(3, 4)
    assert qproduct(1, [F(1, 8)], [F(1, 2)], q) == 1 / (F(1, 2) * F(3, 4))
    assert qproduct(F(1, 3), [F(-1, 3)], [F(-1, 12)], q) == F(1, 3) * F(4, 3) * F(7, 6)
    # one infinite factor left: a float, the exact pair still cancelled
    value = qproduct(1, [F(1, 2), F(1, 3)], [F(1, 8)], q)
    assert type(value) is float
    assert value == pytest.approx(F(3, 8) * _decimal_qpoch(1 / 3, 0.5)[1].real, rel=1e-15)
    # float bases never pair; a conjugate pair of bases is a real product
    assert type(qproduct(1, [0.5], [0.125], 0.5)) is float
    z = 0.5 + 0.1j
    want = abs(_decimal_qpoch(z, 0.5)[1]) ** 2
    assert qproduct(1, [z, z.conjugate()], [], 0.5) == pytest.approx(want, rel=1e-15)


def test_qproduct_pairs_the_nearest_base_within_the_size_bound(monkeypatch):
    lengths = []

    def finite(a, q, n):
        lengths.append(n)
        return _qpoch_finite(a, q, n)

    monkeypatch.setattr(bcq.qseries, "_qpoch_finite", finite)
    # 1/2 pairs with 1/4 (m = 1), not with the first base 2^-101 (m = 100)
    q = F(1, 2)
    value = qproduct(1, [q, q**40], [q**101, q**2], q)
    assert lengths == [1, 61]
    assert value == (1 - q) * math.prod(1 - q ** (40 + j) for j in range(61))
    # a finite (b;q)_m past EXACT_BITS (m^2 times the bits of q) is not formed:
    # at q = 999/1000, m = 57 pairs and m = 58 stays a float product
    q = F(999, 1000)
    assert 57 * 57 * 20 <= EXACT_BITS < 58 * 58 * 20
    lengths.clear()
    assert type(qproduct(1, [q], [q**58], q)) is F
    assert lengths == [57]
    lengths.clear()
    value = qproduct(1, [q], [q**59], q)
    assert lengths == [] and type(value) is float
    want = _decimal_qproduct(1, [0.999], [float(q**59)], 0.999)
    assert value == pytest.approx(want.real, rel=1e-13)


CLOSED_FORM_SETS = [  # (constant, params, l): README and benchmark sets, a, b < 0, conjugate pairs
    *[(closed_form_little_constant, LittleJacobiParams(0.5, b, 0.25, k), l)
      for b in (1 / 3, -1 / 3) for k in (1, 2) for l in (1, 2, 3)],
    *[(closed_form_big_constant, BigJacobiParams(a, b, 1.0, 4.0, 0.25, k), l)
      for a, b in ((0.05, 0.04), (-0.05, 0.04), (-0.05, -0.04), (0.3 + 0.2j, -4 * (0.3 - 0.2j)))
      for k in (1, 2) for l in (1, 2, 3)],
    *[(lambda params, l: gustafson_constant(l, params), KoornwinderParams(*t, q, k), l)
      for t, q in (((0.3, -0.2, 0.15, -0.4), 0.4), ((1.7, -0.2, 0.15, -0.4), 0.4),
                   ((0.2, -1 / 7, 1 / 3, -2 / 7), 0.25), ((0.3 + 0.2j, 0.3 - 0.2j, 0.15, -0.4), 0.4))
      for k in (1, 2) for l in (1, 2, 3)],
]


@pytest.mark.parametrize("constant, params, l", CLOSED_FORM_SETS)
def test_closed_forms_match_the_decimal_product(monkeypatch, constant, params, l):
    # each closed form is one qproduct call; at float sets the call and the
    # constant are within 2e-15 of the 40-digit product of the same bases
    calls = []

    def spy(*args):
        calls.append((args, qproduct(*args)))
        return calls[-1][1]

    for module in (bcq.qjacobi, bcq.awmeasure):
        monkeypatch.setattr(module, "qproduct", spy)
    value = constant(params, l)
    [(args, got)] = calls
    want = _decimal_qproduct(*args)
    assert value == got
    assert abs(got - want) <= 2e-15 * abs(want)

"""Scalar q-analysis primitives.

q-shifted factorials, the q-Gamma function, the Jackson node rule, and
``qproduct``, the one closed-form layer.  Scalars are exact rationals
(``fractions.Fraction``, whenever the inputs are rational and the product is
finite) or complex doubles.  A float (b;q)_inf is a head of factors
1 - b q^j, multiplied by the row kernel ``_qpoch_row`` or summed as logs by
``qproduct``, then Euler's expansion of the log of the rest, its length
fixed in advance (``_euler_plan``) so that the neglected tail of the log
stays below ABS_TOL; a product that needs more than MAX_TERMS terms raises
``NonConvergenceError``.  Each entry point checks q in (0,1) with
``check_base``, the one q test of the package.

``jackson_nodes`` is the Jackson rule: points beta q^j with masses
(1-q) beta q^j (Gasper & Rahman, section 1.11).  ``qjacobi`` sums its one
measured mass mu_0 over the same points, term by term.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

INFINITY = math.inf
ABS_TOL = 1e-16  # neglected tail of the log of a q-product
MAX_TERMS = 10_000  # terms of one q-product before it raises
EXACT_BITS = 1 << 16  # size bound of an exact finite product in qproduct


class NonConvergenceError(ArithmeticError):
    """Raised when a truncated product or sum fails to meet its tolerance."""


def check_base(q, k=1) -> None:
    """The base: q in (0,1), and for a polynomial family t = q^k with k a
    positive integer."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0,1)")
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer (t = q^k)")


def qpochhammer(a, q, i):
    """(a;q)_i = prod_{j<i} (1 - q^j a); i may be a nonnegative int or inf.
    Exact when a, q are rational and i is finite; at i = inf a one-entry
    ``_qpoch_row``."""
    if i == INFINITY:
        return _qpoch_row((a,), q)[0]
    check_base(q)
    if i < 0 or i != int(i):
        raise ValueError("finite order must be a nonnegative integer")
    return _qpoch_finite(a, q, int(i))


def _qpoch_row(bs, q):
    """[(b;q)_inf for b in bs] with one ``check_base`` and ``_euler_plan``:
    each the head of ``_euler_split`` times exp(-tail), its head length from
    its own |b|; a complex b stays complex, any other becomes a float."""
    check_base(q)
    plan = _euler_plan(q := float(q))
    out = []
    for b in bs:
        b = complex(b) if isinstance(b, complex) else float(b)
        head_powers, tail = _euler_split(b, q, plan)
        head = 1.0
        for p in head_powers:
            head *= 1 - b * p
        out.append(head * (cmath.exp if isinstance(b, complex) else math.exp)(-tail))
    return out


def _qpoch_finite(a, q, n: int):
    """(a;q)_n as the plain product with q unchecked, for the inner loops of
    the weight tables; exact for exact a, q."""
    prod = 1
    term = a
    for _ in range(n):
        prod *= 1 - term
        term *= q
    return prod


def qproduct(scale, num, den, q):
    """scale prod_{b in num} (b;q)_inf / prod_{b in den} (b;q)_inf, a real
    product (complex bases in conjugate pairs).  At an exact q each
    numerator pairs with the denominator of least |m| in ``_q_shift``:
    (b;q)_inf / (bq^m;q)_inf = (b;q)_m, or 1/(bq^m;q)_{-m}.  The rest is one
    ``fsum`` of head logs (``_log1m``) and Euler tails (``_euler_split``).
    Exact when the scale is and every factor pairs, else a float."""
    check_base(q)
    den, left, exact = list(den), [], isinstance(q, Fraction)
    for b in num:
        shifts = [(abs(m), m, i) for i, c in enumerate(den)
                  if exact and (m := _q_shift(b, c, q)) is not None]
        if not shifts:
            left.append(b)
            continue
        _, m, i = min(shifts)
        c = den.pop(i)
        scale *= _qpoch_finite(b, q, m) if m >= 0 else 1 / _qpoch_finite(c, q, -m)
    if not left and not den:
        return scale
    plan, logs = _euler_plan(qf := float(q)), []
    for b, sign in [(b, 1) for b in left] + [(c, -1) for c in den]:
        powers, tail = _euler_split(b, qf, plan)
        logs += [sign * _log1m(b * p) for p in powers] + [-sign * tail]
    total = complex(math.fsum(z.real for z in logs), math.fsum(z.imag for z in logs))
    return float(scale) * cmath.exp(total).real


def _q_shift(b, c, q):
    """The integer m with c = b q^m, for exact nonzero b, c and a finite
    (b;q)_m of at most EXACT_BITS (m^2 times the bits of q), else None: a
    float log guesses m and an exact power checks it."""
    if all(isinstance(v, (int, Fraction)) and v for v in (b, c)):
        r = Fraction(c) / b
        m = round((math.log(abs(r.numerator)) - math.log(r.denominator)) / math.log(q))
        bits = q.numerator.bit_length() + q.denominator.bit_length()
        if m * m * bits <= EXACT_BITS and q**m == r:
            return m


def _log1m(x):
    """log(1 - x), by log1p where x is real and below 1."""
    return cmath.log(1 - x) if isinstance(x, complex) or x >= 1 else math.log1p(-x)


@lru_cache(maxsize=64)
def _euler_plan(q: float):
    """(theta, ln q, [q^0, q^1, ...], (c_K, ..., c_1)) for products at one q.

    (b;q)_inf keeps h head factors 1 - b q^j, h the first with |b| q^h <=
    theta = min(1/2, q^8); the powers, each rounded once, grow as heads
    need.  The rest is Euler's log (b';q)_inf = -sum_k c_k b'^k, b' = b q^h,
    c_k = 1/(k(1-q^k)) (Gasper & Rahman, ch. 1), whose tail past K terms is
    at most |b'|^(K+1) / ((K+1)(1-q)(1-|b'|)): K is the first that bounds it
    by ABS_TOL at |b'| = theta.
    """
    theta, log_q = min(0.5, q**8), math.log(q)
    K = 1
    while theta ** (K + 1) / ((K + 1) * (1 - q) * (1 - theta)) > ABS_TOL:
        K += 1
    return theta, log_q, [1.0], tuple(1 / (k * -math.expm1(k * log_q)) for k in range(K, 0, -1))


def _euler_split(b, q: float, plan):
    """(q^j for j < h, T) with (b;q)_inf = prod_{j<h} (1 - b q^j) exp(-T),
    T the Euler sum of ``plan`` = ``_euler_plan(q)`` by Horner's rule.  A
    split past MAX_TERMS terms raises before any term is formed."""
    theta, log_q, powers, coeffs = plan
    size = abs(b)
    if not size < INFINITY:
        raise NonConvergenceError("q-product of a non-finite argument")
    h = 0 if size <= theta else math.ceil(math.log(size / theta) / -log_q)
    if h + len(coeffs) > MAX_TERMS:
        raise NonConvergenceError(f"q-product needs {h} + {len(coeffs)} terms, past MAX_TERMS")
    if h >= len(powers):
        powers.extend(q**j for j in range(len(powers), h + 1))
    b, tail = b * powers[h], 0.0
    for c in coeffs:
        tail = tail * b + c
    return powers[:h], tail * b


@lru_cache(maxsize=128)
def log_qgamma(a, q) -> float:
    """log |Gamma_q(a)| = (1-a) log(1-q) + L(1) - L(a), L(y) = log |(q^y;q)_inf|.

    L is the log space of ``_euler_split``, with each head factor 1 - q^(y+j)
    formed as -expm1((y+j) ln q): it keeps its digits where q^(y+j) is near
    1, as next to a pole.  At a positive integer a <= MAX_TERMS the value is
    the finite log prod_{1<j<a} (1-q^j)/(1-q).  For a < 0 the factors with
    j + a < 0 are negative; ``qgamma`` restores the sign.  Memoised per
    (a, q).
    """
    a = float(a)
    if a <= 0 and a == int(a):
        raise ValueError(f"qgamma pole at nonpositive integer a={a}")
    check_base(q)
    q = float(q)
    log_q, log_1mq = math.log(q), math.log1p(-q)

    def log_factor(y):  # log |1 - q^y|
        return math.log(abs(math.expm1(y * log_q)))

    if a == int(a) and a <= MAX_TERMS:
        return math.fsum(log_factor(j) - log_1mq for j in range(2, int(a)))

    def log_qpoch_power(y):  # L(y)
        head, tail = _euler_split(q**y, q, _euler_plan(q))
        return math.fsum(log_factor(y + j) for j in range(len(head))) - tail

    return (1 - a) * log_1mq + log_qpoch_power(1) - log_qpoch_power(a)


def qgamma(a, q) -> float:
    """Gamma_q(a) = (1-q)^{1-a} (q;q)_infty / (q^a;q)_infty.  For a < 0 the
    ceil(-a) factors 1 - q^{j+a} with j + a < 0 are negative."""
    value = math.exp(log_qgamma(a, q))
    return -value if a < 0 and math.ceil(-a) % 2 else value


def jackson_nodes(beta, n, q):
    """The Jackson nodes of [0, beta]: (beta q^j, (1-q) beta q^j) for j <= n."""
    return [(beta * q**j, (1 - q) * beta * q**j) for j in range(n + 1)]


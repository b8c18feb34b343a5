"""Scalar q-analysis primitives.

q-shifted factorials, the q-Gamma function, and Jackson q-integrals.  Two
scalar domains are supported throughout the package: exact rationals
(``fractions.Fraction``, available whenever the inputs are rational and the
product is finite) and complex doubles.  An infinite product (b;q)_inf is a
finite head of factors 1 - b q^j, then Euler's expansion of the log of the
rest, whose length is fixed in advance from a bound on its neglected tail
(``_euler_plan``).  Each entry point checks q in (0,1) with ``check_base``,
the one q test of the package.

Every Jackson sum is a sum over one node rule, ``jackson_nodes``: points
beta q^j with masses (1-q) beta q^j (Gasper & Rahman, section 1.11).  For
N = inf the cutoff is set before summing: the first n with |beta| q^n < abs_tol.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

INFINITY = math.inf


class NonConvergenceError(ArithmeticError):
    """Raised when a truncated product or sum fails to meet its tolerance."""


def check_base(q, k=1) -> None:
    """The base: q in (0,1), and for a polynomial family t = q^k with k a
    positive integer."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0,1)")
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer (t = q^k)")


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation of infinite products and sums: abs_tol bounds the neglected
    tail of the log of a product and the neglected mass of a Jackson sum."""

    abs_tol: float = 1e-16
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if self.abs_tol < 1e-16:
            raise ValueError("abs_tol below the double-precision floor")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_POLICY = TruncationPolicy()


def qpochhammer(a, q, i, policy: TruncationPolicy = DEFAULT_POLICY):
    """(a;q)_i = prod_{j<i} (1 - q^j a); i may be a nonnegative int or inf.

    The result is exact when a, q are rational and i is finite; for i = inf
    it is the head of ``_euler_split`` times exp(-tail).
    """
    check_base(q)
    if i == INFINITY:
        b, q = (complex(a) if isinstance(a, complex) else float(a)), float(q)
        head_powers, tail = _euler_split(b, q, policy)
        head = 1.0
        for p in head_powers:
            head *= 1 - b * p
        return head * (cmath.exp if isinstance(b, complex) else math.exp)(-tail)
    if i < 0 or i != int(i):
        raise ValueError("finite order must be a nonnegative integer")
    return _qpoch_finite(a, q, int(i))


def _qpoch_finite(a, q, n: int):
    """(a;q)_n as the plain product with q unchecked, for the inner loops of
    the weight tables; exact for exact a, q."""
    prod = 1
    term = a
    for _ in range(n):
        prod *= 1 - term
        term *= q
    return prod


@lru_cache(maxsize=64)
def _euler_plan(q: float, abs_tol: float):
    """(theta, ln q, [q^0, q^1, ...], (c_K, ..., c_1)) for products at one q.

    (b;q)_inf keeps h head factors 1 - b q^j, h the first with |b| q^h <=
    theta = min(1/2, q^8); the powers, each rounded once, grow as heads
    need.  The rest is Euler's log (b';q)_inf = -sum_k c_k b'^k, b' = b q^h,
    c_k = 1/(k(1-q^k)) (Gasper & Rahman, ch. 1), whose tail past K terms is
    at most |b'|^(K+1) / ((K+1)(1-q)(1-|b'|)): K is the first that bounds it
    by abs_tol at |b'| = theta.
    """
    theta, log_q = min(0.5, q**8), math.log(q)
    K = 1
    while theta ** (K + 1) / ((K + 1) * (1 - q) * (1 - theta)) > abs_tol:
        K += 1
    return theta, log_q, [1.0], tuple(1 / (k * -math.expm1(k * log_q)) for k in range(K, 0, -1))


def _euler_split(b, q: float, policy: TruncationPolicy):
    """(q^j for j < h, T) with (b;q)_inf = prod_{j<h} (1 - b q^j) exp(-T),
    T the Euler sum of ``_euler_plan`` by Horner's rule.  A split past
    max_terms terms raises before any term is formed."""
    theta, log_q, powers, coeffs = _euler_plan(q, policy.abs_tol)
    size = abs(b)
    if not size < INFINITY:
        raise NonConvergenceError("q-product of a non-finite argument")
    h = 0 if size <= theta else math.ceil(math.log(size / theta) / -log_q)
    if h + len(coeffs) > policy.max_terms:
        raise NonConvergenceError(f"q-product needs {h} + {len(coeffs)} terms, past max_terms")
    if h >= len(powers):
        powers.extend(q**j for j in range(len(powers), h + 1))
    b, tail = b * powers[h], 0.0
    for c in coeffs:
        tail = tail * b + c
    return powers[:h], tail * b


@lru_cache(maxsize=128)
def log_qgamma(a, q, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """log |Gamma_q(a)| = (1-a) log(1-q) + L(1) - L(a), L(y) = log |(q^y;q)_inf|.

    L is the log space of ``_euler_split``, with each head factor 1 - q^(y+j)
    formed as -expm1((y+j) ln q): it keeps its digits where q^(y+j) is near
    1, as next to a pole.  At a positive integer a <= max_terms the value is
    the finite log prod_{1<j<a} (1-q^j)/(1-q).  For a < 0 the factors with
    j + a < 0 are negative; ``qgamma`` restores the sign.  Memoised per
    (a, q, policy).
    """
    a = float(a)
    if a <= 0 and a == int(a):
        raise ValueError(f"qgamma pole at nonpositive integer a={a}")
    check_base(q)
    q = float(q)
    log_q, log_1mq = math.log(q), math.log1p(-q)

    def log_factor(y):  # log |1 - q^y|
        return math.log(abs(math.expm1(y * log_q)))

    if a == int(a) and a <= policy.max_terms:
        return math.fsum(log_factor(j) - log_1mq for j in range(2, int(a)))

    def log_qpoch_power(y):  # L(y)
        head, tail = _euler_split(q**y, q, policy)
        return math.fsum(log_factor(y + j) for j in range(len(head))) - tail

    return (1 - a) * log_1mq + log_qpoch_power(1) - log_qpoch_power(a)


def qgamma(a, q, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Gamma_q(a) = (1-q)^{1-a} (q;q)_infty / (q^a;q)_infty.  For a < 0 the
    ceil(-a) factors 1 - q^{j+a} with j + a < 0 are negative."""
    value = math.exp(log_qgamma(a, q, policy))
    return -value if a < 0 and math.ceil(-a) % 2 else value


def jackson_nodes(beta, n, q):
    """The Jackson nodes of [0, beta]: (beta q^j, (1-q) beta q^j) for j <= n."""
    return [(beta * q**j, (1 - q) * beta * q**j) for j in range(n + 1)]


def _jackson_cutoff(beta, q, policy: TruncationPolicy) -> int:
    """The first n with |beta| q^n < abs_tol; the nodes left out carry total
    mass |beta| q^{n+1} < abs_tol."""
    size, qf = float(abs(beta)), float(q)
    for n in range(policy.max_terms + 1):
        if size < policy.abs_tol:
            return n
        size *= qf
    raise NonConvergenceError("jackson integral: max_terms hit before abs_tol")


def jackson_sum_0_to_beta(f, beta, N, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """int_0^beta f(x) d_{q,N} x = sum_{k<=N} f(beta q^k)(beta q^k - beta q^{k+1}).

    N may be a nonnegative int, inf, or negative (empty sum, returns 0).
    """
    check_base(q)
    if beta == 0:
        return 0
    n = _jackson_cutoff(beta, q, policy) if N == INFINITY else int(N)
    return sum(f(x) * mass for x, mass in jackson_nodes(beta, n, q))


def jackson_integral(f, alpha, beta, N, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """int_alpha^beta f d_{q,N} x, the difference of two one-endpoint sums."""
    return jackson_sum_0_to_beta(f, beta, N, q, policy) - jackson_sum_0_to_beta(
        f, alpha, N, q, policy
    )

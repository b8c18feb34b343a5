"""Scalar q-analysis primitives.

q-shifted factorials, the q-Gamma function, and Jackson q-integrals.  Two
scalar domains are supported throughout the package: exact rationals
(``fractions.Fraction``, available whenever the inputs are rational and the
product is finite) and complex doubles.  Infinite products are truncated once
the deviation of the remaining factors from 1 falls below a tolerance; the
decay is geometric in q, so this is both tight and cheap.  Each entry point
checks q in (0,1) with ``check_base``, the one q test of the package.

Every Jackson sum is a sum over one node rule, ``jackson_nodes``: points
beta q^j with masses (1-q) beta q^j (Gasper & Rahman, section 1.11).  For
N = inf the cutoff is set before summing: the first n with |beta| q^n < abs_tol.
"""

from __future__ import annotations

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
    """Stopping rule for infinite products and sums."""

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

    The result is exact when a, q are rational and i is finite.
    """
    check_base(q)
    if i == INFINITY:
        prod = 1.0
        term = complex(a) if isinstance(a, complex) else float(a)
        for _ in range(policy.max_terms):
            if abs(term) < policy.abs_tol:
                return prod
            prod *= 1 - term
            term *= q
        raise NonConvergenceError("qpochhammer: max_terms hit before tolerance")
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


@lru_cache(maxsize=128)
def log_qgamma(a, q, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """log |Gamma_q(a)| = (1-a) log(1-q) + sum_j log|(1-q^{j+1})/(1-q^{j+a})|.

    Pairing numerator and denominator factors keeps every summand O(q^j),
    so the sum converges even when the separate products underflow.  For
    a < 0 the factors with q^{j+a} > 1 are negative; ``qgamma`` restores
    the sign.  Memoised per (a, q, policy).
    """
    a = float(a)
    if a <= 0 and a == int(a):
        raise ValueError(f"qgamma pole at nonpositive integer a={a}")
    check_base(q)
    qv = float(q)
    total = (1 - a) * math.log1p(-qv)
    qj1 = qv          # q^{j+1}
    qja = qv ** a     # q^{j+a}
    for _ in range(policy.max_terms):
        term = math.log1p(-qj1) - (math.log1p(-qja) if qja < 1 else math.log(qja - 1))
        total += term
        if abs(term) < policy.abs_tol and qj1 < 0.5:
            return total
        qj1 *= qv
        qja *= qv
    raise NonConvergenceError("log_qgamma: max_terms hit before tolerance")


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

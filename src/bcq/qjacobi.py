"""Multivariable big and little q-Jacobi polynomials.

For integer k the weight on [0,1]^l (little) or [-d,c]^l (big) is prod_i
w(x_i) times the symmetric polynomial Pi = prod_{i<j} (x_i - x_j)
prod_{m=1-k}^{k-1} (x_i - q^m x_j) (Stokman, SIAM J. Math. Anal. 28, 1997).
So <P,Q> = mu_0^l L(P conj(Q) Pi), L(x^e) = prod_i nu_{e_i}, over the
one-variable moments mu_m = mu_0 nu_m, and nu_m is rational in the
parameters (Gasper & Rahman, *Basic Hypergeometric Series*, 1.3 and 2.10).
Gram matrices (for ``polyring.gram_schmidt``) and norms are exact: at float
parameters they run at the floats' binary values and round once.  The one
measured quantity is mu_0, a one-variable Jackson sum, which
``normalization_check`` compares with the q-Selberg product.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .linalg import _is_exact, integer_row
from .polyring import LaurentPoly, gram_schmidt, monomial_symmetric, require_invariant
from .qseries import NonConvergenceError, check_base, qproduct
from .report import relative_report


@dataclass(frozen=True)
class BigJacobiParams:
    """(a,b,c,d; q, t=q^k) with c,d > 0 and a in (-c/dq, 1/q),
    b in (-d/cq, 1/q), or the complex pair a = cz, b = -d conj(z)."""

    a: object
    b: object
    c: object
    d: object
    q: object
    k: int = 1

    def __post_init__(self) -> None:
        check_base(self.q, self.k)
        if not (self.c > 0 and self.d > 0):
            raise ValueError("c and d must be positive")
        a, b = self.a, self.b
        if isinstance(a, complex) or isinstance(b, complex):
            z = complex(a) / complex(self.c)
            if z.imag == 0:
                raise ValueError("complex branch needs a = cz with z not real")
            if abs(complex(b) + self.d * z.conjugate()) > 1e-12 * (1 + abs(b)):
                raise ValueError("complex branch needs b = -d conj(z)")
        else:
            if not -self.c / (self.d * self.q) < a < 1 / self.q:
                raise ValueError("a outside (-c/dq, 1/q)")
            if not -self.d / (self.c * self.q) < b < 1 / self.q:
                raise ValueError("b outside (-d/cq, 1/q)")


@dataclass(frozen=True)
class LittleJacobiParams:
    """(a,b; q, t=q^k) with a in (0, 1/q) and b < 1/q."""

    a: object
    b: object
    q: object
    k: int = 1

    def __post_init__(self) -> None:
        check_base(self.q, self.k)
        if not 0 < self.a < 1 / self.q:
            raise ValueError("a outside (0,1/q)")
        if not self.b < 1 / self.q:
            raise ValueError("b outside (-inf,1/q)")


def jacobi_params_doc(params) -> dict:
    """Report fields in declaration order: the scalars as strings, k an int."""
    doc = {name: str(value) for name, value in vars(params).items()}
    doc["k"] = params.k
    return doc


@dataclass(frozen=True)
class SumTruncation:
    """The Jackson sum of mu_0 stops once its tail bound is at most tail_tol
    times the sum, and raises past n_max terms; ``effective_n(q)`` is the
    length that q^n <= tail_tol alone would give."""

    n_max: int = 1000
    tail_tol: float = 1e-17

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not 0 < self.tail_tol < 1:
            raise ValueError("tail_tol must lie in (0, 1)")

    def effective_n(self, q: float) -> int:
        return min(self.n_max, math.ceil(math.log(self.tail_tol) / math.log(q)))


DEFAULT_TRUNCATION = SumTruncation()


def _exact(x) -> Fraction:
    """The exact value of a real scalar, or of a complex one's real part."""
    return Fraction(x.real if isinstance(x, complex) else x)


def _rounded(x, params):
    """x as it is at exact parameters, else as a float."""
    return x if all(map(_is_exact, vars(params).values())) else float(x)


@lru_cache(maxsize=32)
def _jackson_mass(params, trunc: SumTruncation) -> float:
    """mu_0 = int w d_q x over [0,1] (little) or [0,c] minus [0,-d] (big),
    each sum_j t_j, t_j = (1-q) beta q^j w(beta q^j) = t_0 prod_{i<=j} r
    prod_v (1 - v q^i) / prod_u (1 - u q^i).  No ratio past t_j exceeds
    s = |r| prod_v (1 + |v| q^{j+1}) / prod_u (1 - |u| q^{j+1}), so the sum
    stops once |t_j| s / (1 - s) <= tail_tol |sum|, and raises past n_max."""
    q = float(params.q)
    a, b = (v if isinstance(v, complex) else float(v) for v in (params.a, params.b))
    if isinstance(params, LittleJacobiParams):
        series = [(1.0, a * q, (1.0,), (b,))]  # (beta, r, u, v)
    else:
        c, d = float(params.c), float(params.d)
        series = [(c, q, (1.0, -c / d), (a, -b * c / d)), (d, q, (1.0, -d / c), (b, -a * d / c))]
    total = 0.0
    for beta, r, ups, downs in series:
        term = (1 - q) * beta * qproduct(1, [u * q for u in ups], [v * q for v in downs], params.q)
        for j in range(trunc.n_max):
            total += term
            x = q ** (j + 1)
            low = math.prod(1 - abs(u) * x for u in ups)
            s = abs(r) * math.prod(1 + abs(v) * x for v in downs) / low if low > 0 else 1.0
            if s < 1 and abs(term) * s <= trunc.tail_tol * abs(total) * (1 - s):
                break
            term *= r * math.prod(1 - v * x for v in downs) / math.prod(1 - u * x for u in ups)
        else:
            raise NonConvergenceError(f"mu_0 needs more than {trunc.n_max} Jackson terms")
    return total.real


@lru_cache(maxsize=64)
def _moments(params, top: int) -> tuple:
    """nu_0..nu_top exactly: little nu_m = nu_{m-1} (1 - aq^m) / (1 - abq^{m+1})
    (q-binomial theorem), big nu_m = ((c - d + cd u q^m) nu_{m-1} + cd (1 -
    q^{m-1}) nu_{m-2}) / (1 - abq^{m+1}), u = a/c - b/d (the weight's
    q-Pearson equation); u and ab are real on the complex branch."""
    q, nu = _exact(params.q), [Fraction(1)]
    a, b = (v if isinstance(v, complex) else Fraction(v) for v in (params.a, params.b))
    big = isinstance(params, BigJacobiParams)
    c, d = (_exact(params.c), _exact(params.d)) if big else (1, 1)
    u, ab = _exact(a / c - b / d), _exact(a * b)
    for m in range(1, top + 1):
        if big:
            older = c * d * (1 - q ** (m - 1)) * nu[m - 2] if m > 1 else 0
            nu.append(((c - d + c * d * u * q**m) * nu[-1] + older) / (1 - ab * q ** (m + 1)))
        else:
            nu.append(nu[-1] * (1 - a * q**m) / (1 - ab * q ** (m + 1)))
    return tuple(nu)


@lru_cache(maxsize=64)
def _twisted(params, l: int, degree: int):
    """(s, T): T(e) = s L(x^e Pi), an integer, for e with entries at most
    degree; S_l-invariant, as Pi is, and memoised per sorted e."""
    q, unit = _exact(params.q), [tuple(int(r == i) for r in range(l)) for i in range(l)]
    pi = LaurentPoly.const(l, 1)
    for i, j in combinations(range(l), 2):
        for m in (0, *range(1 - params.k, params.k)):
            pi = pi * LaurentPoly(l, {unit[i]: 1, unit[j]: -(q**m)})
    coeffs, pi_scale = integer_row([Fraction(c) for c in pi.terms.values()])
    nu, scale = integer_row(_moments(params, degree + 2 * params.k * (l - 1)))

    @lru_cache(maxsize=None)
    def moment(e):
        return sum(c * math.prod(nu[i + j] for i, j in zip(e, f)) for f, c in zip(pi.terms, coeffs))

    return pi_scale * scale**l, lambda e: moment(tuple(sorted(e)))


def _pair_sum(p: dict, q: dict, twisted):
    """sum_{a,b} p_a q_b T(a + b) over the terms of two S_l-symmetric polynomials:
    the sum over b is S_l-invariant in a, so each dominant a counts its orbit size."""
    total = 0
    for a, c in p.items():
        if all(x >= y for x, y in zip(a, a[1:])):
            orbit = math.factorial(len(a)) // math.prod(map(math.factorial, Counter(a).values()))
            total += c * orbit * sum(d * twisted(tuple(map(add, a, b))) for b, d in q.items())
    return total


def _part(p: LaurentPoly, part: str) -> dict:
    """The exact real or imaginary part of each coefficient of p."""
    return {e: Fraction(getattr(c, part)) for e, c in p.terms.items() if getattr(c, part)}


def _inner(P, Q, params, trunc: SumTruncation) -> float:
    """mu_0^l Re L(P conj(Q) Pi): real parts paired plus imaginary parts paired."""
    if P.nvars != Q.nvars:
        raise ValueError("arity mismatch")
    for p in (P, Q):
        require_invariant(p, "S")
    scale, table = _twisted(params, P.nvars, sum(max(map(max, p.terms), default=0) for p in (P, Q)))
    value = sum(_pair_sum(_part(P, part), _part(Q, part), table) for part in ("real", "imag"))
    return _jackson_mass(params, trunc) ** P.nvars * float(Fraction(value) / scale)


def big_inner(P, Q, params: BigJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION):
    """<P,Q>_B over [-d,c]^l; of complex polynomials its real part."""
    return _inner(P, Q, params, trunc)


def little_inner(P, Q, params: LittleJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION):
    """<P,Q>_L over [0,1]^l; of complex polynomials its real part."""
    return _inner(P, Q, params, trunc)


def _exact_poly(lam, params):
    """(P_lambda, T): ``gram_schmidt`` on the integer pairings of the orbit
    sums, all scaled by the one s of ``_twisted``."""
    lam = tuple(lam)
    twisted = _twisted(params, len(lam), 2 * max(lam, default=0))[1]

    def gram(polys):
        return [[_pair_sum(p.terms, r.terms, twisted) for r in polys] for p in polys]

    return gram_schmidt(lam, "S", gram), twisted


def _jacobi_poly(lam, params, l) -> LaurentPoly:
    if l not in (None, len(lam)):
        raise ValueError("weight length mismatch")
    poly = _exact_poly(lam, params)[0]
    return LaurentPoly(poly.nvars, {e: _rounded(c, params) for e, c in poly.terms.items()})


def big_jacobi_poly(
    lam, params: BigJacobiParams, l: int = None, trunc: SumTruncation = DEFAULT_TRUNCATION
) -> LaurentPoly:
    """Monic P^B_lambda, orthogonal to all m_mu with mu < lambda (trunc is unread)."""
    return _jacobi_poly(lam, params, l)


def little_jacobi_poly(
    lam, params: LittleJacobiParams, l: int = None, trunc: SumTruncation = DEFAULT_TRUNCATION
) -> LaurentPoly:
    """Monic P^L_lambda, orthogonal to all m_mu with mu < lambda (trunc is unread)."""
    return _jacobi_poly(lam, params, l)


def _selberg(params, l: int, scale, num, den):
    """``qproduct`` of scale l! (1-q)^l, num and den times the q-Selberg core
    (q, t, abq^2 t^{l+i-2}; q)_inf / (aq t^{i-1}, bq t^{i-1}, t^i; q)_inf over
    i = 1..l, t = q^k, which at a = q^alpha, b = q^beta is (1-q)^{-l} prod_i
    Gamma_q(alpha+1+(i-1)k) Gamma_q(beta+1+(i-1)k) Gamma_q(ik) /
    (Gamma_q(alpha+beta+2+(l+i-2)k) Gamma_q(k))."""
    a, b, q, t = params.a, params.b, params.q, params.q**params.k
    num += [v for i in range(l) for v in (q, t, a * b * q * q * t ** (l + i - 1))]
    den += [v for i in range(l) for v in (a * q * t**i, b * q * t**i, t ** (i + 1))]
    return qproduct(math.factorial(l) * (1 - q) ** l * scale, num, den, q)


def closed_form_little_constant(params: LittleJacobiParams, l: int):
    """<1,1>_L = (aq)^{k C(l,2)} q^{2k^2 C(l,3)} ``_selberg`` (Askey-Kadell);
    its q->1 limit at a = q^alpha, b = q^beta is Selberg's integral."""
    q, k = params.q, params.k
    scale = (params.a * q) ** (k * math.comb(l, 2)) * q ** (2 * k * k * math.comb(l, 3))
    return _selberg(params, l, scale, [], [])


def closed_form_big_constant(params: BigJacobiParams, l: int):
    """<1,1>_B = q^{k^2 C(l,3) - C(k,2) C(l,2)} (cd)^{l + k C(l,2)} / (c+d)^l
    ``_selberg`` prod_i (-d/c, -c/d; q)_inf / (-aq t^{i-1} d/c, -bq t^{i-1} c/d; q)_inf."""
    a, b, c, d, q, k = params.a, params.b, params.c, params.d, params.q, params.k
    e = k * k * math.comb(l, 3) - math.comb(k, 2) * math.comb(l, 2)
    scale = q**e * (c * d) ** (l + k * math.comb(l, 2)) / (c + d) ** l
    s = [q ** (1 + k * i) for i in range(l)]
    den = [v for x in s for v in (-a * x * d / c, -b * x * c / d)]
    return _selberg(params, l, scale, [-d / c, -c / d] * l, den)


def normalization_check(params, l: int, trunc: SumTruncation = DEFAULT_TRUNCATION):
    """mu_0^l L(Pi), with mu_0 the one-variable Jackson sum, against the
    closed-form constant (big or little), to a relative 1e-10; at l >= 2
    this is the Askey-Habsieger-Kadell theorem."""
    big, one = isinstance(params, BigJacobiParams), LaurentPoly.const(l, 1)
    closed = closed_form_big_constant if big else closed_form_little_constant
    identity = f"{'big' if big else 'little'}-jacobi-normalization"
    return relative_report(identity, {"l": l, "q": str(params.q), "k": params.k},
                           lambda: (_inner(one, one, params, trunc), closed(params, l)), 1e-10)


def _norm(lam, params):
    """<P,P> / <1,1> = L(P m_lambda Pi) / L(Pi), as P is orthogonal to its
    lower terms; exact, and rounded once at float parameters."""
    lam = tuple(lam)
    poly, twisted = _exact_poly(lam, params)
    top = _pair_sum(poly.terms, monomial_symmetric(lam, len(lam)).terms, twisted)
    return _rounded(Fraction(top) / twisted((0,) * len(lam)), params)


def norm_big(lam, params: BigJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION):
    """N_B(lambda) = <P_lambda, P_lambda>_B / <1,1>_B (trunc is unread)."""
    return _norm(lam, params)


def norm_little(lam, params: LittleJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION):
    """N_L(lambda) = <P_lambda, P_lambda>_L / <1,1>_L (trunc is unread)."""
    return _norm(lam, params)

"""Multivariable big and little q-Jacobi polynomials.

The inner products are l-fold Jackson sums over ``qseries.jackson_nodes``
up to n = ``SumTruncation.effective_n(q)``, fixed before summing like the
N = inf cutoff of ``qseries``: little over [0,1]^l, big over [-d,c]^l, where
the nodes of [0,-d] enter with negated masses.  The weight is
the Vandermonde times a one-variable weight per coordinate times the
coupling factors x_i^{2k-1} (q^{1-k} x_j / x_i; q)_{2k-1}.  Polynomials are
built by Gram-Schmidt over the dominance downset; q-difference operators
for these families are deliberately not implemented.

The weight is symmetric under S_l, and the pair factor (x - y) x^{2k-1}
(q^{1-k} y/x; q)_{2k-1} is exactly 0.0 where two nodes coincide, so for
S_l-symmetric P and Q the l-fold grid sum is l! times the sum over one
chamber, the strictly increasing node-index tuples s_1 < ... < s_l.  The
inner products take symmetric polynomials only (no negative exponent) and
raise ``ValueError`` on any other input.  Per parameter set only one
coordinate's nodes, masses and table of pair coupling factors are cached.
The sums stream over the first coordinate: for each node s_1,
``polyring.grid_values`` evaluates every polynomial once on the product
grid of the nodes after it, and the chamber points are gathered from that
grid and weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import mul

from .linalg import solve_linear
from .polyring import (
    LaurentPoly,
    grid_values,
    monomial_symmetric,
    rebuild_from_basis,
    require_invariant,
)
from .qseries import _qpoch_finite, check_base, jackson_nodes
from .qseries import log_qgamma, qpochhammer
from .report import relative_report
from .weights import dominant_downset


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
    """Per-variable Jackson-sum truncation with a geometric tail bound."""

    n_max: int = 200
    tail_tol: float = 1e-14

    def effective_n(self, q: float) -> int:
        n = int(math.ceil(math.log(self.tail_tol) / math.log(q)))
        return min(self.n_max, max(n, 1))


DEFAULT_TRUNCATION = SumTruncation()


def big_weight_1d(x, params: BigJacobiParams):
    """w_B(x) = (qx/c, -qx/d; q)_inf / (qax/c, -qbx/d; q)_inf."""
    q, a, b, c, d = float(params.q), params.a, params.b, float(params.c), float(params.d)
    num = qpochhammer(q * x / c, q, math.inf) * qpochhammer(-q * x / d, q, math.inf)
    den = qpochhammer(q * a * x / c, q, math.inf) * qpochhammer(-q * b * x / d, q, math.inf)
    return num / den


@lru_cache(maxsize=32)
def _grid_1d(params, trunc: SumTruncation):
    """The 1-D Jackson nodes of one coordinate and their masses mass*w_1d.

    Little: the nodes of [0,1], x = q^j with x^alpha = a^j.  Big: the nodes
    of [0,c] and of [0,-d], the latter with masses negated, since
    int_{-d}^c = int_0^c - int_0^{-d}.
    """
    q = float(params.q)
    n = trunc.effective_n(q)
    if isinstance(params, LittleJacobiParams):
        a, b, inf = float(params.a), float(params.b), math.inf

        def w(j, x):  # w_L(x) at x = q^j, where x^alpha = a^j
            return qpochhammer(q * x, q, inf) / qpochhammer(q * b * x, q, inf) * a**j

        points = [(x, m * w(j, x)) for j, (x, m) in enumerate(jackson_nodes(1, n, q))]
    else:
        c, d = float(params.c), float(params.d)
        points = [(x, m * big_weight_1d(x, params)) for x, m in jackson_nodes(c, n, q)]
        points += [(x, -m * big_weight_1d(x, params)) for x, m in jackson_nodes(-d, n, q)]
    return tuple(zip(*points))


@lru_cache(maxsize=32)
def _pair_table(params, trunc: SumTruncation):
    """The coupling factors pair[i][j] = (x - y) x^{2k-1} (q^{1-k} y/x; q)_{2k-1}
    of x_i = nodes[i] before x_j = nodes[j]; cached apart, as only l >= 2 reads it."""
    q, k = float(params.q), params.k
    nodes = _grid_1d(params, trunc)[0]
    return [
        [(x - y) * (x ** (2 * k - 1) * _qpoch_finite(q ** (1 - k) * (y / x), q, 2 * k - 1))
         for y in nodes]
        for x in nodes
    ]


def _chamber_weight_rows(u, pair, dim: int, lo: int = 0):
    """The weights prod_i u[s_i - lo] prod_{i<j} pair[s_i][s_j] over the
    chamber lo <= s_1 < ... < s_dim < lo + len(u), one row per s_1
    (lexicographic over s_2..s_dim): u[s_1 - lo] times the same product one
    dimension lower over the nodes after s_1, at u * pair[s_1]."""
    for s, (us, row) in enumerate(zip(u, pair[lo:]), lo):
        v = list(map(mul, u[s - lo + 1 :], row[s + 1 :]))
        if dim > 2:
            v = list(chain.from_iterable(_chamber_weight_rows(v, pair, dim - 1, s + 1)))
        yield list(map(mul, repeat(us), v))


def _chamber_index(m: int, dim: int, lo: int = 0):
    """Flat row-major indices into the m^dim product grid of the chamber
    lo <= s_1 < ... < s_dim < m, in lexicographic order."""
    if dim == 1:
        return range(lo, m)
    stride = m ** (dim - 1)
    out = []
    for s in range(lo, m):
        out.extend(map((s * stride).__add__, _chamber_index(m, dim - 1, s + 1)))
    return out


def _chamber_rows(params, trunc: SumTruncation, l: int, power):
    """The chamber s_1 < ... < s_l of the l-fold grid, one row per s_1: the
    pinned node x_{s_1}, the powers x^e over the nodes after it, the flat
    indices of the chamber in the (l-1)-fold product grid of those nodes,
    and the chamber weights."""
    nodes, masses = _grid_1d(params, trunc)
    weight_rows = _chamber_weight_rows(masses, _pair_table(params, trunc), l)
    for s, weights in enumerate(weight_rows):
        if not weights:
            return
        tail = lru_cache(maxsize=None)(lambda e, s=s: power(e)[s + 1 :])
        yield (nodes[s],), tail, _chamber_index(len(nodes) - s - 1, l - 1), weights


def _gram_sums(polys, params, l: int, trunc: SumTruncation):
    """All pairwise <polys[i], polys[j]> of S_l-symmetric polynomials.  The
    weight is symmetric and vanishes exactly where two nodes coincide (the
    factor x - y of the pair table), so at l >= 2 the l-fold grid is summed
    over one chamber s_1 < ... < s_l, times l!.  The sum streams over s_1:
    the polynomials are evaluated on the product grid of the nodes after
    it and gathered at the chamber; at l = 1 it is one row over all nodes."""
    for p in polys:
        require_invariant(p, "S")
    nodes, masses = _grid_1d(params, trunc)
    power = lru_cache(maxsize=None)(lambda e: [x**e for x in nodes])
    if l == 1:
        rows = [((), power, range(len(nodes)), masses)]
    else:
        rows = _chamber_rows(params, trunc, l, power)
    n = len(polys)
    sums = [[0.0] * n for _ in range(n)]
    for fixed, tail, index, weights in rows:
        vals = []
        for p in polys:
            on_grid = grid_values(p, tail, fixed, l - len(fixed))
            vals.append(list(map(on_grid.__getitem__, index)))
        conj = [list(map(complex.conjugate, v)) for v in vals]
        for i in range(n):
            for j in range(i, n):
                sums[i][j] += sum(map(mul, map(mul, vals[i], conj[j]), weights)).real
    fold = math.factorial(l)
    for i in range(n):
        for j in range(i, n):
            sums[i][j] *= fold
            sums[j][i] = sums[i][j]
    return sums


def _inner(P, Q, params, trunc: SumTruncation):
    if P.nvars != Q.nvars:
        raise ValueError("arity mismatch")
    g = _gram_sums([P, Q], params, P.nvars, trunc)
    return g[0][1]


def big_inner(P, Q, params: BigJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION):
    """<P,Q>_B: the l-fold truncated Jackson sum over [-d,c]^l."""
    return _inner(P, Q, params, trunc)


def little_inner(
    P, Q, params: LittleJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION
):
    """<P,Q>_L: the l-fold truncated Jackson sum over [0,1]^l."""
    return _inner(P, Q, params, trunc)


def _jacobi_poly(lam, params, l, trunc: SumTruncation) -> LaurentPoly:
    lam = tuple(lam)
    l = len(lam) if l is None else l
    downset = dominant_downset(lam)
    lower = [mu for mu in downset if mu != lam]
    if not lower:
        return monomial_symmetric(lam, l)
    basis = [monomial_symmetric(mu, l) for mu in lower]
    top = monomial_symmetric(lam, l)
    sums = _gram_sums(basis + [top], params, l, trunc)
    n = len(basis)
    gram = [[sums[i][j] for j in range(n)] for i in range(n)]
    rhs = [-sums[i][n] for i in range(n)]
    sol = solve_linear(gram, rhs)
    coeffs = {lam: 1}
    for mu, c in zip(lower, sol):
        if c != 0:
            coeffs[mu] = c
    return rebuild_from_basis(coeffs, "S", l)


def big_jacobi_poly(
    lam, params: BigJacobiParams, l: int = None, trunc: SumTruncation = DEFAULT_TRUNCATION
) -> LaurentPoly:
    """Monic P^B_lambda, orthogonal to all m_mu with mu < lambda."""
    return _jacobi_poly(lam, params, l, trunc)


def little_jacobi_poly(
    lam,
    params: LittleJacobiParams,
    l: int = None,
    trunc: SumTruncation = DEFAULT_TRUNCATION,
) -> LaurentPoly:
    """Monic P^L_lambda, orthogonal to all m_mu with mu < lambda."""
    return _jacobi_poly(lam, params, l, trunc)


def _gamma_ratio_product(
    alpha: float, beta: float, k: int, l: int, q: float, log_start: float = 0.0
) -> float:
    """exp(log_start) prod_i Gamma_q(alpha+1+(i-1)k) Gamma_q(beta+1+(i-1)k)
    Gamma_q(ik) / (Gamma_q(alpha+beta+2+(l+i-2)k) Gamma_q(k)), in log space."""
    total = log_start
    for i in range(1, l + 1):
        total += log_qgamma(alpha + 1 + (i - 1) * k, q)
        total += log_qgamma(beta + 1 + (i - 1) * k, q)
        total += log_qgamma(i * k, q)
        total -= log_qgamma(alpha + beta + 2 + (l + i - 2) * k, q)
        total -= log_qgamma(k, q)
    return math.exp(total)


def _alpha_beta(params):
    """(alpha, beta) with a = q^alpha, b = q^beta, as the closed forms need."""
    if not params.a > 0 or not params.b > 0:
        raise ValueError("closed form needs a = q^alpha, b = q^beta with a,b > 0")
    log_q = math.log(float(params.q))
    return math.log(float(params.a)) / log_q, math.log(float(params.b)) / log_q


def closed_form_little_constant(alpha: float, beta: float, k: int, l: int, q: float) -> float:
    """<1,1>_L = l! q^{k(alpha+1) C(l,2) + 2 k^2 C(l,3)} * Gamma_q product,
    for a = q^alpha, b = q^beta; its q->1 limit is Selberg's Gamma product."""
    e = k * (alpha + 1) * math.comb(l, 2) + 2 * k**2 * math.comb(l, 3)
    log_start = math.log(math.factorial(l)) + e * math.log(q)
    return _gamma_ratio_product(alpha, beta, k, l, q, log_start)


def closed_form_big_constant(params: BigJacobiParams, l: int) -> float:
    """<1,1>_B = l! q^{k^2 C(l,3) - C(k,2) C(l,2)} * Gamma_q product *
    prod_i (-d/c, -c/d; q)_inf (cd)^{1+(i-1)k} /
    ((-q^{alpha+1+(i-1)k} d/c, -q^{beta+1+(i-1)k} c/d; q)_inf (c+d))."""
    q = float(params.q)
    alpha, beta = _alpha_beta(params)
    c, d = float(params.c), float(params.d)
    k = params.k
    prefactor = q ** (k**2 * math.comb(l, 3) - math.comb(k, 2) * math.comb(l, 2))
    total = math.factorial(l) * prefactor * _gamma_ratio_product(alpha, beta, k, l, q)
    inf = math.inf
    for i in range(1, l + 1):
        num = (
            qpochhammer(-d / c, q, inf)
            * qpochhammer(-c / d, q, inf)
            * (c * d) ** (1 + (i - 1) * k)
        )
        den = (
            qpochhammer(-(q ** (alpha + 1 + (i - 1) * k)) * d / c, q, inf)
            * qpochhammer(-(q ** (beta + 1 + (i - 1) * k)) * c / d, q, inf)
            * (c + d)
        )
        total *= num / den
    return total


def normalization_check(
    params, l: int, trunc: SumTruncation = DEFAULT_TRUNCATION, rel_tol: float = 1e-10
):
    """Jackson-sum <1,1> against the closed-form constant (big or little)."""
    big = isinstance(params, BigJacobiParams)

    def measure():
        measured = _gram_sums([LaurentPoly.const(l, 1)], params, l, trunc)[0][0]
        if big:
            return measured, closed_form_big_constant(params, l)
        alpha, beta = _alpha_beta(params)
        return measured, closed_form_little_constant(alpha, beta, params.k, l, float(params.q))

    identity = "big-jacobi-normalization" if big else "little-jacobi-normalization"
    params_doc = {"l": l, "q": str(params.q), "k": params.k}
    return relative_report(identity, params_doc, measure, rel_tol)


def _norm(lam, params, trunc: SumTruncation, jacobi_poly) -> float:
    """<P,P> / <1,1> from one Jackson sum over P and 1."""
    l = len(lam)
    poly = jacobi_poly(lam, params, l, trunc)
    sums = _gram_sums([poly, LaurentPoly.const(l, 1)], params, l, trunc)
    return sums[0][0] / sums[1][1]


def norm_big(
    lam, params: BigJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION
) -> float:
    """N_B(lambda) = <P_lambda, P_lambda>_B / <1,1>_B."""
    return _norm(lam, params, trunc, big_jacobi_poly)


def norm_little(
    lam, params: LittleJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION
) -> float:
    """N_L(lambda) = <P_lambda, P_lambda>_L / <1,1>_L."""
    return _norm(lam, params, trunc, little_jacobi_poly)

"""Multivariable big and little q-Jacobi polynomials.

The inner products are l-fold Jackson sums over ``qseries.jackson_nodes``,
the package's one Jackson-sum rule, up to n = ``SumTruncation.effective_n(q)``,
fixed before summing from a geometric tail bound: little over [0,1]^l, big
over [-d,c]^l, where the nodes of [0,-d] enter with negated masses.  The
weight is the Vandermonde times a one-variable weight per coordinate times the
coupling factors x_i^{2k-1} (q^{1-k} x_j / x_i; q)_{2k-1}.  Polynomials are
built by ``polyring.gram_schmidt`` over the dominance downset, with the Gram
matrix of ``_gram_sums`` (the one Gram-Schmidt routine, which the Koornwinder
Gram mode shares); q-difference operators are deliberately not implemented.
The total masses <1,1> are q-Selberg products in a and b, one
``qseries.qproduct`` call each: defined at a, b <= 0, exact where all pair.

The weight is symmetric under S_l, and the pair factor (x - y) x^{2k-1}
(q^{1-k} y/x; q)_{2k-1} is exactly 0.0 where two nodes coincide, so for
S_l-symmetric P and Q the l-fold grid sum is l! times the sum over one
chamber, the strictly increasing node-index tuples s_1 < ... < s_l.  The
inner products take symmetric polynomials only (no negative exponent) and
raise ``ValueError`` on any other input.  Per parameter set only one
coordinate's nodes, masses and table of pair coupling factors are cached.
The sums stream over the first coordinate: for each node s_1,
``polyring.chamber_values`` evaluates every polynomial once at the chamber
points of the nodes after it, which are then weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import mul

from .polyring import LaurentPoly, chamber_values, gram_schmidt, require_invariant
from .qseries import _qpoch_finite, _qpoch_row, check_base, jackson_nodes, qproduct
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
    """Per-variable Jackson-sum truncation with a geometric tail bound."""

    n_max: int = 200
    tail_tol: float = 1e-14

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not 0 < self.tail_tol < 1:
            raise ValueError("tail_tol must lie in (0, 1)")

    def effective_n(self, q: float) -> int:
        return min(self.n_max, math.ceil(math.log(self.tail_tol) / math.log(q)))


DEFAULT_TRUNCATION = SumTruncation()


def big_weight_1d(x, params: BigJacobiParams):
    """w_B(x) = (qx/c, -qx/d; q)_inf / (qax/c, -qbx/d; q)_inf."""
    q, a, b, c, d = float(params.q), params.a, params.b, float(params.c), float(params.d)
    n1, n2, d1, d2 = _qpoch_row([q * x / c, -q * x / d, q * a * x / c, -q * b * x / d], q)
    return n1 * n2 / (d1 * d2)


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
        a, b = float(params.a), float(params.b)
        nodes = jackson_nodes(1, n, q)  # x = q^j, so x^alpha = a^j in w_L(x)
        num, den = (_qpoch_row([r * x for x, _ in nodes], q) for r in (q, q * b))
        points = [(x, m * (u / v * a**j)) for j, ((x, m), u, v) in enumerate(zip(nodes, num, den))]
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


def _chamber_rows(params, trunc: SumTruncation, l: int, power):
    """The chamber s_1 < ... < s_l of the l-fold grid, one row per s_1: the
    pinned node x_{s_1}, the powers x^e over the nodes after it, and the
    chamber weights, in the order of ``chamber_values`` over those nodes."""
    nodes, masses = _grid_1d(params, trunc)
    weight_rows = _chamber_weight_rows(masses, _pair_table(params, trunc), l)
    for s, weights in enumerate(weight_rows):
        if not weights:
            return
        tail = lru_cache(maxsize=None)(lambda e, s=s: power(e)[s + 1 :])
        yield (nodes[s],), tail, weights


def _gram_sums(polys, params, l: int, trunc: SumTruncation, pairs=None):
    """The pairwise <polys[i], polys[j]> of S_l-symmetric polynomials for
    the (i, j), i <= j, of ``pairs`` (default every one), in a symmetric
    matrix with 0.0 at the pairs not summed: l! times the chamber sum of the
    module docstring, streamed over s_1; at l = 1 one row over all nodes.
    Each pair is its own sum, so it keeps its bits whichever others run."""
    for p in polys:
        require_invariant(p, "S")
    nodes, masses = _grid_1d(params, trunc)
    power = lru_cache(maxsize=None)(lambda e: [x**e for x in nodes])
    if l == 1:
        rows = [((), power, masses)]
    else:
        rows = _chamber_rows(params, trunc, l, power)
    n = len(polys)
    pairs = [(i, j) for i in range(n) for j in range(i, n)] if pairs is None else pairs
    sums = [[0.0] * n for _ in range(n)]
    for fixed, tail, weights in rows:
        vals = [chamber_values(p, tail, fixed, l - len(fixed)) for p in polys]
        conj = {j: list(map(complex.conjugate, vals[j])) for j in {j for _, j in pairs}}
        for i, j in pairs:
            sums[i][j] += sum(map(mul, map(mul, vals[i], conj[j]), weights)).real
    fold = math.factorial(l)
    for i, j in pairs:
        sums[i][j] *= fold
        sums[j][i] = sums[i][j]
    return sums


def _inner(P, Q, params, trunc: SumTruncation):
    if P.nvars != Q.nvars:
        raise ValueError("arity mismatch")
    return _gram_sums([P, Q], params, P.nvars, trunc, [(0, 1)])[0][1]


def big_inner(P, Q, params: BigJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION):
    """<P,Q>_B: the l-fold truncated Jackson sum over [-d,c]^l."""
    return _inner(P, Q, params, trunc)


def little_inner(
    P, Q, params: LittleJacobiParams, trunc: SumTruncation = DEFAULT_TRUNCATION
):
    """<P,Q>_L: the l-fold truncated Jackson sum over [0,1]^l."""
    return _inner(P, Q, params, trunc)


def _jacobi_poly(lam, params, l, trunc: SumTruncation) -> LaurentPoly:
    if l not in (None, len(lam)):
        raise ValueError("weight length mismatch")

    def gram(polys):  # every pair but <m_lambda, m_lambda>, which gram_schmidt never reads
        n = len(polys)
        pairs = [(i, j) for i in range(n - 1) for j in range(i, n)]
        return _gram_sums(polys, params, len(lam), trunc, pairs)

    return gram_schmidt(lam, "S", gram)


def big_jacobi_poly(
    lam, params: BigJacobiParams, l: int = None, trunc: SumTruncation = DEFAULT_TRUNCATION
) -> LaurentPoly:
    """Monic P^B_lambda, orthogonal to all m_mu with mu < lambda."""
    return _jacobi_poly(lam, params, l, trunc)


def little_jacobi_poly(
    lam, params: LittleJacobiParams, l: int = None, trunc: SumTruncation = DEFAULT_TRUNCATION
) -> LaurentPoly:
    """Monic P^L_lambda, orthogonal to all m_mu with mu < lambda."""
    return _jacobi_poly(lam, params, l, trunc)


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
    """Jackson-sum <1,1> against the closed-form constant (big or little), to
    a relative 1e-10."""
    big = isinstance(params, BigJacobiParams)

    def measure():
        measured = _gram_sums([LaurentPoly.const(l, 1)], params, l, trunc)[0][0]
        closed = closed_form_big_constant if big else closed_form_little_constant
        return measured, closed(params, l)

    identity = "big-jacobi-normalization" if big else "little-jacobi-normalization"
    params_doc = {"l": l, "q": str(params.q), "k": params.k}
    return relative_report(identity, params_doc, measure, 1e-10)


def _norm(lam, params, trunc: SumTruncation, jacobi_poly) -> float:
    """<P,P> / <1,1> from one Jackson sum over P and 1."""
    l = len(lam)
    poly = jacobi_poly(lam, params, l, trunc)
    sums = _gram_sums([poly, LaurentPoly.const(l, 1)], params, l, trunc, [(0, 0), (1, 1)])
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

"""The full Koornwinder orthogonality inner product.

For parameters inside the unit disc the measure is purely continuous: an
l-fold torus integral against the Askey-Wilson weight w_2 per coordinate and
the (x_i^e x_j^e'; q)_k coupling factors.  Parameters outside the unit disc
contribute residue-discrete Jackson parts: coordinate r is pinned to the
geometric sequence t_a q^i (|t_a q^i| > 1) with mass w_1(t_a q^i), the
residue of w_2(x)/x there, in closed form (Askey & Wilson, Mem. AMS 319,
1985; Gasper & Rahman, section 7.5).  The m-th mixed term carries the
combinatorial prefactor 2^m binom(l,m).

Torus integrals use the trapezoid rule on uniform circle grids (periodic
analytic integrand, hence spectral accuracy) with doubling refinement.  The
weight is invariant under the hyperoctahedral group W_dim acting on the
continuous coordinates (permuting them and inverting each), and so is
P conj(Q) when P and Q are W-invariant, pinned coordinates included: a
grid point's orbit then carries one value.  The weight is 0.0 on the walls
s_i = 0 (w_2 has the factor 1 - x^2) and s_i = +-s_j mod m (g(1) = 0).  At
s_i = m/2 w_2(-1) = 0 too, as 1 - x^2 vanishes and t_a = -1 is rejected as
degenerate; the float root of -1 leaves only a rounding residue.  So the
grid sum runs over the open Weyl chamber 0 < s_1 < ... < s_dim < m/2,
dim! 2^dim grid points each, where ``polyring.chamber_values`` evaluates
each polynomial one coordinate at a time.  ``full_inner`` and
``continuous_gram`` reject a P or Q that is not W-invariant, for which
the chamber sum (and the residue prefactor) would be wrong.

Each ingredient is computed once, in a bounded ``lru_cache``: the float
parameters per params; (t x, t/x; q)_inf per (t, q, m) and (x^2, x^-2; q)_inf
per (q, m), each table one row of ``qseries._qpoch_row``, and w_2 per
(params, m), on the open half grid 0 < s < m/2, even points read from the
coarser grid; root powers per m; chamber weights,
coupling factor included, per (params, m, pinned points, dim), built one row
s_1 < ... < s_{dim-1} at a time and shared by Gram matrices and the two inner
products of ``norm_K``; residue masses per (a, i, params); the chamber values
of a polynomial per (polynomial, m) in the torus term, which pins no
coordinate and does not depend on the parameters.  Params with Fraction and
float entries compare equal, so these caches hold only what the float
parameters fix.  A term with pinned points t_a q^i, which move with the
parameters, evaluates each polynomial once per grid within a call.  A term
that pins every coordinate is one point and no grid: its values are summed
from tables kept for the call, the powers of each point and the terms times
the powers of each prefix of leading points (``_pinned_values``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, combinations_with_replacement, repeat
from itertools import product as iproduct
from operator import mul

from .polyring import LaurentPoly, chamber_values, require_invariant
from .qseries import NonConvergenceError, _qpoch_finite, _qpoch_row, qpochhammer, qproduct
from .report import relative_report

_DEGENERACY_TOL = 1e-12
_N_E_CAP = 64


class DegenerateParameterError(ArithmeticError):
    """Colliding poles of the weight function; the measure is undefined."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform circle grids with doubling refinement."""

    m_start: int = 16
    rel_tol: float = 1e-10
    max_points: int = 2**14

    def __post_init__(self) -> None:
        if self.m_start < 8:
            raise ValueError("m_start must be at least 8")
        if self.max_points < self.m_start:
            raise ValueError("max_points must be at least m_start")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


DEFAULT_GRID = QuadratureGrid()


@lru_cache(maxsize=256)
def _params_float(params):
    """(t_0..t_3) as floats, or complex off the real line, and q as a float."""
    ts = tuple(z.real if z.imag == 0 else z for z in map(complex, params.tuple4))
    return ts, float(params.q)


def _vanishes(z, q: float) -> bool:
    """(z; q)_inf has a factor 1 - z q^j within the degeneracy tolerance of
    zero; only the j with |z q^j| nearest 1 can be that close."""
    if z == 0:
        return False
    j = max(0, round(math.log(abs(z)) / -math.log(q)))
    return abs(z * q**j - 1) < _DEGENERACY_TOL


def check_degeneracy(params) -> None:
    """Reject t_i t_j q^m = 1 (colliding weight poles) within tolerance."""
    ts, q = _params_float(params)
    for i, j in combinations_with_replacement(range(4), 2):
        if _vanishes(ts[i] * ts[j], q):
            raise DegenerateParameterError(f"t_{i} t_{j} q^m = 1 within tolerance")


def truncation_index(e, q: float) -> int:
    """N_e: the largest integer with |e q^{N_e}| > 1, or -1 if |e| <= 1.
    An N_e past ``_N_E_CAP`` raises rather than truncating the support."""
    if abs(e) <= 1:
        return -1
    n = 0
    while abs(e) * q ** (n + 1) > 1:
        if n == _N_E_CAP:
            raise NonConvergenceError(f"N_e exceeds {_N_E_CAP} at |t| = {abs(e)}, q = {q}")
        n += 1
    return n


def discrete_support(params) -> dict:
    """Map parameter index -> N_e for each of (t0..t3)."""
    ts, q = _params_float(params)
    return {i: truncation_index(ts[i], q) for i in range(4)}


def w2_value(x, params):
    """w_2(x) = (x^2, x^-2; q)_inf / prod_a (t_a x, t_a / x; q)_inf."""
    ts, q = _params_float(params)
    a, b, *den = _qpoch_row([x * x, 1 / (x * x), *(z for t in ts for z in (t * x, t / x))], q)
    return a * b / reduce(mul, den, 1.0)


@lru_cache(maxsize=256)
def residue_weight(a: int, i: int, params):
    """w_1(x) = res_{x = t_a q^i} (w_2(x)/x) in closed form,

        (x^2, x^-2; q)_inf / [(t_a x; q)_inf (q^-i; q)_i (q; q)_inf
                              prod_{b != a} (t_b x, t_b / x; q)_inf],

    at x = t_a q^i, for the parameter index a.  A denominator factor within
    the degeneracy tolerance of zero is a pole collision and raises, and so
    does a mass whose q-products overflow doubles (``NonConvergenceError``)."""
    ts, q = _params_float(params)
    x = ts[a] * q**i
    poles = [ts[a] * x]
    poles += [z for b, t in enumerate(ts) if b != a for z in (t * x, t / x)]
    if any(_vanishes(z, q) for z in poles):
        raise DegenerateParameterError(f"pole collision at t_{a} q^{i}")
    x2, x_2, q_q, *den = _qpoch_row([x * x, 1 / (x * x), q, *poles], q)
    mass = x2 * x_2 / reduce(mul, den, qpochhammer(q**-i, q, i) * q_q)
    if not cmath.isfinite(mass):
        raise NonConvergenceError(f"residue mass at t_{a} q^{i} overflows doubles")
    return mass


@lru_cache(maxsize=64)
def _roots_of_unity(m: int):
    return tuple(cmath.exp(2j * cmath.pi * s / m) for s in range(m))


@lru_cache(maxsize=64)
def _root_powers(m: int):
    """e -> the e-th powers w^{se mod m} of the roots w^s, 0 < s < m/2 (shared, read only)."""
    roots = _roots_of_unity(m)
    half = range(1, (m + 1) // 2)
    return lru_cache(maxsize=256)(lambda e: [roots[s * e % m] for s in half])


@lru_cache(maxsize=128)
def _qpoch_pairs(t, q: float, m: int):
    """((t x; q)_inf, (t / x; q)_inf), or for t = None (x^2; q)_inf and
    (x^-2; q)_inf, at the m-th roots of unity x = w^s, 0 < s < m/2.  For
    even m the even s are the (m/2)-th roots (bit for bit): their pairs are
    read from the table of the coarser grid of the doubling, at s/2.  The
    other pairs are one row of ``_qpoch_row``."""
    roots = _roots_of_unity(m)
    coarse = _qpoch_pairs(t, q, m // 2) if m % 2 == 0 else ()
    half = range(1, (m + 1) // 2)
    xs = [roots[s] for s in half if not coarse or s % 2]
    args = [(x * x, 1 / (x * x)) if t is None else (t * x, t / x) for x in xs]
    fresh = iter(_qpoch_row(chain.from_iterable(args), q))
    fresh = zip(fresh, fresh)
    return tuple(coarse[s // 2 - 1] if coarse and s % 2 == 0 else next(fresh) for s in half)


@lru_cache(maxsize=256)
def _w2_on_roots(params, m: int):
    """w_2 at the m-th roots of unity w^s, 0 < s < m/2 (w_2(1/x) = w_2(x)
    gives the rest, and the open chamber reads no wall), multiplied in the
    order of ``w2_value``: each entry is ``w2_value(w^s, params)`` bit for bit."""
    ts, q = _params_float(params)
    rows = zip(*(_qpoch_pairs(t, q, m) for t in ts))
    return tuple(
        a * b / reduce(mul, chain.from_iterable(row), 1.0)
        for (a, b), row in zip(_qpoch_pairs(None, q, m), rows)
    )


def _coupling(q: float, k: int, fixed):
    """g(z) = (z; q)_k (1/z; q)_k, and the product of g(x y) g(x / y) over
    the pairs of pinned coordinates x, y."""

    def g(z):
        return _qpoch_finite(z, q, k) * _qpoch_finite(1 / z, q, k)

    const = 1.0 + 0j
    for x, y in combinations(fixed, 2):
        const *= g(x * y) * g(x / y)
    return g, const


@lru_cache(maxsize=256)
def _weight_on_grid(params, m: int, fixed, dim: int):
    """The weights at the points of the open Weyl chamber, times dim! 2^dim,
    in the order of ``chamber_values``: the w_2 factors of the continuous
    coordinates times the full coupling factor prod_{i<j} g(x_i x_j)
    g(x_i / x_j).  A continuous pair reads g from one table over the root
    indices s_i +- s_j mod m; a pinned x gives the table g(x w^s) g(x / w^s)
    on the open half grid.  One row per s_1 < ... < s_{dim-1}, over s_dim:
    each weight is its singles in order times its pair factors in
    ``combinations`` order."""
    g, const = _coupling(_params_float(params)[1], params.k, fixed)
    roots = _roots_of_unity(m)
    top = (m + 1) // 2
    single = _w2_on_roots(params, m)
    for x in fixed:
        single = [v * g(x * roots[s]) * g(x / roots[s]) for v, s in zip(single, range(1, top))]
    size = math.factorial(dim) << dim
    if not dim:
        return (const * size,)
    pair = [g(z) for z in roots] if dim > 1 else []
    back = pair[::-1]  # back[r - s - 1] = pair[(s - r) % m] for r > s
    weights = []
    for head in combinations(range(1, top), dim - 1):
        lo = head[-1] if head else 0
        val = const * size
        for s in head:
            val *= single[s - 1]
        row = map(mul, repeat(val), single[lo:])
        for i, j in combinations(range(dim), 2):
            s = head[i]
            if j < dim - 1:  # both in the head: one factor for the row
                row = map(mul, row, repeat(pair[(s + head[j]) % m] * pair[(s - head[j]) % m]))
            else:  # the pair (s, s_dim), s < s_dim < top: s + s_dim < m
                plus, minus = pair[s + lo + 1 : s + top], back[lo - s : top - 1 - s]
                row = map(mul, row, map(mul, plus, minus))
        weights.extend(row)
    return tuple(weights)


@lru_cache(maxsize=32)
def _torus_values(p: LaurentPoly, m: int):
    """p at the open Weyl chamber points of the m-point grid, no coordinate
    pinned (shared, read only).  The size must exceed the polynomials times
    grids of one Gram matrix (6 on 3 grids at l = 2, read pair by pair), or
    its cyclic reads evict each entry before its reuse."""
    return chamber_values(p, _root_powers(m), (), p.nvars)


def _mixed_term_at_m(polys_pairs, params, fixed, dim: int, grid: QuadratureGrid):
    """For each (P,Q) pair: mean over the torus grid of P Qbar * weight with
    the given pinned coordinates and dim >= 1 continuous ones, summed over
    the open Weyl chamber (P and Q W-invariant); refined by doubling."""
    m_pts = grid.m_start
    prev = None
    while m_pts <= grid.max_points:
        weights = _weight_on_grid(params, m_pts, fixed, dim)
        values = []
        cache = {}
        for P, Q in polys_pairs:
            for p in (P, Q):
                if id(p) not in cache:  # pinned points t_a q^i move with the params
                    cache[id(p)] = (chamber_values(p, _root_powers(m_pts), fixed, dim)
                                    if fixed else _torus_values(p, m_pts))
            conj = map(complex.conjugate, cache[id(Q)])
            total = sum(map(mul, map(mul, cache[id(P)], conj), weights))
            values.append(total / m_pts**dim)
        if prev is not None:
            scale = max(max(abs(v) for v in values), 1e-300)
            if all(abs(v - p) <= grid.rel_tol * (1 + scale) for v, p in zip(values, prev)):
                return values
        prev = values
        m_pts *= 2
    raise NonConvergenceError(f"torus quadrature refinement cap reached: {grid.max_points} points")


def _pinned_values(polys):
    """pts -> the values of polys at pts, every coordinate pinned, each
    summed term by term as ``chamber_values(p, power, pts, 0)`` sums it (bit
    for bit), from tables kept for one call: the powers x^e_j once per point
    x of coordinate j, and the sorted terms times them once per prefix."""
    terms = [sorted(p.terms) for p in polys]
    prefixes = {(): [[complex(p.terms[e]) for e in t] for p, t in zip(polys, terms)]}
    powers = {}

    def tables(pts):  # the prefix table of pts[:-1] and the powers of pts[-1]
        j, x = len(pts) - 1, pts[-1]
        if (j, x) not in powers:
            powers[j, x] = [[complex(x) ** e[j] for e in t] for t in terms]
        if pts[:-1] not in prefixes:
            prefixes[pts[:-1]] = [list(map(mul, h, p)) for h, p in tables(pts[:-1])]
        return zip(prefixes[pts[:-1]], powers[j, x])

    return lambda pts: [sum(map(mul, h, p), 0j) for h, p in tables(pts)]


def continuous_gram(polys, params, grid: QuadratureGrid = DEFAULT_GRID):
    """All pairwise m=0 inner products <polys[i], polys[j]> in one pass."""
    for p in polys:
        require_invariant(p, "W")
    index = [(i, j) for i in range(len(polys)) for j in range(i, len(polys))]
    pairs = [(polys[i], polys[j]) for i, j in index]
    values = _mixed_term_at_m(pairs, params, (), polys[0].nvars, grid)
    out = [[0j] * len(polys) for _ in polys]
    for (i, j), v in zip(index, values):
        out[i][j], out[j][i] = v, v.conjugate()
    return out


def full_inner(P: LaurentPoly, Q: LaurentPoly, params, grid: QuadratureGrid = DEFAULT_GRID):
    """<P,Q>_K = sum_{m=0}^{l} <P,Q>_m: the continuous term (m = 0) plus all
    mixed residue-discrete terms (Jackson sums over t_a q^i with residue
    masses, m coordinates pinned)."""
    if P.nvars != Q.nvars:
        raise ValueError("arity mismatch")
    require_invariant(P, "W")
    require_invariant(Q, "W")
    check_degeneracy(params)
    l = P.nvars
    ts, q = _params_float(params)
    n_e = discrete_support(params)
    active = [i for i in range(4) if n_e[i] >= 0]
    w1 = {(a, i): residue_weight(a, i, params) for a in active for i in range(n_e[a] + 1)}
    pinned = _pinned_values((P,) if Q is P else (P, Q)) if active else None
    total = 0j
    for m in range(l + 1):
        term = 0j
        for e_combo in iproduct(active, repeat=m):
            for i_combo in iproduct(*[range(n_e[e] + 1) for e in e_combo]):
                pts = tuple(ts[e] * q**i for e, i in zip(e_combo, i_combo))
                mass = math.prod((w1[ei] for ei in zip(e_combo, i_combo)), start=1.0 + 0j)
                if m < l:
                    value = _mixed_term_at_m([(P, Q)], params, pts, l - m, grid)[0]
                else:  # every coordinate pinned: one point, no grid
                    vals = pinned(pts)
                    value = vals[0] * vals[-1].conjugate() * _coupling(q, params.k, pts)[1]
                term += mass * value
        total += 2**m * math.comb(l, m) * term
    return complex(total)


def gustafson_constant(l: int, params):
    """<1,1>_K in closed form:
    2^l l! prod_{j=1}^l (t, t^{l+j-2} t0t1t2t3; q)_inf /
    (t^j, q, t0t1 t^{j-1}, t0t2 t^{j-1}, t0t3 t^{j-1}, t1t2 t^{j-1},
    t1t3 t^{j-1}, t2t3 t^{j-1}; q)_inf."""
    ts, q, t = (params.t0, params.t1, params.t2, params.t3), params.q, params.t
    num = [v for j in range(1, l + 1) for v in (t, t ** (l + j - 2) * math.prod(ts))]
    den = [v for j in range(1, l + 1) for v in (t**j, q)]
    den += [x * y * t ** (j - 1) for j in range(1, l + 1) for x, y in combinations(ts, 2)]
    return qproduct(2**l * math.factorial(l), num, den, q)


def normalization_check(l: int, params, grid: QuadratureGrid = DEFAULT_GRID):
    """Quadrature <1,1>_K against the closed-form product constant, to a
    relative 1e-8."""

    def measure():
        one = LaurentPoly.const(l, 1)
        return full_inner(one, one, params, grid).real, gustafson_constant(l, params)

    params_doc = {"l": l, "q": str(params.q), "k": params.k}
    return relative_report("koornwinder-normalization", params_doc, measure, 1e-8)


def norm_K(lam, params, grid: QuadratureGrid = DEFAULT_GRID):
    """N_K(lambda) = <P_lambda, P_lambda>_K / <1,1>_K."""
    from .koornwinder import koornwinder_poly_or_gram

    lam = tuple(lam)
    poly = koornwinder_poly_or_gram(lam, params)
    one = LaurentPoly.const(len(lam), 1)
    num = full_inner(poly, poly, params, grid)
    den = full_inner(one, one, params, grid)
    return (num / den).real

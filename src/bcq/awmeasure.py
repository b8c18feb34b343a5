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
grid point's orbit then carries one value.  The m^dim grid sum is therefore
added up over one Weyl chamber, the index tuples
0 <= s_1 <= ... <= s_dim <= floor(m/2), each times its orbit size
dim!/prod(run lengths)! * 2^#{i : s_i not in {0, m/2}}.  ``full_inner`` and
``continuous_gram`` reject a P or Q that is not W-invariant, for which the
chamber sum (and the residue prefactor) would be wrong.

Each ingredient is computed once, in a bounded ``lru_cache``: the float
parameters per params; (t x, t/x; q)_inf per (t, q, m) and (x^2, x^-2; q)_inf
per (q, m) on the half grid, even points read from the coarser grid; w_2 per
(params, m); chamber indices and orbit sizes per (m, dim); chamber weights,
coupling factor included, per (params, m, pinned points, dim), shared by Gram
matrices and the two inner products of ``norm_K``; residue masses per (a, i,
params).  Params with Fraction and float entries compare equal, so these
caches hold only what the float parameters fix.  A term with every
coordinate pinned is one point on every grid, so it is evaluated once.  Each
polynomial is evaluated once per grid on the half grid s_i <= floor(m/2),
one coordinate at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, combinations_with_replacement
from itertools import product as iproduct
from operator import mul

from .polyring import LaurentPoly, grid_values, orbit_size, require_invariant
from .qseries import NonConvergenceError, _qpoch_finite, qpochhammer
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
            raise ValueError("grid must start with at least 8 points")


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
    num = qpochhammer(x * x, q, math.inf) * qpochhammer(1 / (x * x), q, math.inf)
    den = 1.0
    for t in ts:
        den *= qpochhammer(t * x, q, math.inf)
        den *= qpochhammer(t / x, q, math.inf)
    return num / den


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
    num = qpochhammer(x * x, q, math.inf) * qpochhammer(1 / (x * x), q, math.inf)
    den = qpochhammer(q**-i, q, i) * qpochhammer(q, q, math.inf)
    for z in poles:
        den *= qpochhammer(z, q, math.inf)
    mass = num / den
    if not cmath.isfinite(mass):
        raise NonConvergenceError(f"residue mass at t_{a} q^{i} overflows doubles")
    return mass


@lru_cache(maxsize=64)
def _roots_of_unity(m: int):
    return tuple(cmath.exp(2j * cmath.pi * s / m) for s in range(m))


@lru_cache(maxsize=64)
def _root_powers(m: int, count: int | None = None):
    """e -> the e-th powers of the first ``count`` (default all) m-th roots
    of unity, w^{se} = w^{se mod m}; the lists are shared, read only."""
    roots = _roots_of_unity(m)
    count = m if count is None else count
    return lru_cache(maxsize=256)(lambda e: [roots[s * e % m] for s in range(count)])


@lru_cache(maxsize=128)
def _qpoch_pairs(t, q: float, m: int):
    """((t x; q)_inf, (t / x; q)_inf), or for t = None (x^2; q)_inf and
    (x^-2; q)_inf, at the m-th roots of unity x = w^s, s <= floor(m/2).  For
    even m the even s are the (m/2)-th roots (bit for bit): their pairs are
    read from the table of the coarser grid of the doubling."""
    roots = _roots_of_unity(m)
    coarse = _qpoch_pairs(t, q, m // 2) if m % 2 == 0 else ()

    def pair(x):
        a, b = (x * x, 1 / (x * x)) if t is None else (t * x, t / x)
        return qpochhammer(a, q, math.inf), qpochhammer(b, q, math.inf)

    half = range(m // 2 + 1)
    return tuple(coarse[s // 2] if coarse and s % 2 == 0 else pair(roots[s]) for s in half)


@lru_cache(maxsize=256)
def _w2_on_roots(params, m: int):
    """w_2 at the m-th roots of unity w^s, s <= floor(m/2) (w_2(1/x) = w_2(x)
    gives the rest), multiplied in the order of ``w2_value``: each entry is
    ``w2_value(w^s, params)`` bit for bit."""
    ts, q = _params_float(params)
    rows = zip(*(_qpoch_pairs(t, q, m) for t in ts))
    return tuple(
        a * b / reduce(mul, chain.from_iterable(row), 1.0)
        for (a, b), row in zip(_qpoch_pairs(None, q, m), rows)
    )


def _orbit_size(combo, m: int = 0) -> int:
    """Size of the W_dim orbit of the sorted tuple ``combo`` in Z_m^dim (in
    Z^dim for m = 0): its distinct permutations, dim!/prod(run lengths)!,
    times 2 for each entry s != -s, that is, not 0 or m/2."""
    walls = combo.count(0) + (combo.count(m // 2) if m and m % 2 == 0 else 0)
    return orbit_size(combo, "S") << (len(combo) - walls)


@lru_cache(maxsize=64)
def _chamber(m: int, dim: int):
    """The flat indices of the chamber representatives 0 <= s_1 <= ... <=
    s_dim <= floor(m/2) into the half grid of ``polyring.grid_values``
    (floor(m/2) + 1 points a coordinate, row-major), and their orbit sizes."""
    side = m // 2 + 1
    combos = list(combinations_with_replacement(range(side), dim))
    index = tuple(reduce(lambda flat, s: flat * side + s, combo, 0) for combo in combos)
    return index, tuple(_orbit_size(combo, m) for combo in combos)


def _coupling(params, fixed):
    """g(z) = (z; q)_k (1/z; q)_k, and the product of g(x y) g(x / y) over
    the pairs of pinned coordinates x, y."""
    q, k = _params_float(params)[1], params.k

    def g(z):
        return _qpoch_finite(z, q, k) * _qpoch_finite(1 / z, q, k)

    const = 1.0 + 0j
    for x, y in combinations(fixed, 2):
        const *= g(x * y) * g(x / y)
    return g, const


@lru_cache(maxsize=256)
def _weight_on_grid(params, m: int, fixed, dim: int):
    """The flat indices of the chamber representatives (``_chamber``) and
    their weights times orbit size.  The weight is the w_2 factors for the
    continuous coordinates times the full coupling factor prod_{i<j}
    g(x_i x_j) g(x_i / x_j).  A continuous pair reads g from one table over
    the root indices s_i +- s_j mod m; each pinned coordinate x contributes
    the table g(x w^s) g(x / w^s)."""
    g, const = _coupling(params, fixed)
    roots = _roots_of_unity(m)
    single = list(_w2_on_roots(params, m))
    for x in fixed:
        single = [v * g(x * z) * g(x / z) for v, z in zip(single, roots)]
    pair = [g(z) for z in roots] if dim > 1 else ()
    index, sizes = _chamber(m, dim)
    weights = []
    for combo, size in zip(combinations_with_replacement(range(m // 2 + 1), dim), sizes):
        val = const * size
        for s in combo:
            val *= single[s]
        for s, r in combinations(combo, 2):
            val *= pair[(s + r) % m] * pair[(s - r) % m]
        weights.append(val)
    return index, tuple(weights)


def _mixed_term_at_m(polys_pairs, params, fixed, dim: int, grid: QuadratureGrid):
    """For each (P,Q) pair: mean over the torus grid of P Qbar * weight with
    the given pinned coordinates, summed over one Weyl chamber (P and Q
    W-invariant); refined by doubling, except with every coordinate pinned."""
    m_pts = grid.m_start
    prev = None
    while m_pts <= grid.max_points:
        if dim or prev is None:  # all pinned: the same one point on every grid
            power = _root_powers(m_pts, m_pts // 2 + 1)
            if dim:
                index, weights = _weight_on_grid(params, m_pts, fixed, dim)
            else:
                index, weights = (0,), (_coupling(params, fixed)[1],)
            values = []
            cache = {}
            for P, Q in polys_pairs:
                for p in (P, Q):
                    if id(p) not in cache:
                        on_half_grid = grid_values(p, power, fixed, dim)
                        cache[id(p)] = list(map(on_half_grid.__getitem__, index))
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


def continuous_gram(polys, params, grid: QuadratureGrid = DEFAULT_GRID):
    """All pairwise m=0 inner products <polys[i], polys[j]> in one pass."""
    for p in polys:
        require_invariant(p, "W")
    pairs = [(p, q) for i, p in enumerate(polys) for q in polys[i:]]
    values = _mixed_term_at_m(pairs, params, (), polys[0].nvars, grid)
    n = len(polys)
    out = [[0j] * n for _ in range(n)]
    upper = iter(values)
    for i in range(n):
        for j in range(i, n):
            out[i][j] = next(upper)
            out[j][i] = out[i][j].conjugate()
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
    total = 0j
    for m in range(l + 1):
        term = 0j
        for e_combo in iproduct(active, repeat=m):
            for i_combo in iproduct(*[range(n_e[e] + 1) for e in e_combo]):
                pts = tuple(ts[e] * q**i for e, i in zip(e_combo, i_combo))
                mass = math.prod((w1[ei] for ei in zip(e_combo, i_combo)), start=1.0 + 0j)
                value = _mixed_term_at_m([(P, Q)], params, pts, l - m, grid)[0]
                term += mass * value
        total += 2**m * math.comb(l, m) * term
    return complex(total)


def gustafson_constant(l: int, params):
    """<1,1>_K in closed form:
    2^l l! prod_{j=1}^l (t, t^{l+j-2} t0t1t2t3; q)_inf /
    (t^j, q, t0t1 t^{j-1}, t0t2 t^{j-1}, t0t3 t^{j-1}, t1t2 t^{j-1},
    t1t3 t^{j-1}, t2t3 t^{j-1}; q)_inf."""
    ts, q = _params_float(params)
    t = float(params.t)
    t4 = ts[0] * ts[1] * ts[2] * ts[3]
    inf = math.inf
    total = (2**l) * math.factorial(l)
    for j in range(1, l + 1):
        num = qpochhammer(t, q, inf) * qpochhammer(t ** (l + j - 2) * t4, q, inf)
        den = qpochhammer(t**j, q, inf) * qpochhammer(q, q, inf)
        for i in range(4):
            for jj in range(i + 1, 4):
                den *= qpochhammer(ts[i] * ts[jj] * t ** (j - 1), q, inf)
        total *= num / den
    return total.real


def normalization_check(
    l: int, params, grid: QuadratureGrid = DEFAULT_GRID, rel_tol: float = 1e-8
):
    """Quadrature <1,1>_K against the closed-form product constant."""

    def measure():
        one = LaurentPoly.const(l, 1)
        return full_inner(one, one, params, grid).real, gustafson_constant(l, params)

    params_doc = {"l": l, "q": str(params.q), "k": params.k}
    return relative_report("koornwinder-normalization", params_doc, measure, rel_tol)


def norm_K(lam, params, grid: QuadratureGrid = DEFAULT_GRID):
    """N_K(lambda) = <P_lambda, P_lambda>_K / <1,1>_K."""
    from .koornwinder import EigenvalueCollisionError, koornwinder_poly

    lam = tuple(lam)
    l = len(lam)
    try:
        poly = koornwinder_poly(lam, params)
    except EigenvalueCollisionError:
        poly = koornwinder_poly(lam, params, mode="gram")
    one = LaurentPoly.const(l, 1)
    num = full_inner(poly, poly, params, grid)
    den = full_inner(one, one, params, grid)
    return (num / den).real

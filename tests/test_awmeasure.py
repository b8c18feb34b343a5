"""Tests for the full orthogonality measure: torus quadrature, residue
parts, and the closed-form total mass."""

import cmath
import importlib
import math
import pkgutil
from collections import Counter
from fractions import Fraction as F
from itertools import chain, combinations, cycle, product, repeat
from operator import add, mul

import pytest

import bcq
from bcq.awmeasure import (
    DEFAULT_GRID,
    DegenerateParameterError,
    QuadratureGrid,
    _coupling,
    _mixed_term_at_m,
    _pinned_values,
    _qpoch_pairs,
    _root_powers,
    _roots_of_unity,
    _torus_values,
    _w2_on_roots,
    _weight_on_grid,
    check_degeneracy,
    continuous_gram,
    discrete_support,
    full_inner,
    gustafson_constant,
    normalization_check,
    norm_K,
    residue_weight,
    w2_value,
)
from bcq.koornwinder import KoornwinderParams, koornwinder_poly
from bcq.limits import t_B, t_L
from bcq.polyring import LaurentPoly, chamber_values
from bcq.qjacobi import BigJacobiParams, LittleJacobiParams
from bcq.qseries import NonConvergenceError, _qpoch_finite, jackson_nodes, log_qgamma

PARAMS_IN = KoornwinderParams(0.3, -0.2, 0.15, -0.4, 0.4, 1)
PARAMS_OUT = KoornwinderParams(1.7, -0.2, 0.15, -0.4, 0.4, 1)  # |t0| > 1


def test_total_mass_matches_closed_form_inside_disc():
    for l in (1, 2):
        one = LaurentPoly.const(l, 1)
        measured = full_inner(one, one, PARAMS_IN).real
        closed = gustafson_constant(l, PARAMS_IN)
        assert abs(measured - closed) / abs(closed) < 1e-10


def test_total_mass_with_discrete_part():
    # |t0| > 1 activates the residue-discrete part of the measure
    assert discrete_support(PARAMS_OUT)[0] >= 0
    for l in (1, 2):
        one = LaurentPoly.const(l, 1)
        measured = full_inner(one, one, PARAMS_OUT).real
        closed = gustafson_constant(l, PARAMS_OUT)
        assert abs(measured - closed) / abs(closed) < 1e-10


def test_no_discrete_support_inside_disc():
    # N_e = -1 marks an empty discrete part for that parameter
    assert all(n == -1 for n in discrete_support(PARAMS_IN).values())


def test_discrete_support_past_cap_raises():
    # at q = 0.9, t0 = 1000 needs N_e = 65, one past the cap: the support
    # must not be cut short (it was, and the check returned a NaN residual)
    with pytest.raises(NonConvergenceError):
        normalization_check(1, KoornwinderParams(1000.0, 1e-4, 2e-4, -1e-4, 0.9, 1))
    below = KoornwinderParams(300.0, 1e-4, 2e-4, -1e-4, 0.9, 1)
    assert discrete_support(below)[0] == 54
    report = normalization_check(1, below)
    assert report.passed and report.residual < 1e-15


@pytest.mark.parametrize("t0", [3e7, 1e8, 1e9])
def test_overflowing_residue_mass_raises(t0):
    # (x^2; q)_inf overflows doubles at x = t0: the mass was inf/inf = nan
    # and the check returned a NaN residual
    params = KoornwinderParams(t0, 1e-12, 2e-12, -1e-12, 0.5, 1)
    with pytest.raises(NonConvergenceError):
        residue_weight(0, 0, params)
    with pytest.raises(NonConvergenceError):
        normalization_check(1, params)


def test_large_residue_mass_stays_finite():
    report = normalization_check(1, KoornwinderParams(1e6, 1e-12, 2e-12, -1e-12, 0.5, 1))
    assert report.passed and report.residual < 1e-15


def test_orthogonality_small():
    polys = {
        lam: koornwinder_poly(lam, PARAMS_IN)
        for lam in ((0, 0), (1, 0), (1, 1), (2, 0))
    }
    norms = {
        lam: full_inner(p, p, PARAMS_IN).real for lam, p in polys.items()
    }
    items = sorted(polys)
    for i, lam in enumerate(items):
        for mu in items[i + 1 :]:
            ip = full_inner(polys[lam], polys[mu], PARAMS_IN)
            assert abs(ip) / (norms[lam] * norms[mu]) ** 0.5 < 1e-9


def test_weight_symmetric_under_inversion():
    x = 0.3 + 0.7j
    w_x = w2_value(x, PARAMS_IN)
    w_inv = w2_value(1 / x, PARAMS_IN)
    assert abs(w_x - w_inv) < 1e-12 * abs(w_x)


def test_norm_positive_and_trivial():
    assert norm_K((0,), PARAMS_IN) == pytest.approx(1.0)
    assert norm_K((1,), PARAMS_IN) > 0
    assert norm_K((1, 0), PARAMS_IN) > 0


def test_degeneracy_detection():
    # t0 = 1/q gives t0^2 q^2 = 1, a colliding pair of weight poles
    bad = KoornwinderParams(2.5, 0.1, 0.15, -0.2, 0.4, 1)
    with pytest.raises(DegenerateParameterError):
        check_degeneracy(bad)
    check_degeneracy(PARAMS_IN)


def _contour_residue(x0, params, n_points=256):
    """res_{x = x0} w_2(x)/x by the trapezoid rule on the circle about x0 of
    a quarter the distance to the nearest other pole of w_2(x)/x."""
    q = float(params.q)
    poles = [0.0]
    for t in map(float, params.tuple4):
        j = 0
        while t and abs(t * q**j) > 1e-6:
            poles += [t * q**j, 1 / (t * q**j)]
            j += 1
    radius = 0.25 * min(abs(p - x0) for p in poles if abs(p - x0) > 1e-9 * abs(x0))
    total = 0j
    for s in range(n_points):
        z = x0 + radius * cmath.exp(2j * cmath.pi * s / n_points)
        total += w2_value(z, params) / z * (z - x0)
    return total / n_points


LITTLE = LittleJacobiParams(F(4, 3), F(-13, 2), F(1, 2))
BIG = BigJacobiParams(F(1, 20), F(1, 25), 1, 4, F(1, 4))
RESIDUE_PARAMS = [PARAMS_OUT] + [
    t_map(eps, jacobi)
    for t_map, jacobi in ((t_L, LITTLE), (t_B, BIG))
    for eps in (F(1, 10), F(1, 1000))
]


@pytest.mark.parametrize("params", RESIDUE_PARAMS)
def test_closed_form_residue_matches_contour(params):
    q = float(params.q)
    support = discrete_support(params)
    checked = 0
    for a, n_e in support.items():
        for i in range(n_e + 1):
            x0 = float(params.tuple4[a]) * q**i
            want = _contour_residue(x0, params)
            assert abs(residue_weight(a, i, params) - want) <= 1e-12 * abs(want)
            checked += 1
    assert checked > 0


def test_residue_pole_collision_raises():
    # t0^2 q^2 = 1: the residue point t0 is also a pole of (t0 x; q)_inf
    for t0 in (2.5, 2.5 * (1 + 1e-14)):
        bad = KoornwinderParams(t0, 0.1, 0.15, -0.2, 0.4, 1)
        with pytest.raises(DegenerateParameterError):
            residue_weight(0, 0, bad)
    residue_weight(0, 0, PARAMS_OUT)


def _grid_values(p, power, fixed, dim):
    """Values of p over the whole product grid, row-major: the first
    coordinates pinned to ``fixed``, the last ``dim`` over one point set
    whose powers x^e ``power(e)`` lists.  Summed one coordinate at a time,
    last coordinate first, each entry added from 0j in exponent order: the
    arithmetic of ``chamber_values``, at every grid point."""
    m = len(power(0))
    tables = {}
    for exp, c in sorted(p.terms.items()):
        val = complex(c)
        for x, e in zip(fixed, exp):
            val *= complex(x) ** e
        tail = exp[len(fixed) :]
        tables[tail] = [tables.get(tail, [0j])[0] + val]
    for _ in range(dim):
        groups = {}
        for exp, vals in tables.items():
            groups.setdefault(exp[:-1], []).append((exp[-1], vals))
        tables = {}
        for head, group in groups.items():
            width = len(group[0][1])
            acc = repeat(0j, m * width)
            for e, vals in group:
                rows = chain.from_iterable(map(repeat, power(e), repeat(width)))
                acc = map(add, acc, map(mul, rows, cycle(vals)))
            tables[head] = list(acc)
    return tables.get(()) or [0j] * m**dim


@pytest.mark.parametrize(
    "l, fixed",
    [(1, ()), (1, (1.3,)), (2, ()), (2, (1.3,)), (2, (1.3, -2.1)), (3, ()), (3, (1.3, -2.1))],
)
def test_poly_on_grid_matches_evaluate(l, fixed):
    # distinct coefficients on every exponent in [-2, 2]^l: no symmetry
    exps = product(range(-2, 3), repeat=l)
    poly = LaurentPoly(l, {e: complex(1 + n, 0.5 - n / 7) for n, e in enumerate(exps)})
    dim = l - len(fixed)
    # the torus roots, and the Jackson nodes of a big grid: c q^j, then -d q^j
    jackson = [x for x, _ in jackson_nodes(1.0, 3, 0.5) + jackson_nodes(-2.0, 3, 0.5)]
    roots = _roots_of_unity(8)
    point_sets = [
        (roots, lambda e: [roots[s * e % 8] for s in range(8)]),
        (roots[1:4], _root_powers(8)),  # the open half grid 0 < s < 4
        (jackson, lambda e: [x**e for x in jackson]),
    ]
    for points, power in point_sets:
        n = len(points)
        chamber = list(combinations(range(n), dim))
        got = chamber_values(poly, power, fixed, dim)
        assert len(got) == len(chamber) == math.comb(n, dim)
        want = [poly.evaluate(fixed + tuple(points[s] for s in combo)) for combo in chamber]
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-13 * scale
        # bit for bit the full-grid values at the chamber points
        full = _grid_values(poly, power, fixed, dim)
        flat = [sum(s * n ** (dim - 1 - i) for i, s in enumerate(c)) for c in chamber]
        assert [_bits(g) for g in got] == [_bits(full[i]) for i in flat]
        zero = chamber_values(LaurentPoly.zero(l), power, fixed, dim)
        assert zero == [0j] * len(chamber)


def test_gram_builds_each_weight_grid_once_per_m():
    # a pairwise Gram matrix builds each weight grid once, evaluates each
    # polynomial once per grid (the torus value cache), and keeps the bits
    # of calls made from cold caches
    lams = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0))
    polys = [koornwinder_poly(lam, PARAMS_IN) for lam in lams]
    pairs = [(i, j) for i in range(6) for j in range(i, 6)]
    assert len(pairs) == 21
    cold, grids = {}, {}  # each pair from cold caches, and its grid count
    for i, j in pairs:
        _weight_on_grid.cache_clear()
        _torus_values.cache_clear()
        cold[i, j] = _bits(full_inner(polys[i], polys[j], PARAMS_IN))
        grids[i, j] = _weight_on_grid.cache_info().misses
    _weight_on_grid.cache_clear()
    _torus_values.cache_clear()
    warm = {(i, j): _bits(full_inner(polys[i], polys[j], PARAMS_IN)) for i, j in pairs}
    assert warm == cold
    # every pair refines through a prefix of the same doubling sequence
    info = _weight_on_grid.cache_info()
    assert info.misses == max(grids.values())
    assert info.hits == sum(grids.values()) - max(grids.values())
    # and reads its one or two polynomials on each grid of its prefix: each
    # polynomial misses once per grid of its longest prefix
    info = _torus_values.cache_info()
    assert info.hits + info.misses == sum(n * len({i, j}) for (i, j), n in grids.items())
    longest = [max(n for pair, n in grids.items() if k in pair) for k in range(6)]
    assert info.misses == sum(longest) > 6


def test_pinned_terms_bypass_the_torus_cache():
    # the pinned points t_a q^i move with the parameters: such a term is
    # never read from, nor stored in, the torus value cache, whether one
    # coordinate is pinned or every one (the tables of ``_pinned_values``)
    P = koornwinder_poly((1, 0), PARAMS_K2)
    _torus_values.cache_clear()
    _mixed_term_at_m([(P, P)], PARAMS_K2, (1.7,), 1, DEFAULT_GRID)
    _pinned_values((P,))((1.7, 0.68))
    info = _torus_values.cache_info()
    assert info.hits == info.misses == info.currsize == 0
    full_inner(P, P, PARAMS_K2)  # the torus term (m = 0) is cached
    assert _torus_values.cache_info().currsize > 0


def test_non_invariant_input_rejected():
    # x and 1/x have the same torus part but, before this check, different
    # residue parts: <x, 1>_K read 1.3459 and <1/x, 1>_K read 0.7058
    for params in (PARAMS_OUT, PARAMS_IN):
        one = LaurentPoly.const(1, 1)
        for e in (1, -1):
            x = LaurentPoly(1, {(e,): 1})
            with pytest.raises(ValueError):
                full_inner(x, one, params)
            with pytest.raises(ValueError):
                full_inner(one, x, params)
        # coefficients of one orbit that differ, and an incomplete orbit
        for terms in ({(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 2}, {(1, 1): 1, (-1, -1): 1}):
            with pytest.raises(ValueError):
                continuous_gram([LaurentPoly(2, terms)], params)
        sym = LaurentPoly(1, {(1,): 1, (-1,): 1})
        assert full_inner(sym, one, params) != 0
    with pytest.raises(ValueError, match="arity mismatch"):
        full_inner(LaurentPoly.const(1, 1), LaurentPoly.const(2, 1), PARAMS_IN)


def test_float_product_counts_as_invariant():
    # the product rounds differently at the images of one exponent
    prod = koornwinder_poly((2, 1), PARAMS_IN) * koornwinder_poly((2, 2), PARAMS_IN)
    rep = {e: tuple(sorted(map(abs, e), reverse=True)) for e in prod.terms}
    assert any(c != prod.terms[rep[e]] for e, c in prod.terms.items())
    one = LaurentPoly.const(2, 1)
    gram = continuous_gram([prod, one], PARAMS_IN)
    assert full_inner(prod, one, PARAMS_IN) == pytest.approx(gram[0][1], rel=1e-9)


def test_torus_refinement_cap_raises():
    one = LaurentPoly.const(1, 1)
    with pytest.raises(NonConvergenceError):
        full_inner(one, one, PARAMS_IN, QuadratureGrid(m_start=8, max_points=8))


def _zero_wall(point, m):
    """s_i = 0, or s_i = +-s_j mod m for some i < j: the chamber walls where
    the torus weight is exactly 0.0 (all but s_i = m/2)."""
    return 0 in point or any((s - r) % m == 0 or (s + r) % m == 0
                             for s, r in combinations(point, 2))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"m_start": 4}, "m_start"),
        ({"m_start": 16, "max_points": 8}, "max_points"),
        ({"rel_tol": 0.0}, "rel_tol"),
        ({"rel_tol": -1e-10}, "rel_tol"),
        ({"rel_tol": math.nan}, "rel_tol"),
    ],
)
def test_quadrature_grid_rejects_bad_settings(kwargs, field):
    # max_points < m_start raised NonConvergenceError before any grid was
    # tried, and rel_tol <= 0 could never accept a grid
    with pytest.raises(ValueError, match=field):
        QuadratureGrid(**kwargs)


@pytest.mark.parametrize("m", [8, 9, 16, 17])
def test_chamber_orbit_sizes_count_the_grid(m):
    # every grid point off the walls (s = 0, s = m/2, s_i = +-s_j) has its
    # representative in the open chamber 0 < s_1 < ... < s_dim < m/2, and
    # each representative stands for dim! 2^dim points; the weight on the
    # walls is tested in test_weight_vanishes_on_the_walls; dim = 0 is the one
    # point ()
    for dim in range(4):
        reps = Counter(
            tuple(sorted(min(s, m - s) for s in point))
            for point in product(range(m), repeat=dim)
            if not _zero_wall(point, m) and all(2 * s != m for s in point)
        )
        chamber = list(combinations(range(1, (m + 1) // 2), dim))
        assert sorted(reps) == chamber
        assert set(reps.values()) <= {math.factorial(dim) << dim}
        assert len(_weight_on_grid(PARAMS_IN, m, (), dim)) == len(chamber)


def _full_grid_weights(params, fixed, dim, m):
    """The torus weight at all m^dim points of the m-point circle grid,
    row-major, point by point."""
    q, k = float(params.q), params.k

    def g(z):
        return _qpoch_finite(z, q, k) * _qpoch_finite(1 / z, q, k)

    roots = _roots_of_unity(m)
    const = 1.0 + 0j
    for x, y in combinations(fixed, 2):
        const *= g(x * y) * g(x / y)
    single = [w2_value(z, params) for z in roots]
    for x in fixed:
        single = [v * g(x * z) * g(x / z) for v, z in zip(single, roots)]
    pair = [g(z) for z in roots]
    weights = []
    for combo in product(range(m), repeat=dim):
        val = const
        for s in combo:
            val *= single[s]
        for s, r in combinations(combo, 2):
            val *= pair[(s + r) % m] * pair[(s - r) % m]
        weights.append(val)
    return weights


def _full_grid_means(pairs, params, fixed, dim, m):
    """The torus mean of P Qbar * weight on the m-point circle grid, summed
    point by point over all m^dim points.  The sum is exactly rounded
    (``math.fsum``): a plain sum of 72^3 terms loses 1e-13 at l = 3, k = 2."""
    weights = _full_grid_weights(params, fixed, dim, m)
    roots = _roots_of_unity(m)

    def power(e):  # the full grid, not the open half of _root_powers
        return [roots[s * e % m] for s in range(m)]

    values = []
    for P, Q in pairs:
        on_p = _grid_values(P, power, fixed, dim)
        on_q = _grid_values(Q, power, fixed, dim)
        terms = [a * b.conjugate() * w for a, b, w in zip(on_p, on_q, weights)]
        total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
        values.append(total / m**dim)
    return values


def _unfolded_mixed_term(pairs, params, fixed, dim, grid):
    """``_full_grid_means`` with the doubling and stopping rule of the
    library."""
    m, prev = grid.m_start, None
    while m <= grid.max_points:
        values = _full_grid_means(pairs, params, fixed, dim, m)
        if prev is not None:
            scale = max(max(abs(v) for v in values), 1e-300)
            if all(abs(v - p) <= grid.rel_tol * (1 + scale) for v, p in zip(values, prev)):
                return values
        prev = values
        m *= 2
    raise NonConvergenceError("oracle refinement cap reached")


PARAMS_CONJ = KoornwinderParams(0.3, -0.2, 0.25 + 0.3j, 0.25 - 0.3j, 0.4, 2)
PARAMS_K2 = KoornwinderParams(1.7, -0.2, 0.15, -0.4, 0.4, 2)


@pytest.mark.parametrize(
    "params, lams, fixed, m_start, rel_tol",
    [
        (PARAMS_IN, [(1,), (2,)], (), 16, 1e-10),
        (PARAMS_CONJ, [(1,), (2,)], (), 9, 1e-10),
        (PARAMS_OUT, [(1,)], (1.7,), 16, 1e-10),
        (PARAMS_IN, [(1, 0), (1, 1)], (), 9, 1e-10),
        (PARAMS_CONJ, [(1, 0), (2, 1)], (), 16, 1e-10),
        (PARAMS_K2, [(1, 0), (1, 1)], (1.7,), 9, 1e-10),
        (PARAMS_OUT, [(1, 0)], (1.7, -2.1), 16, 1e-10),
        # at l = 3 a loose stopping rule keeps the full grids at 32^3, 36^3
        (PARAMS_IN, [(1, 0, 0), (1, 1, 0)], (), 16, 1e-3),
        (PARAMS_CONJ, [(1, 1, 0)], (), 9, 1e-3),
        (PARAMS_OUT, [(1, 0, 0)], (1.7,), 9, 1e-8),
        (PARAMS_K2, [(1, 1, 1)], (1.7, 0.68), 16, 1e-10),
    ],
)
def test_chamber_sum_matches_full_grid(params, lams, fixed, m_start, rel_tol):
    # one torus term, summed over one Weyl chamber and over the whole grid
    l = len(lams[0])
    polys = [LaurentPoly.const(l, 1)] + [koornwinder_poly(lam, params) for lam in lams]
    pairs = [(p, r) for i, p in enumerate(polys) for r in polys[i:]]
    grid = QuadratureGrid(m_start=m_start, rel_tol=rel_tol)
    dim = l - len(fixed)
    folded = _mixed_term_at_m(pairs, params, fixed, dim, grid)
    full = _unfolded_mixed_term(pairs, params, fixed, dim, grid)
    diag = [full[i] for i, (p, r) in enumerate(pairs) if p is r]
    pos = [(i, j) for i in range(len(polys)) for j in range(i, len(polys))]
    for (i, j), got, want in zip(pos, folded, full):
        assert abs(got - want) <= 1e-13 * abs(diag[i] * diag[j]) ** 0.5
    # the first grid (odd for m_start = 9) only feeds the stopping rule:
    # check its chamber weights, dim! 2^dim included, on their own
    one = polys[0]
    for m in (m_start, 2 * m_start):
        chamber = sum(_weight_on_grid(params, m, fixed, dim)) / m**dim
        want = _full_grid_means([(one, one)], params, fixed, dim, m)[0]
        assert abs(chamber - want) <= 1e-13 * abs(want)


def _weight_point_by_point(params, m, fixed, dim):
    """The chamber weights of ``_weight_on_grid`` one chamber point at a
    time, as it built them before its rows: the singles in order, then the
    pair factors in ``combinations`` order."""
    g, const = _coupling(float(params.q), params.k, fixed)
    roots = _roots_of_unity(m)
    half = range(1, (m + 1) // 2)
    single = _w2_on_roots(params, m)
    for x in fixed:
        single = [v * g(x * roots[s]) * g(x / roots[s]) for v, s in zip(single, half)]
    pair = [g(z) for z in roots]
    size = math.factorial(dim) << dim
    weights = []
    for combo in combinations(half, dim):
        val = const * size
        for s in combo:
            val *= single[s - 1]
        for s, r in combinations(combo, 2):
            val *= pair[(s + r) % m] * pair[(s - r) % m]
        weights.append(val)
    return weights


@pytest.mark.parametrize(
    "params, fixed",
    [(PARAMS_OUT, ()), (PARAMS_OUT, (1.7,)), (PARAMS_CONJ, ()), (PARAMS_K2, (1.7,)),
     (PARAMS_K2, (1.7, 0.68))],
)
@pytest.mark.parametrize("m", [8, 9, 16, 17])
def test_weight_rows_equal_the_point_by_point_product(params, fixed, m):
    # row by row, every chamber weight keeps the bits of its own product
    _weight_on_grid.cache_clear()
    for dim in (1, 2, 3):
        got = [_bits(w) for w in _weight_on_grid(params, m, fixed, dim)]
        assert got == [_bits(w) for w in _weight_point_by_point(params, m, fixed, dim)]


@pytest.mark.parametrize(
    "params, fixed",
    [(PARAMS_IN, ()), (PARAMS_K2, ()), (PARAMS_K2, (1.7,)), (PARAMS_K2, (1.7, 0.68)),
     (PARAMS_CONJ, ())],
)
@pytest.mark.parametrize("m", [8, 9, 16, 17, 64])
def test_weight_vanishes_on_the_walls(params, fixed, m):
    # the open chamber sum drops the walls: there the full-grid weight is
    # exactly 0.0, except at s_i = m/2: there w_2(-1) = 0 analytically, and
    # the float root -1 + 1.2e-16i leaves a rounding residue, checked below
    # 1e-29 of the largest weight on these parameter sets
    for dim in range(1, 4):
        weights = _full_grid_weights(params, fixed, dim, m)
        largest = max(map(abs, weights))
        points = product(range(m), repeat=dim)
        for point, w in zip(points, weights):
            if _zero_wall(point, m):
                assert w == 0
            elif any(2 * s == m for s in point):
                assert abs(w) <= 1e-29 * largest


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("params", [PARAMS_OUT, PARAMS_CONJ])
def test_w2_tables_equal_the_pointwise_weight(params):
    # the q-product tables multiply in the order of w2_value, bit for bit,
    # from cold caches (the finest grid first builds the coarser tables it
    # reads its even points from) and from warm ones; the tables hold the
    # open half grid 0 < s < m/2 only, as the open chamber reads no wall
    _w2_on_roots.cache_clear()
    _qpoch_pairs.cache_clear()
    for m in (64, 32, 16, 32, 18, 9):
        roots = _roots_of_unity(m)
        got = [_bits(v) for v in _w2_on_roots(params, m)]
        assert got == [_bits(w2_value(roots[s], params)) for s in range(1, (m + 1) // 2)]


def test_all_pinned_term_is_one_point_without_a_grid():
    P = koornwinder_poly((1, 0), PARAMS_K2)
    x, y = 1.7, 0.68
    q, k = float(PARAMS_K2.q), PARAMS_K2.k
    coupling = 1.0
    for z in (x * y, x / y):
        coupling *= _qpoch_finite(z, q, k) * _qpoch_finite(1 / z, q, k)
    want = abs(P.evaluate((x, y))) ** 2 * coupling
    _weight_on_grid.cache_clear()
    (value,) = _pinned_values((P,))((x, y))
    got = value * value.conjugate() * _coupling(q, k, (x, y))[1]
    assert _weight_on_grid.cache_info().misses == 0
    assert abs(got - want) <= 1e-13 * abs(want)
    # each value is summed term by term as the chamber sum of no continuous
    # coordinate sums it, bit for bit, here with two polynomials and prefixes
    Q = koornwinder_poly((2, 1), PARAMS_K2)
    values = _pinned_values((P, Q))
    for pts in ((x, y), (y, x), (x, x), (x, y)):
        want = [chamber_values(p, _root_powers(16), pts, 0)[0] for p in (P, Q)]
        assert [_bits(v) for v in values(pts)] == [_bits(v) for v in want]
    # a grid too small to compare two levels still cannot accept a value:
    # the torus term of ``full_inner`` runs first and raises
    with pytest.raises(NonConvergenceError):
        full_inner(P, P, PARAMS_K2, QuadratureGrid(16, max_points=16))


def test_failures_are_not_cached():
    bad = KoornwinderParams(2.5, 0.1, 0.15, -0.2, 0.4, 1)
    for _ in range(2):
        with pytest.raises(DegenerateParameterError):
            residue_weight(0, 0, bad)
        with pytest.raises(ValueError):
            log_qgamma(-1, 0.5)


def test_every_cache_is_bounded():
    """Every lru_cache bound at module level in a bcq module, found by walking
    the modules, and the per-exponent cache that _root_powers returns."""
    modules = [importlib.import_module(f"bcq.{info.name}")
               for info in pkgutil.iter_modules(bcq.__path__) if info.name != "__main__"]
    caches = {f"{module.__name__}.{name}": value for module in modules
              for name, value in vars(module).items() if hasattr(value, "cache_info")}
    assert {"bcq.awmeasure._root_powers", "bcq.qseries.log_qgamma"} <= set(caches)
    caches["bcq.awmeasure._root_powers(16)"] = _root_powers(16)
    assert [name for name, cache in caches.items() if cache.cache_info().maxsize is None] == []


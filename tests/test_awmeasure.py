"""Tests for the full orthogonality measure: torus quadrature, residue
parts, and the closed-form total mass."""

import cmath
from fractions import Fraction as F
from itertools import product

import pytest

from bcq.awmeasure import (
    DegenerateParameterError,
    _root_powers,
    _roots_of_unity,
    _weight_on_grid,
    check_degeneracy,
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
from bcq.polyring import LaurentPoly, grid_values
from bcq.qjacobi import BigJacobiParams, LittleJacobiParams
from bcq.qseries import NonConvergenceError, jackson_nodes

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
    point_sets = [
        (_roots_of_unity(8), _root_powers(8)),
        (jackson, lambda e: [x**e for x in jackson]),
    ]
    for points, power in point_sets:
        got = grid_values(poly, power, fixed, dim)
        want = [
            poly.evaluate(fixed + tuple(points[s] for s in combo))
            for combo in product(range(len(points)), repeat=dim)
        ]
        assert len(got) == len(want)
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-13 * scale


def test_gram_builds_each_weight_grid_once_per_m():
    lams = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0))
    polys = [koornwinder_poly(lam, PARAMS_IN) for lam in lams]
    pairs = [(p, r) for i, p in enumerate(polys) for r in polys[i:]]
    assert len(pairs) == 21
    grids = []  # how many grids each pair builds on its own
    for p, r in pairs:
        _weight_on_grid.cache_clear()
        full_inner(p, r, PARAMS_IN)
        grids.append(_weight_on_grid.cache_info().misses)
    _weight_on_grid.cache_clear()
    for p, r in pairs:
        full_inner(p, r, PARAMS_IN)
    info = _weight_on_grid.cache_info()
    # every pair refines through a prefix of the same doubling sequence
    assert info.misses == max(grids)
    assert info.hits == sum(grids) - max(grids)

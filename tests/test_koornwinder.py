"""Tests for the Koornwinder q-difference operator and polynomial family."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from bcq import GrassmannShape, grassmann_koornwinder_params, koornwinder
from bcq.awmeasure import norm_K
from bcq.koornwinder import (
    EigenvalueCollisionError,
    KoornwinderParams,
    _candidate_points,
    _dk_columns,
    _integer_params,
    _orbit_rows,
    _phi_pair,
    _point_stream,
    _weight_perms,
    check_symmetries,
    dk_apply,
    dk_evaluate,
    eigenvalue,
    koornwinder_poly,
)
from bcq.linalg import solve_linear
from bcq.polyring import LaurentPoly, expand_in_basis, orbit_sum_W, rebuild_from_basis
from bcq.qgrass import casimir_eigenvalue
from bcq.weights import WeightVector, dominant_downset, flat_map

PARAMS2 = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 1)
PARAMS1 = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 1)
# exact parameter sets with t = q, t = q^2 and t = q^3, and int entries
EXACT_SETS = [
    PARAMS2,
    KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 2),
    KoornwinderParams(F(2, 9), F(-3, 11), F(1, 2), F(-1, 3), F(3, 7), 3),
    KoornwinderParams(-2, F(-1, 3), 1, F(1, 5), F(2, 5), 1),
]


def phi_oracle(x, j, p):
    """phi_j^+- as the plain Fraction formula of D_K."""
    q, t, xj = F(p.q), F(p.t), F(x[j])
    plus = minus = F(1) / (1 - xj * xj)
    for ti in p.tuple4:
        plus *= 1 - ti * xj
        minus *= ti - xj
    plus /= 1 - q * xj * xj
    minus /= q - xj * xj
    for i, xi in enumerate(map(F, x)):
        if i != j:
            den = (1 - xi * xj) * (1 - xj / xi)
            plus *= (1 - t * xi * xj) * (1 - t * xj / xi) / den
            minus *= (t - xi * xj) * (t - xj / xi) / den
    return plus, minus


def eigenvalue_oracle(lam, p):
    """E_lambda as the plain Fraction formula."""
    q, t = F(p.q), F(p.t)
    t4 = F(p.t0) * p.t1 * p.t2 * p.t3
    l = len(lam)
    return sum(
        t4 / q * t ** (2 * l - j - 1) * (q**lj - 1) + t ** (j - 1) * (q**-lj - 1)
        for j, lj in enumerate(lam, 1)
    )


def one_variable_params(p):
    return KoornwinderParams(p.t0, p.t1, p.t2, p.t3, p.q, p.k)


def test_params_validation():
    with pytest.raises(ValueError):
        KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(3, 2), 1)
    with pytest.raises(ValueError):
        KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 0)
    # t = q^1.5 is a float in "exact" parameters; koornwinder_poly((1, 0), .)
    # would fail its D_K interpolation and read as non-convergence
    with pytest.raises(ValueError, match="k must be a positive integer"):
        KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 1.5)


@pytest.mark.parametrize(
    "ts, message",
    [
        # z, z, conj(z): every z has a conjugate somewhere, but not one each
        ((0.3 + 0.2j, 0.3 + 0.2j, 0.3 - 0.2j, 0.1), "conjugate pairs"),
        ((2, F(1, 2), F(1, 3), F(1, 5)), "violates V_K"),  # real pair, t0 t1 = 1
        ((1 + 1j, 1 - 1j, 0.1, 0.2), "violates V_K"),  # conjugate pair, t0 t1 = 2
    ],
)
def test_params_outside_v_k_rejected(ts, message):
    with pytest.raises(ValueError, match=message):
        KoornwinderParams(*ts, 0.5)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode must be 'triangular' or 'gram'"):
        koornwinder_poly((1,), PARAMS1, mode="bogus")


def test_dk_apply_of_zero_is_zero():
    assert dk_apply(LaurentPoly.zero(2), PARAMS2).is_zero


def test_degree_one_matches_recurrence_oracle():
    # One variable: the monic polynomial of degree 1 in z + 1/z is
    # m_(1) - b_0 with b_0 = a + 1/a - A_0 and
    # A_0 = (1-ab)(1-ac)(1-ad) / (a (1-abcd)), independently known from the
    # three-term recurrence of the one-variable orthogonal family.
    p = PARAMS1
    a, b, c, d = p.t0, p.t1, p.t2, p.t3
    a0 = (1 - a * b) * (1 - a * c) * (1 - a * d) / (a * (1 - a * b * c * d))
    b0 = a + 1 / a - a0
    expected = orbit_sum_W((1,), 1) + LaurentPoly.const(1, -b0)
    assert koornwinder_poly((1,), p) == expected


def test_eigen_identity_exact_two_variables():
    for lam in ((1, 0), (1, 1), (2, 1)):
        poly = koornwinder_poly(lam, PARAMS2)
        image = dk_apply(poly, PARAMS2)
        assert image == poly.scale(eigenvalue(lam, PARAMS2))


def test_eigenvalue_frozen():
    assert eigenvalue((2, 1), PARAMS2) == F(17637, 1120)
    assert eigenvalue((0, 0), PARAMS2) == 0


def test_integer_phi_pair_matches_the_fraction_formula():
    rng = random.Random(14)
    for p in EXACT_SETS:
        integers = _integer_params(p)
        for l in (1, 2, 3, 4):
            for _ in range(5):
                x = tuple(
                    rng.choice([-1, 1]) * F(rng.randrange(1, 60), rng.randrange(1, 30))
                    for _ in range(l)
                )
                x = x[:-1] + (int(x[-1]) or 5,)  # one int coordinate
                for j in range(l):
                    try:
                        want = phi_oracle(x, j, p)
                    except ZeroDivisionError:
                        continue
                    pair = _phi_pair(x, j, p, integers)
                    assert all(type(v) is int for f in pair for v in f)
                    assert tuple(F(*f) for f in pair) == want, (p, x, j)


@pytest.mark.parametrize(
    "x, factor",
    [
        ((F(1), F(3, 7)), "1 - x_j^2"),
        ((F(-1), F(3, 7)), "1 - x_j^2"),
        ((F(2), F(3, 7)), "1 - q x_j^2"),
        ((F(-1, 2), F(3, 7)), "q - x_j^2"),
        ((F(3, 5), F(5, 3)), "1 - x_i x_j"),
        ((F(-3, 5), F(-5, 3), F(2, 9)), "1 - x_i x_j"),
        ((F(3, 5), F(3, 5)), "1 - x_j/x_i"),
        ((F(-2, 7), F(4, 9), F(-2, 7)), "1 - x_j/x_i"),
    ],
)
def test_integer_phi_pair_raises_on_each_pole_factor(x, factor):
    # q = 1/4; in each case only the named factor of phi_0 is 0
    with pytest.raises(ZeroDivisionError):
        _phi_pair(x, 0, PARAMS2, _integer_params(PARAMS2))
    with pytest.raises(ZeroDivisionError):
        phi_oracle(x, 0, PARAMS2)


def test_exact_eigenvalue_matches_the_fraction_formula():
    for p in EXACT_SETS:
        for lam in ((0,), (3,), (1, 0), (2, 2), (3, 1, 0), (2, 1, 1, 0), (4, 2, 2, 1)):
            got = eigenvalue(lam, p)
            assert type(got) is F
            assert got == eigenvalue_oracle(lam, p), (p, lam)


def test_dk_evaluate_is_exact_at_an_int_point():
    # an int point gave a float here: x_j/x_i was a true division of ints
    params = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(289, 66049), 1)
    poly = koornwinder_poly((2, 1), params)
    value = dk_evaluate(poly, (2, 3), params)
    assert type(value) is F
    assert value == dk_evaluate(poly, (F(2), F(3)), params)
    assert value == eigenvalue((2, 1), params) * poly.evaluate((F(2), F(3)))


def test_eigen_identity_exact_direct_evaluation():
    # dk_evaluate evaluates the operator directly, apart from the collocation
    # engine; the denominators 23..43 are never those of collocation points
    points = {
        2: [(F(5, 23), F(31, 29)), (F(44, 37), F(9, 41))],
        3: [(F(5, 23), F(31, 29), F(7, 43)), (F(44, 37), F(9, 41), F(50, 31))],
        4: [
            (F(5, 23), F(31, 29), F(7, 43), F(40, 41)),
            (F(44, 37), F(9, 41), F(50, 31), F(3, 23)),
        ],
    }
    for lam in ((2, 1), (2, 1, 1), (2, 1, 1, 0)):
        poly = koornwinder_poly(lam, PARAMS2)
        e_lam = eigenvalue(lam, PARAMS2)
        for x in points[len(lam)]:
            assert dk_evaluate(poly, x, PARAMS2) == e_lam * poly.evaluate(x), (lam, x)


def test_collocation_skips_a_candidate_on_a_pole(monkeypatch):
    # q = 1/31^2 puts the first seed-911 candidate, x = (31, 26), on the pole
    # 1 - q x_1^2 = 0; the collocation must pass it by and still build an
    # eigenpolynomial from seed 911, checked here by direct evaluation
    params = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 961), 1)
    first = _candidate_points(2, 1, True, 911)[0]
    assert first == (31, 26)
    downset = dominant_downset((2, 1))
    perms = [_weight_perms(nu, True) for nu in downset]
    with pytest.raises(ZeroDivisionError):
        _orbit_rows(first, perms, 2, params, _integer_params(params))
    seeds = []

    def recorded(l, count, exact, seed):
        seeds.append(seed)
        return _candidate_points(l, count, exact, seed)

    monkeypatch.setattr(koornwinder, "_candidate_points", recorded)
    poly = koornwinder_poly((2, 1), params)
    assert seeds == [911]
    e_lam = eigenvalue((2, 1), params)
    for x in [(F(5, 23), F(31, 29)), (F(44, 37), F(9, 41))]:
        assert dk_evaluate(poly, x, params) == e_lam * poly.evaluate(x), x
    with pytest.raises(ZeroDivisionError):
        dk_evaluate(poly, first, params)


def test_collocation_retries_a_seed_whose_candidates_all_lie_on_poles(monkeypatch):
    # x_1 = 1 zeroes the 1 - x_1^2 factor of both phi_1 denominators, so no
    # seed-911 candidate gives a row and the next seed builds P_(2,1)
    want = koornwinder_poly((2, 1), PARAMS2)
    seeds = []

    def on_poles(l, count, exact, seed):
        seeds.append(seed)
        points = _candidate_points(l, count, exact, seed)
        return [(F(1),) + x[1:] for x in points] if seed == 911 else points

    monkeypatch.setattr(koornwinder, "_candidate_points", on_poles)
    assert koornwinder_poly((2, 1), PARAMS2) == want
    assert seeds == [911, 912]


def test_collocation_retries_after_a_singular_solve(monkeypatch):
    want = koornwinder_poly((2, 1), PARAMS2)
    calls = []

    def singular_once(rows, rhs):
        calls.append(len(rows))
        if len(calls) == 1:
            raise ZeroDivisionError("singular")
        return solve_linear(rows, rhs)

    monkeypatch.setattr(koornwinder, "solve_linear", singular_once)
    assert koornwinder_poly((2, 1), PARAMS2) == want
    assert len(calls) == 2


@pytest.mark.parametrize("build", [koornwinder_poly, norm_K, check_symmetries])
def test_empty_weight_is_rejected(build):
    # _collocate read the first entry of () and raised IndexError
    with pytest.raises(ValueError, match=r"weight \(\) is not dominant: need l >= 1"):
        build((), PARAMS2)


@pytest.mark.parametrize("mode", ["triangular", "gram"])
def test_too_many_variables_rejected_before_any_orbit(mode):
    # a 9-entry weight spent about 31 s building signed-permutation orbits
    # (9! 2^9 tuples for the top one) before LaurentPoly rejected 9 variables
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"variable count must be in \[1,8\]"):
        koornwinder_poly((1,) * 9, PARAMS2, mode=mode)
    assert time.perf_counter() - start < 1.0


def test_dk_evaluate_rejects_a_float_point_near_a_pole():
    # 1 - q x_1^2 is about -1e-10 at x_1 = 2 + 1e-10, q = 1/4: a float pole
    params = KoornwinderParams(0.2, -0.15, 0.3, -0.25, 0.25, 1)
    poly = koornwinder_poly((1, 0), params)
    with pytest.raises(ZeroDivisionError):
        dk_evaluate(poly, (2 + 1e-10, 0.7), params)
    dk_evaluate(poly, (2 + 1e-6, 0.7), params)


def test_eigenvalue_collision_falls_back_to_gram():
    # E_(2,0) = E_(1,1) = 9/2 here; norm_K and the CLI take the Gram route
    params = KoornwinderParams(F(-48), F(1, 3), F(1, 2), F(1, 2), F(1, 2), 1)
    assert eigenvalue((2, 0), params) == eigenvalue((1, 1), params) == F(9, 2)
    with pytest.raises(EigenvalueCollisionError):
        koornwinder_poly((2, 0), params)
    assert norm_K((2, 0), params) == pytest.approx(48927.85, rel=1e-3)


# V_K sets with one exact collision E_lambda = E_mu for a mu below lambda,
# t0 solved from the collision (the eigenvalues are affine in t0 t1 t2 t3)
COLLISION_SETS = [
    ((3, 1), KoornwinderParams(F(-3645, 4), F(2, 9), F(1, 5), F(2), F(1, 3), 1)),
    ((3, 1, 0), KoornwinderParams(F(-492075, 8192), F(6, 5), F(2, 3), F(4, 5), F(2, 3), 2)),
    ((2, 1, 0), KoornwinderParams(F(-1280, 7), F(1, 3), F(7, 8), F(3, 5), F(1, 2), 2)),
    ((3, 0), KoornwinderParams(F(-657664, 1809), F(2, 3), F(2, 7), F(1, 4), F(3, 4), 2)),
    ((3, 2, 1), KoornwinderParams(F(-4608, 25), F(1, 3), F(5, 8), F(5, 6), F(1, 2), 1)),
    ((4, 1), KoornwinderParams(F(-83623936, 8785), F(5, 8), F(1), F(7, 8), F(1, 4), 2)),
]


def test_exact_collision_names_the_pair():
    # the exact check compares integer numerators over E_(2,0)'s denominator
    params = KoornwinderParams(F(-48), F(1, 3), F(1, 2), F(1, 2), F(1, 2), 1)
    with pytest.raises(EigenvalueCollisionError) as caught:
        koornwinder_poly((2, 0), params)
    assert str(caught.value) == "E_(2, 0) collides with E_(1, 1); use mode='gram'"


@pytest.mark.parametrize("lam, params", COLLISION_SETS)
def test_exact_collision_check_matches_the_eigenvalues(monkeypatch, lam, params):
    # the first mu of the downset whose Fraction E_mu equals E_lambda is named,
    # and the check calls ``eigenvalue`` for lambda only
    e_lam = eigenvalue(lam, params)
    mu = next(mu for mu in dominant_downset(lam)[:-1] if eigenvalue(mu, params) == e_lam)
    calls = []
    monkeypatch.setattr(
        "bcq.koornwinder.eigenvalue", lambda nu, p: calls.append(nu) or eigenvalue(nu, p)
    )
    with pytest.raises(EigenvalueCollisionError) as caught:
        koornwinder_poly(lam, params)
    assert str(caught.value) == f"E_{lam} collides with E_{mu}; use mode='gram'"
    assert calls == [lam]


def test_monic_and_triangular():
    lam = (2, 1)
    poly = koornwinder_poly(lam, PARAMS2)
    coeffs = expand_in_basis(poly, "W")
    assert coeffs[lam] == 1
    downset = set(dominant_downset(lam))
    assert set(coeffs) <= downset


def test_gram_mode_agrees_with_triangular():
    # the Gram route goes through quadrature, so compare numerically
    for lam in ((1, 0), (2, 0), (1, 1)):
        exact = koornwinder_poly(lam, PARAMS2)
        gram = koornwinder_poly(lam, PARAMS2, mode="gram")
        err = max(
            abs(complex(exact.terms.get(e, 0)) - complex(gram.terms.get(e, 0)))
            for e in set(exact.terms) | set(gram.terms)
        )
        assert err < 1e-10


def test_operator_preserves_invariants():
    p = orbit_sum_W((2, 0), 2)
    image = dk_apply(p, PARAMS2)
    # expand_in_basis raises ValueError unless the image is W-invariant
    coeffs = expand_in_basis(image, "W")
    # the operator is triangular: the image stays in the downset of (2,0)
    downset = set(dominant_downset((2, 0)))
    assert set(coeffs) <= downset


def test_dk_evaluate_matches_dk_apply():
    p = orbit_sum_W((1, 1), 2)
    image = dk_apply(p, PARAMS2)
    x = (F(3, 5), F(7, 11))
    assert dk_evaluate(p, x, PARAMS2) == image.evaluate(x)


def test_inconsistent_support_raises():
    # D_K m~_(2,0) has m~_(1,0) and m~_(1,1) terms, which this support lacks,
    # so the held-out points reject every seed
    with pytest.raises(ArithmeticError):
        _dk_columns([(0, 0), (2, 0)], [{(2, 0): 1}], PARAMS2, True)


# rational points with denominators 23..43, never those of collocation points
OFF_ENGINE_POINTS = [
    (F(5, 23), F(31, 29), F(7, 43), F(40, 41)),
    (F(44, 37), F(9, 41), F(50, 31), F(3, 23)),
    (F(50, 31), F(3, 43), F(26, 29), F(11, 37)),
]


@pytest.mark.parametrize("lam", [(3, 2, 1), (2, 1, 1, 0), (4, 2)])
def test_dk_matrix_is_the_operator_off_the_engine_points(lam):
    # sum_nu M[mu][nu] m~_nu(x) == (D_K m~_mu)(x) for every mu of the downset
    l = len(lam)
    downset = dominant_downset(lam)
    matrix = _dk_columns(downset, [{mu: 1} for mu in downset], PARAMS2, True)
    orbits = {nu: orbit_sum_W(nu, l) for nu in downset}
    for point in OFF_ENGINE_POINTS:
        x = point[:l]
        values = {nu: m.evaluate(x) for nu, m in orbits.items()}
        for mu, row in zip(downset, matrix):
            fit = sum(c * values[nu] for nu, c in row.items())
            assert fit == dk_evaluate(orbits[mu], x, PARAMS2), (lam, mu, x)


@pytest.mark.parametrize("lam", [(3, 2, 1), (2, 1, 1, 0), (4, 2)])
def test_exact_orbit_rows_have_content_one(lam):
    downset = dominant_downset(lam)
    perms = [
        [list(enumerate(pi)) for pi in sorted(set(itertools.permutations(nu)))]
        for nu in downset
    ]
    integers = _integer_params(PARAMS2)
    for x in _candidate_points(len(lam), 12, True, seed=911):
        try:
            values, images = _orbit_rows(x, perms, lam[0], PARAMS2, integers)
        except ZeroDivisionError:
            continue
        assert all(type(v) is int for v in values + images)
        assert math.gcd(*values, *images) == 1, x


def test_held_out_points_reject_a_missing_orbit_at_l_3():
    # D_K m~_(2,1,0) has a nonzero m~_(1,1,1) coefficient; without that orbit
    # the support is inconsistent, so the integer held-out check rejects it
    downset = dominant_downset((2, 1, 0))
    (image,) = _dk_columns(downset, [{(2, 1, 0): 1}], PARAMS2, True)
    assert image[(1, 1, 1)] != 0
    support = [nu for nu in downset if nu != (1, 1, 1)]
    with pytest.raises(ArithmeticError):
        _dk_columns(support, [{(2, 1, 0): 1}], PARAMS2, True)


def dk_matrix_route(lam, matrix, params):
    """Monic P_lambda by back-substitution in the exact D_K matrix ``matrix``
    ({mu: D_K m~_mu as {nu: coefficient}}) of any downset holding lambda's."""
    for mu, row in matrix.items():
        assert row.get(mu, 0) == eigenvalue(mu, params), (params, mu)
    e_lam = eigenvalue(lam, params)
    coeffs = {lam: 1}
    for mu in reversed(dominant_downset(lam)[:-1]):
        acc = sum(matrix[larger].get(mu, 0) * c for larger, c in coeffs.items())
        c_mu = acc / (e_lam - matrix[mu].get(mu, 0))
        if c_mu != 0:
            coeffs[mu] = c_mu
    return rebuild_from_basis(coeffs, "W", len(lam))


# the parameter sets of tests/test_exact_pins.py; SQUARE_T has t = q^2
PIN_SETS = {
    "GENERIC": PARAMS2,
    "SQUARE_T": KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 2),
    "MIXED": KoornwinderParams(-2, F(-1, 3), 1, F(1, 5), F(2, 5), 1),
    "GRASSMANN": grassmann_koornwinder_params(GrassmannShape(5, 2), 0, 1, F(1, 2)),
}


@pytest.mark.parametrize("name", sorted(PIN_SETS))
def test_eigen_collocation_matches_the_dk_matrix_route(name):
    # the D_K matrix of each top weight's downset (n columns, n right-hand
    # sides) serves every lambda below it: |lambda| <= 6 at l = 1, 2, and
    # every dominant lambda <= (4,2,1) or <= (3,2,1,0)
    params = PIN_SETS[name]
    for top in [(6,), (6, 0), (4, 2, 1), (3, 2, 1, 0)]:
        downset = dominant_downset(top)
        matrix = dict(zip(downset, _dk_columns(downset, [{mu: 1} for mu in downset], params, True)))
        for lam in downset:
            assert koornwinder_poly(lam, params) == dk_matrix_route(lam, matrix, params), lam


def test_exact_build_solves_no_dk_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("the exact route collocated the D_K matrix")

    monkeypatch.setattr("bcq.koornwinder._dk_columns", no_matrix)
    assert expand_in_basis(koornwinder_poly((2, 1), PARAMS2), "W")[(2, 1)] == 1


@pytest.mark.parametrize("lam", [(1,), (2, 1), (3, 2, 1)])
def test_a_shifted_eigenvalue_raises(monkeypatch, lam):
    # E_lambda + 1/10^6 is no eigenvalue, so no polynomial solves the rows and
    # the exact held-out points reject every seed
    true_eigenvalue = eigenvalue

    def shifted(mu, params):
        return true_eigenvalue(mu, params) + (F(1, 10**6) if tuple(mu) == lam else 0)

    monkeypatch.setattr("bcq.koornwinder.eigenvalue", shifted)
    with pytest.raises(ArithmeticError) as caught:
        koornwinder_poly(lam, PARAMS2)
    assert caught.type is ArithmeticError


@pytest.mark.parametrize("lam", [(1,), (2, 1), (3, 2, 1)])
def test_a_sign_flip_in_a_phi_factor_raises(monkeypatch, lam):
    # phi_0^+ with the factor 1 + t0 x_0 in place of 1 - t0 x_0: D_K m~_mu is
    # no longer a Laurent polynomial, so the held-out points reject every seed
    true_phi_pair = _phi_pair

    def flipped(x, j, params, integers=()):
        (num_p, den_p), minus = true_phi_pair(x, j, params, integers)
        if j == 0:
            (n0, d0), (a, b) = integers[0][0], (x[0].numerator, x[0].denominator)
            num_p, den_p = num_p * (d0 * b + n0 * a), den_p * (d0 * b - n0 * a)
            if den_p == 0:
                raise ZeroDivisionError("phi_0 has a pole at x")
        return (num_p, den_p), minus

    monkeypatch.setattr("bcq.koornwinder._phi_pair", flipped)
    with pytest.raises(ArithmeticError) as caught:
        koornwinder_poly(lam, PARAMS2)
    assert caught.type is ArithmeticError


def uncached_candidate_points(l, count, exact, seed):
    """The candidate point generator without its cache: exact coordinates are
    ints in 2..59, or 2..2k-1 once k > 30 points are made, and a point is
    dropped when two of its |x_i| are equal or when an earlier point has the
    same sorted |x| tuple (the same W-orbit)."""
    rng = random.Random(seed)
    made, orbits = [], set()
    while len(made) < count:
        top = max(60, 2 * len(made))
        x = tuple(rng.randrange(2, top) if exact else 1.1 + 2.3 * rng.random() for _ in range(l))
        orbit = tuple(sorted(map(abs, x)))
        if len(set(orbit)) == l and orbit not in orbits:
            orbits.add(orbit)
            made.append(x)
    return made


def fraction_candidate_points(l, count, exact, seed):
    """The candidate points before they were small ints: exact coordinates
    are Fractions 23/19..399/7, and a point is dropped only when two of its
    |x_i| are equal."""
    rng = random.Random(seed)
    made = []
    while len(made) < count:
        if exact:
            x = tuple(
                F(rng.randrange(23, 400), rng.choice([7, 11, 13, 17, 19])) for _ in range(l)
            )
        else:
            x = tuple(1.1 + 2.3 * rng.random() for _ in range(l))
        if len(set(abs(v) for v in x)) == l:
            made.append(x)
    return made


@pytest.mark.parametrize("exact", [True, False])
def test_cached_candidate_points_keep_each_seeds_sequence(exact):
    _point_stream.cache_clear()
    for l, seed in [(3, 911), (2, 915), (3, 911), (5, 911)]:
        for count in (4, 30, 12):  # shorter, then longer, then again shorter
            got = _candidate_points(l, count, exact, seed)
            want = uncached_candidate_points(l, count, exact, seed)
            assert [tuple(map(repr, x)) for x in got] == [tuple(map(repr, x)) for x in want]
            assert all(type(v) is (int if exact else float) for x in got for v in x)
    got.clear()  # a caller may consume its list
    assert len(_candidate_points(5, 12, exact, 911)) == 12
    assert _point_stream.cache_info().maxsize is not None


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_candidate_points_lie_on_distinct_w_orbits(l, exact):
    # at l = 1 the ints 2..59 hold only 58 W-orbits, so the range must widen
    for seed in (911, 912):
        orbits = [tuple(sorted(map(abs, x))) for x in _candidate_points(l, 200, exact, seed)]
        assert all(len(set(orbit)) == l for orbit in orbits)
        assert len(set(orbits)) == 200, (l, exact, seed)


@pytest.mark.parametrize("lam", [(10, 2), (20,)])
def test_a_large_downset_builds_on_one_seed(monkeypatch, lam):
    # (10,2) has 46 weights, so seed 911 must give 48 rows on 48 W-orbits;
    # (20,) asks for 69 candidates, more than the 58 one-variable W-orbits
    # of 2..59, so the range must widen
    seeds = []

    def recorded(l, count, exact, seed):
        seeds.append(seed)
        return _candidate_points(l, count, exact, seed)

    monkeypatch.setattr(koornwinder, "_candidate_points", recorded)
    got = koornwinder_poly(lam, PARAMS2)
    assert seeds == [911]
    monkeypatch.setattr(koornwinder, "_candidate_points", fraction_candidate_points)
    assert got == koornwinder_poly(lam, PARAMS2)


# the exact_koornwinder benchmark's weights, and its dk_apply weights
BENCH_LAMBDAS = [
    (1,), (2,), (3,), (4,),
    (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (4, 2),
    (1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (3, 2, 1),
    (1, 1, 1, 0), (2, 1, 1, 0),
]
BENCH_DK_LAMBDAS = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


def test_exact_builds_do_not_depend_on_the_points(monkeypatch):
    # an exact system has one solution whatever its points: the Fraction
    # points of the earlier generator give the identical coefficients
    builds = [(lam, params) for params in (PARAMS2, PIN_SETS["GRASSMANN"]) for lam in BENCH_LAMBDAS]
    builds += [((4, 2, 1), PARAMS2), ((3, 2, 1, 0), PARAMS2)]
    polys = [koornwinder_poly(lam, params) for lam, params in builds]
    images = [dk_apply(koornwinder_poly(lam, PARAMS2), PARAMS2) for lam in BENCH_DK_LAMBDAS]
    monkeypatch.setattr(koornwinder, "_candidate_points", fraction_candidate_points)
    for (lam, params), got in zip(builds, polys):
        want = koornwinder_poly(lam, params)
        assert all(type(c) in (int, F) for c in got.terms.values())
        assert sorted(got.terms.items()) == sorted(want.terms.items()), (lam, params)
    for lam, got in zip(BENCH_DK_LAMBDAS, images):
        want = dk_apply(koornwinder_poly(lam, PARAMS2), PARAMS2)
        assert sorted(got.terms.items()) == sorted(want.terms.items()), lam


def test_dk_apply_of_fraction_coefficients_pinned_at_l_3():
    # non-integer Fraction coefficients make the right-hand sides rational,
    # so the held-out check clears each solution column's own denominators
    p = koornwinder_poly((2, 1, 0), PARAMS2) + orbit_sum_W((1, 1, 0), 3).scale(F(2, 7))
    assert any(c.denominator > 1 for c in p.terms.values())
    image = dk_apply(p, PARAMS2)
    digest = hashlib.sha256(repr(sorted(image.terms.items())).encode()).hexdigest()
    assert digest == "c7f21ab6ced04f71ddebabd8be0f952412fea93400a7a8a61d8458f767772eab"


def test_koornwinder_poly_results_are_fresh_objects():
    # the orbit sums behind the result are cached and shared between calls
    first = koornwinder_poly((2, 1), PARAMS2)
    want = dict(first.terms)
    first.terms.clear()
    assert koornwinder_poly((2, 1), PARAMS2).terms == want


def test_constant_is_eigenvector_with_zero_eigenvalue():
    one = LaurentPoly.const(2, F(1))
    assert dk_apply(one, PARAMS2).is_zero


def test_symmetry_checks_pass():
    report = check_symmetries((1, 1), PARAMS2)
    assert report.passed
    assert report.exact
    assert report.residual is None


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 0), (1, 1), (2, 1)])
def test_symmetry_float_parameters_within_rounding(lam):
    # bit-for-bit comparison failed here: (t0,t1,t2,t3) and (t0,t2,t1,t3)
    # round the constant term of P_(1) differently
    report = check_symmetries(lam, KoornwinderParams(0.2, -0.1, 0.3, -0.2, 0.25, 1))
    assert report.passed, report.detail
    assert not report.exact
    assert report.residual not in (0.0, 1.0)
    assert report.residual < 1e-10


def test_symmetry_check_builds_each_permutation_once(monkeypatch):
    # the base, the 23 permutations other than the identity and the sign flip
    params = []

    def counted(lam, p):
        params.append(p)
        return koornwinder_poly(lam, p)

    monkeypatch.setattr("bcq.koornwinder.koornwinder_poly", counted)
    assert check_symmetries((1, 1), PARAMS2).passed
    assert len(params) == 25
    assert params.count(PARAMS2) == 1


def test_symmetry_float_parameters_detect_a_difference(monkeypatch):
    params = KoornwinderParams(0.2, -0.1, 0.3, -0.2, 0.25, 1)
    build = koornwinder_poly

    def skewed(lam, p):
        poly = build(lam, p)
        return poly if p == params else poly + LaurentPoly.const(len(lam), 1e-8)

    monkeypatch.setattr("bcq.koornwinder.koornwinder_poly", skewed)
    report = check_symmetries((1, 0), params)
    assert not report.passed
    assert report.detail["failures"][0][0] == "permutation"
    assert report.residual > 1e-10


def test_float_mode():
    p = KoornwinderParams(0.2, -0.15, 0.3, -0.25, 0.25, 1)
    poly = koornwinder_poly((1, 0), p)
    image = dk_apply(poly, p)
    target = poly.scale(eigenvalue((1, 0), p))
    err = max(
        abs(complex(image.terms.get(e, 0)) - complex(target.terms.get(e, 0)))
        for e in set(image.terms) | set(target.terms)
    )
    assert err < 1e-9


@pytest.mark.parametrize("q", [F(1, 2), F(1, 3)])
@pytest.mark.parametrize("n, l", [(4, 1), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3)])
def test_eigenvalue_is_the_shifted_casimir_at_grassmann_parameters(q, n, l):
    # D_K is the radial part of the Casimir of U_q(n): at the (sigma, tau)
    # parameters of U_q(n)/K_q, E_mu = chi_{flat(mu)} - chi_0 exactly
    shape = GrassmannShape(n, l)
    weights = dominant_downset((2,) + (1,) * (l - 1)) + [(3,) + (0,) * (l - 1)]
    base = casimir_eigenvalue((0,) * n, n, q)
    for sigma, tau in itertools.product(range(3), repeat=2):
        params = grassmann_koornwinder_params(shape, sigma, tau, q)
        for mu in weights:
            flat = flat_map(WeightVector(mu, "BC"), shape).entries
            assert eigenvalue(mu, params) == casimir_eigenvalue(flat, n, q) - base, (sigma, tau, mu)

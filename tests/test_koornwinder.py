"""Tests for the Koornwinder q-difference operator and polynomial family."""

import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from bcq.awmeasure import norm_K
from bcq.koornwinder import (
    EigenvalueCollisionError,
    KoornwinderParams,
    _candidate_points,
    _dk_columns,
    _integer_params,
    _orbit_rows,
    _phi_pair,
    check_symmetries,
    dk_apply,
    dk_evaluate,
    eigenvalue,
    koornwinder_poly,
)
from bcq.polyring import LaurentPoly, expand_in_basis, orbit_sum_W
from bcq.weights import dominant_downset

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


def test_collocation_skips_a_candidate_on_a_pole():
    # q = (17/257)^2 puts the first seed-911 candidate, x_1 = 257/17, on the
    # pole 1 - q x_1^2 = 0; the collocation must pass it by and still build
    # an eigenpolynomial, checked here by direct evaluation
    params = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(289, 66049), 1)
    poly = koornwinder_poly((2, 1), params)
    e_lam = eigenvalue((2, 1), params)
    for x in [(F(5, 23), F(31, 29)), (F(44, 37), F(9, 41))]:
        assert dk_evaluate(poly, x, params) == e_lam * poly.evaluate(x), x
    with pytest.raises(ZeroDivisionError):
        dk_evaluate(poly, (F(257, 17), F(389, 17)), params)


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
            abs(complex(exact.coefficient(e)) - complex(gram.coefficient(e)))
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
        abs(complex(image.coefficient(e)) - complex(target.coefficient(e)))
        for e in set(image.terms) | set(target.terms)
    )
    assert err < 1e-9

"""Tests for sparse Laurent polynomials and symmetric-function bases."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcq.koornwinder import KoornwinderParams, koornwinder_poly
from bcq.polyring import (
    LaurentPoly,
    _generator_orbits,
    _orbit_sum,
    expand_in_basis,
    from_generator_coords,
    monomial_symmetric,
    orbit_sum_W,
    peel,
    rebuild_from_basis,
    schur,
    to_generator_coords,
)

exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
coeffs = st.fractions(min_value=F(-3), max_value=F(3))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda d: LaurentPoly(2, d)
)


def test_constructors_and_zero():
    z = LaurentPoly.zero(2)
    assert z.is_zero
    c = LaurentPoly.const(2, F(3, 2))
    assert c.terms.get((0, 0), 0) == F(3, 2)
    # zero coefficients are dropped
    m = LaurentPoly(2, {(-1, 2): F(5), (1, 0): 0})
    assert m.terms == {(-1, 2): F(5)}


def test_known_square():
    x = LaurentPoly(1, {(1,): 1})
    xinv = LaurentPoly(1, {(-1,): 1})
    p = (x + xinv) ** 2
    assert p == LaurentPoly(1, {(2,): 1, (0,): 2, (-2,): 1})


@given(p=polys, q=polys, r=polys)
@settings(max_examples=50, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly.zero(2) == p
    assert p * LaurentPoly.const(2, 1) == p
    assert (p - p).is_zero


@given(p=polys)
@settings(max_examples=30, deadline=None)
def test_evaluate_homomorphism(p):
    point = (F(1, 2), F(-2, 3))
    q = LaurentPoly(2, {(1, 1): F(1)})
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_substitute_scaling():
    p = LaurentPoly(2, {(2, -1): F(1)})
    scaled = p.substitute_scaling([F(3), F(5)])
    assert scaled == LaurentPoly(2, {(2, -1): F(9, 5)})


def test_negate_variables():
    p = LaurentPoly(1, {(1,): F(2), (2,): F(3)})
    assert p.negate_variables() == LaurentPoly(1, {(1,): F(-2), (2,): F(3)})


def test_orbit_sum_hyperoctahedral():
    p = orbit_sum_W((1, 0), 2)
    assert p == LaurentPoly(
        2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    )
    # stabilizer handled: orbit of (1, 1) has 4 points, not 8
    p2 = orbit_sum_W((1, 1), 2)
    assert sum(1 for _ in p2.terms) == 4
    assert all(c == 1 for c in p2.terms.values())


def test_monomial_and_elementary():
    assert monomial_symmetric((1, 0), 2) == LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    # the elementary symmetric e_r is m_(1^r)
    assert monomial_symmetric((1, 0, 0), 3) == LaurentPoly(
        3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    )
    assert monomial_symmetric((1, 1), 2) == LaurentPoly(2, {(1, 1): 1})


def test_schur_21_frozen():
    # s_(2,1) in 3 variables: sum over semistandard tableaux
    s = schur((2, 1, 0), 3)
    assert s.terms == {
        (2, 1, 0): 1,
        (2, 0, 1): 1,
        (1, 2, 0): 1,
        (1, 0, 2): 1,
        (0, 2, 1): 1,
        (0, 1, 2): 1,
        (1, 1, 1): 2,
    }


def test_schur_row_is_complete_homogeneous():
    # s_(n) in 2 variables = h_n = sum of all degree-n monomials
    s = schur((2, 0), 2)
    assert s == LaurentPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})


def schur_dimension(lam, n: int) -> int:
    """dim of the GL_n irreducible with highest weight lam (Weyl formula)."""
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def is_invariant(p: LaurentPoly, kind: str) -> bool:
    """True iff p expands in the orbit-sum basis of ``kind``."""
    try:
        expand_in_basis(p, kind)
        return True
    except ValueError:
        return False


def test_schur_dimension_matches_evaluation_at_ones():
    for lam, n in (((2, 1, 0), 3), ((3, 1, 0, 0), 4), ((2, 2, 0), 3)):
        dim = schur_dimension(lam, n)
        value = schur(lam, n).evaluate(tuple(F(1) for _ in range(n)))
        assert dim == value
    assert schur_dimension((2, 1, 0), 3) == 8


def test_schur_of_a_negative_weight_is_twisted():
    # s_(1,0,-1) = z^(-1,-1,-1) s_(2,1,0): the adjoint of GL_3
    s = schur((1, 0, -1), 3)
    assert len(s.terms) == 7
    assert s.terms[(0, 0, 0)] == 2
    assert sum(s.terms.values()) == schur_dimension((1, 0, -1), 3) == 8


def test_is_invariant():
    assert is_invariant(orbit_sum_W((2, 1), 2), "W")
    assert is_invariant(schur((2, 1, 0), 3), "S")
    not_invariant = (
        (LaurentPoly(2, {(1, 0): 1}), "W"),
        # the leading representative (1, 0) is missing
        (LaurentPoly(2, {(0, 1): 1}), "W"),
        # unequal coefficients on one orbit
        (orbit_sum_W((1, 0), 2) + LaurentPoly(2, {(1, 0): 1}), "W"),
        (LaurentPoly(2, {(1, -1): 1, (-1, 1): 1}), "S"),
    )
    for p, kind in not_invariant:
        assert not is_invariant(p, kind)
        with pytest.raises(ValueError):
            to_generator_coords(p, kind)


def test_expand_rebuild_roundtrip():
    p = orbit_sum_W((2, 0), 2) + orbit_sum_W((1, 1), 2).scale(F(3, 2))
    coeffs = expand_in_basis(p, "W")
    assert coeffs == {(2, 0): F(1), (1, 1): F(3, 2)}
    assert rebuild_from_basis(coeffs, "W", 2) == p


def test_orbit_sums_and_rebuilds_are_fresh_objects():
    # the cached orbit-sum dicts are shared; no result may alias them
    for kind, build in (("W", orbit_sum_W), ("S", monomial_symmetric)):
        want = dict(build((2, 1, 0), 3).terms)
        first = build((2, 1, 0), 3)
        first.terms[(2, 1, 0)] = 5
        assert build((2, 1, 0), 3).terms == want
        rebuilt = rebuild_from_basis({(2, 1, 0): 1}, kind, 3)
        assert rebuilt.terms == want
        rebuilt.terms.clear()
        assert rebuild_from_basis({(2, 1, 0): 1}, kind, 3).terms == want
        assert expand_in_basis(build((2, 1, 0), 3), kind) == {(2, 1, 0): 1}


def test_module_caches_are_bounded():
    for cache in (_orbit_sum, _generator_orbits):
        assert cache.cache_info().maxsize is not None


def test_peel_rejects_a_returning_key():
    # a piece that is not monic at the leading exponent leaves it in place
    terms = {(2,): 3, (1,): 1}

    def leading(rest):
        e = max(rest)
        return e, e

    assert peel(terms, leading, lambda k: {k: 1}) == terms
    with pytest.raises(ValueError):
        peel(terms, leading, lambda k: {k: 2})


def test_generator_coords_roundtrip():
    for kind, p in (
        ("W", orbit_sum_W((2, 1), 2) + orbit_sum_W((1, 0), 2).scale(F(-2))),
        ("S", schur((2, 1, 0), 3)),
    ):
        phat = to_generator_coords(p, kind)
        assert from_generator_coords(phat, kind) == p
    with pytest.raises(ValueError):
        from_generator_coords(LaurentPoly(2, {(-1, 0): 1}), "W")


@pytest.mark.parametrize("lam", [(3, 2, 1), (3, 1, 1), (4, 2, 1), (3, 2, 1, 0)])
def test_generator_coords_of_float_polynomial(lam):
    # a float Koornwinder polynomial at l >= 3 was rejected as not invariant
    # when the leading monomials did not cancel exactly in floating point
    p = koornwinder_poly(lam, KoornwinderParams(0.3, -0.2, 0.15, -0.4, 0.4, 1))
    back = from_generator_coords(to_generator_coords(p, "W"), "W")
    scale = max(abs(c) for c in p.terms.values())
    keys = set(p.terms) | set(back.terms)
    assert max(abs(p.terms.get(e, 0) - back.terms.get(e, 0)) for e in keys) <= 1e-12 * scale


def test_generator_coords_of_generator_is_linear():
    # the r-th generator itself maps to the single monomial y_r
    for r in (1, 2):
        g = orbit_sum_W((1,) * r + (0,) * (2 - r), 2)
        phat = to_generator_coords(g, "W")
        exp = tuple(1 if i == r - 1 else 0 for i in range(2))
        assert phat == LaurentPoly(2, {exp: 1})


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPoly(1, {(1,): 1}) + LaurentPoly(2, {(1, 0): 1})


@pytest.mark.parametrize("build, message", [
    (lambda: LaurentPoly(0), "variable count must be in [1,8]"),
    (lambda: LaurentPoly(2, {(1,): 1}), "exponent arity mismatch"),
    (lambda: LaurentPoly(2, {(1, 0): 1}).evaluate((1,)), "point arity mismatch"),
    (lambda: orbit_sum_W((1,), 2), "weight length mismatch"),
    (lambda: orbit_sum_W((0, 1), 2), "orbit_sum_W requires a dominant BC weight"),
    (lambda: monomial_symmetric((1,), 2), "weight length mismatch"),
    (lambda: monomial_symmetric((1, -1), 2), "monomial_symmetric requires a dominant partition"),
    (lambda: expand_in_basis(LaurentPoly(2, {(1, 0): 1}), "X"), "kind must be 'W' or 'S'"),
])
def test_input_checks_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message

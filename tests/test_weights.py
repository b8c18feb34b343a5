"""Tests for weight lattices, dominance, Weyl orbits and spherical weights."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcq.polyring import _orbit_sum
from bcq.weights import (
    GrassmannShape,
    WeightVector,
    dominance_leq,
    dominant_downset,
    dominant_representative,
    flat_map,
    fundamental_spherical,
    is_spherical,
    natural_map,
    weyl_orbit,
    weyl_orbit_tuples,
)

def bc_weight(*entries) -> WeightVector:
    return WeightVector(entries, "BC")


bc_tuples = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def dominant_bc(t):
    return WeightVector(dominant_representative(t), "BC")


def test_shape_validation():
    GrassmannShape(4, 2)
    GrassmannShape(5, 1)
    with pytest.raises(ValueError):
        GrassmannShape(1, 1)
    with pytest.raises(ValueError):
        GrassmannShape(4, 3)
    with pytest.raises(ValueError):
        GrassmannShape(4, 0)


def test_weight_vector_basics():
    w = bc_weight(2, 1)
    assert w.is_dominant
    assert w.total == 3
    assert not bc_weight(1, 2).is_dominant
    assert not bc_weight(1, -1).is_dominant  # BC dominance needs last entry >= 0
    assert WeightVector((1, -1), "A").is_dominant
    with pytest.raises(ValueError):
        WeightVector((1, 0), "X")


@given(t=bc_tuples)
@settings(max_examples=60, deadline=None)
def test_dominance_reflexive(t):
    w = dominant_bc(t)
    assert dominance_leq(w, w)


@given(t=bc_tuples, s=bc_tuples, u=bc_tuples)
@settings(max_examples=60, deadline=None)
def test_dominance_transitive_antisymmetric(t, s, u):
    a, b, c = dominant_bc(t), dominant_bc(s), dominant_bc(u)
    if dominance_leq(a, b) and dominance_leq(b, c):
        assert dominance_leq(a, c)
    if dominance_leq(a, b) and dominance_leq(b, a):
        assert a == b


def test_dominance_examples():
    # (1,1) <= (2,0) in BC dominance: prefix sums 1 <= 2, 2 <= 2
    assert dominance_leq(bc_weight(1, 1), bc_weight(2, 0))
    assert not dominance_leq(bc_weight(2, 0), bc_weight(1, 1))
    # smaller total is allowed: (1,0) <= (2,0)
    assert dominance_leq(bc_weight(1, 0), bc_weight(2, 0))


def test_weyl_orbit_signed_permutations():
    orbit = weyl_orbit_tuples((2, 1))
    assert len(orbit) == 8
    assert (-1, 2) in orbit
    assert (2, -1) in orbit
    # stabilizer: orbit of (1, 1) has |W|/2 = 4 elements
    assert len(weyl_orbit_tuples((1, 1))) == 4
    assert len(weyl_orbit_tuples((0, 0))) == 1


def nested_sign_orbit(mu):
    """The signed-permutation orbit by the nested loop: every permutation,
    then every sign pattern on its nonzero entries."""
    orbit = set()
    for perm in itertools.permutations(mu):
        nonzero = [i for i, e in enumerate(perm) if e != 0]
        for signs in itertools.product((1, -1), repeat=len(nonzero)):
            v = list(perm)
            for i, s in zip(nonzero, signs):
                v[i] *= s
            orbit.add(tuple(v))
    return orbit


DOMINANT_UP_TO_3 = [
    lam for l in range(1, 5) for lam in itertools.combinations_with_replacement(range(3, -1, -1), l)
]


@pytest.mark.parametrize("lam", DOMINANT_UP_TO_3)
def test_orbits_match_the_nested_sign_loop(lam):
    assert weyl_orbit_tuples(lam) == nested_sign_orbit(lam)
    perms = math.factorial(len(lam))
    for _, run in itertools.groupby(lam):
        perms //= math.factorial(len(list(run)))
    nonzero = sum(1 for e in lam if e)
    assert len(_orbit_sum(lam, "W").terms) == perms * 2**nonzero
    assert len(_orbit_sum(lam, "S").terms) == perms


@given(t=bc_tuples)
@settings(max_examples=60, deadline=None)
def test_dominant_representative_in_orbit(t):
    rep = dominant_representative(t)
    assert WeightVector(rep, "BC").is_dominant
    assert rep in weyl_orbit_tuples(t)
    assert weyl_orbit_tuples(rep) == weyl_orbit_tuples(t)


def test_weyl_orbit_weightvector_wrapper():
    orbit = weyl_orbit(bc_weight(1, 0))
    assert {w.entries for w in orbit} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_natural_flat_maps_inverse():
    shape = GrassmannShape(5, 2)
    mu = bc_weight(2, 1)
    lam = flat_map(mu, shape)
    assert lam.lattice == "A"
    assert len(lam) == 5
    assert natural_map(lam, shape) == mu


def test_flat_map_frozen():
    assert flat_map(bc_weight(1, 0), GrassmannShape(4, 2)).entries == (1, 0, 0, -1)
    assert flat_map(bc_weight(1, 1), GrassmannShape(5, 2)).entries == (
        1,
        1,
        0,
        -1,
        -1,
    )


def test_fundamental_spherical():
    assert fundamental_spherical(1, GrassmannShape(4, 2)).entries == (1, 0, 0, -1)
    assert fundamental_spherical(2, GrassmannShape(5, 2)).entries == (1, 1, 0, -1, -1)
    with pytest.raises(ValueError):
        fundamental_spherical(3, GrassmannShape(4, 2))


def test_is_spherical():
    shape = GrassmannShape(4, 2)
    assert is_spherical(WeightVector((1, 0, 0, -1), "A"), shape)
    assert is_spherical(WeightVector((0, 0, 0, 0), "A"), shape)
    assert not is_spherical(WeightVector((1, 0, 0, 0), "A"), shape)


def test_dominant_downset_frozen():
    assert dominant_downset((2, 1)) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_dominant_downset_is_cached_and_fresh():
    from bcq.weights import _downset

    first = dominant_downset((3, 1))
    first.append((9, 9))
    assert dominant_downset([3, 1]) == dominant_downset((3, 1)) == first[:-1]
    assert _downset.cache_info().maxsize is not None
    with pytest.raises(ValueError):
        dominant_downset((1, 2))


def test_dominant_downset_ordering_and_closure():
    lam = (3, 1)
    down = dominant_downset(lam)
    # sorted by total degree then lexicographically
    keys = [(sum(mu), mu) for mu in down]
    assert keys == sorted(keys)
    # every member is dominant and dominated by lam
    top = WeightVector(lam, "BC")
    for mu in down:
        w = WeightVector(mu, "BC")
        assert w.is_dominant
        assert dominance_leq(w, top)
    assert down[-1] == lam

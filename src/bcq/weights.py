"""Weight lattices and dominance combinatorics.

Two lattices appear: the GL_n weight lattice (tag "A", integer vectors of
length n) and the BC_l lattice (tag "BC", integer vectors of length l, acted
on by the hyperoctahedral group W = Z_2^l x| S_l).  Dominance is by prefix
sums: A-type additionally requires equal totals, BC-type does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class GrassmannShape:
    """The pair (n, l) with n >= 2 and 1 <= l <= floor(n/2)."""

    n: int
    l: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 1 <= self.l <= self.n // 2:
            raise ValueError("l must satisfy 1 <= l <= floor(n/2)")


@dataclass(frozen=True)
class WeightVector:
    """Integer weight with a lattice tag: "A" (length n) or "BC" (length l)."""

    entries: tuple
    lattice: str

    def __post_init__(self) -> None:
        if self.lattice not in ("A", "BC"):
            raise ValueError("lattice must be 'A' or 'BC'")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_dominant(self) -> bool:
        e = self.entries
        decreasing = all(a >= b for a, b in zip(e, e[1:]))
        return decreasing and not (self.lattice == "BC" and e and e[-1] < 0)

    @property
    def total(self) -> int:
        return sum(self.entries)


def _prefix_leq(mu: tuple, lam: tuple) -> bool:
    s_mu = 0
    s_lam = 0
    for a, b in zip(mu, lam):
        s_mu += a
        s_lam += b
        if s_mu > s_lam:
            return False
    return True


def dominance_leq(mu: WeightVector, lam: WeightVector) -> bool:
    """mu <= lam: prefix sums of mu never exceed those of lam; A-type weights
    must additionally have equal totals."""
    if mu.lattice != lam.lattice or len(mu) != len(lam):
        raise ValueError("dominance_leq requires the same lattice and length")
    if mu.lattice == "A" and mu.total != lam.total:
        return False
    return _prefix_leq(mu.entries, lam.entries)


def weyl_orbit(mu: WeightVector) -> set:
    """Full orbit of a BC weight under signed permutations."""
    if mu.lattice != "BC":
        raise ValueError("weyl_orbit is defined on the BC lattice")
    return {WeightVector(v, "BC") for v in weyl_orbit_tuples(mu.entries)}


def weyl_orbit_tuples(mu: tuple) -> set:
    """Orbit of a raw exponent tuple under signed permutations: every
    permutation of every choice of e or -e per entry."""
    signed = itertools.product(*({e, -e} for e in mu))
    return {v for choice in signed for v in itertools.permutations(choice)}


def dominant_representative(nu: tuple) -> tuple:
    """The dominant element of the W-orbit: absolute values sorted decreasing."""
    return tuple(sorted((abs(e) for e in nu), reverse=True))


def natural_map(lam: WeightVector, shape: GrassmannShape) -> WeightVector:
    """lam^natural: extract (lam_1..lam_l) from a spherical A-weight."""
    if lam.lattice != "A" or len(lam) != shape.n:
        raise ValueError("natural_map needs an A-weight of length n")
    if not is_spherical(lam, shape):
        raise ValueError(f"{lam.entries} is not of spherical form for {shape}")
    return WeightVector(lam.entries[: shape.l], "BC")


def flat_map(mu: WeightVector, shape: GrassmannShape) -> WeightVector:
    """mu^flat = (mu_1..mu_l, 0,...,0, -mu_l..-mu_1), inverse of natural_map."""
    if mu.lattice != "BC" or len(mu) != shape.l:
        raise ValueError("flat_map needs a BC-weight of length l")
    mid = (0,) * (shape.n - 2 * shape.l)
    tail = tuple(-e for e in reversed(mu.entries))
    return WeightVector(mu.entries + mid + tail, "A")


def is_spherical(lam: WeightVector, shape: GrassmannShape) -> bool:
    """True iff lam = (lam_1..lam_l, 0,...,0, -lam_l..-lam_1), lam_1>=..>=lam_l>=0."""
    if lam.lattice != "A" or len(lam) != shape.n:
        raise ValueError("is_spherical needs an A-weight of length n")
    if not lam.is_dominant:
        raise ValueError("is_spherical requires a dominant weight")
    n, l, e = shape.n, shape.l, lam.entries
    head = e[:l]
    mirrored = e[n - l :] == tuple(-x for x in reversed(head))
    return all(x >= 0 for x in head) and not any(e[l : n - l]) and mirrored


def fundamental_spherical(r: int, shape: GrassmannShape) -> WeightVector:
    """The fundamental spherical weight varpi_r with varpi_r^natural = (1^r)."""
    if not 1 <= r <= shape.l:
        raise ValueError("r must satisfy 1 <= r <= l")
    mu = WeightVector((1,) * r + (0,) * (shape.l - r), "BC")
    return flat_map(mu, shape)


def dominant_downset(lam: tuple) -> list:
    """All dominant BC weights mu <= lam, in a fixed linear extension of
    dominance (sorted by total, then lexicographically), as a fresh list.

    Dominance is not graded here: weights of smaller total are included.
    Built entry by entry: mu_i runs over 0..min(mu_{i-1}, lam_1+...+lam_i - mu_1-...-mu_{i-1}).
    """
    return list(_downset(tuple(lam)))


@lru_cache(maxsize=256)
def _downset(lam: tuple) -> tuple:
    if not lam or dominant_representative(lam) != lam:
        raise ValueError(f"weight {lam} is not dominant: need l >= 1, lam_1 >= ... >= lam_l >= 0")
    out = [()]
    for bound in itertools.accumulate(lam):
        out = [nu + (e,) for nu in out for e in range(min(nu[-1:] + (bound - sum(nu),)) + 1)]
    return tuple(sorted(out, key=lambda v: (sum(v), v)))

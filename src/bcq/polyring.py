"""Sparse multivariate Laurent polynomials and symmetric bases.

A polynomial is a map from dense exponent tuples (possibly negative entries)
to coefficients.  Coefficients are exact rationals (``Fraction``/``int``) or
complex floats; the two domains are not mixed inside one polynomial.  On top
of the ring live the symmetric bases used everywhere else: hyperoctahedral
orbit sums m~_lambda, monomial symmetric m_lambda and Schur polynomials
s_lambda.  Every triangular basis change (orbit sums and generator
coordinates) is one ``peel``: read the leading coefficient, subtract it times
a basis piece monic there, repeat; the way back is a plain sum of pieces.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import add, mul, sub

from .linalg import _inv, _is_exact, solve_linear
from .weights import (
    WeightVector,
    dominant_downset,
    dominant_representative,
    weyl_orbit_tuples,
)

MAX_VARS = 8
_INVARIANCE_TOL = 1e-12


class LaurentPoly:
    """Sparse Laurent polynomial: dict from exponent tuple to coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if not 1 <= nvars <= MAX_VARS:
            raise ValueError(f"variable count must be in [1,{MAX_VARS}]")
        self.nvars = nvars
        clean = {}
        for exp, coef in (terms or {}).items():
            if len(exp) != nvars:
                raise ValueError("exponent arity mismatch")
            if coef != 0:
                clean[tuple(int(e) for e in exp)] = coef
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    # -- basic queries ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def domain(self) -> str:
        return "rational" if all(_is_exact(c) for c in self.terms.values()) else "complex"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = [f"{coef!r}*x^{exp}" for exp, coef in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"

    # -- arithmetic -------------------------------------------------------
    def _check_arity(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return self + LaurentPoly.const(self.nvars, other)
        self._check_arity(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, 0) + coef
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check_arity(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, {e: c * co for e, co in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- evaluation and transforms ---------------------------------------
    def _scaled_terms(self, factors, what: str):
        """(exp, coef * prod_i factors[i]^exp[i]) for every term."""
        if len(factors) != self.nvars:
            raise ValueError(f"{what} arity mismatch")
        for exp, coef in self.terms.items():
            for f, e in zip(factors, exp):
                coef *= f**e if e >= 0 else _inv(f) ** (-e)
            yield exp, coef

    def evaluate(self, point):
        total = 0
        for _, val in self._scaled_terms(point, "point"):
            total += val
        return total

    def substitute_scaling(self, factors):
        """x_i -> factors[i] * x_i applied to every monomial."""
        return LaurentPoly(self.nvars, dict(self._scaled_terms(factors, "factor")))

    def negate_variables(self):
        """x_i -> -x_i for every variable."""
        return self.substitute_scaling((-1,) * self.nvars)

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        domain = self.domain
        terms = []
        for exp, coef in sorted(self.terms.items()):
            if domain == "rational":
                encoded = str(Fraction(coef))
            else:
                z = complex(coef)
                encoded = [z.real, z.imag]
            terms.append({"exp": list(exp), "coef": encoded})
        return {"vars": self.nvars, "domain": domain, "terms": terms}


def chamber_values(p: LaurentPoly, power, fixed, dim: int):
    """Values of p at the chamber points s_1 < ... < s_dim of one point set,
    in lexicographic order: the first coordinates are pinned to ``fixed``,
    and ``power(e)`` lists x^e over the point set.  Summed one coordinate at
    a time, last coordinate first: after k passes each exponent prefix maps
    to the values, over the k-chamber, of the terms sharing that prefix.
    The (k+1)-tuples that start at s are x_s^e times the suffix of that list
    after its C(m, k) - C(m - s - 1, k) tuples with a first index <= s."""
    m = len(power(0))
    tables = {}
    for exp, c in sorted(p.terms.items()):
        val = complex(c)
        for x, e in zip(fixed, exp):
            val *= complex(x) ** e
        tail = exp[len(fixed) :]
        tables[tail] = [tables.get(tail, [0j])[0] + val]
    for k in range(dim):
        runs = [math.comb(m - s - 1, k) for s in range(m)] if k else ()
        suffixes = [slice(math.comb(m, k) - n, None) for n in runs]
        groups = {}
        for exp, vals in tables.items():
            groups.setdefault(exp[:-1], []).append((exp[-1], vals))
        tables = {}
        for head, group in groups.items():
            # entry (s, t) is sum_e x_s^e vals_e[t], added in e order, lazily
            acc = repeat(0j, math.comb(m, k + 1))
            for e, vals in group:
                if k:
                    rows = chain.from_iterable(map(repeat, power(e), runs))
                    cols = chain.from_iterable(map(vals.__getitem__, suffixes))
                else:  # the 0-chamber is the empty tuple alone: no layout
                    rows, cols = power(e), repeat(vals[0])
                acc = map(add, acc, map(mul, rows, cols))
            tables[head] = list(acc)
    return tables.get(()) or [0j] * math.comb(m, dim)


# -- symmetric bases ------------------------------------------------------

def orbit_sum_W(lam, l: int) -> LaurentPoly:
    """m~_lambda = sum of x^mu over the signed-permutation orbit of lambda."""
    lam = tuple(lam)
    if len(lam) != l:
        raise ValueError("weight length mismatch")
    if dominant_representative(lam) != lam:
        raise ValueError("orbit_sum_W requires a dominant BC weight")
    return LaurentPoly(l, {mu: 1 for mu in weyl_orbit_tuples(lam)})


def monomial_symmetric(lam, l: int) -> LaurentPoly:
    """m_lambda = sum of x^mu over the S_l-orbit of lambda (entries >= 0)."""
    lam = tuple(lam)
    if len(lam) != l:
        raise ValueError("weight length mismatch")
    if any(e < 0 for e in lam) or tuple(sorted(lam, reverse=True)) != lam:
        raise ValueError("monomial_symmetric requires a dominant partition")
    return LaurentPoly(l, {mu: 1 for mu in set(itertools.permutations(lam))})


@lru_cache(maxsize=1024)
def _schur_partition(lam: tuple, n: int):
    """Schur polynomial of a partition (weakly decreasing, nonnegative) in n
    variables, as a plain dict of exponent tuples.

    Computed by the single-variable branching recursion
    s_lambda(z_1..z_n) = sum over interlacing mu of
    s_mu(z_1..z_{n-1}) z_n^{|lambda|-|mu|},
    which is division-free and exact over the integers.
    """
    if n == 0:
        return {(): 1}
    if len(lam) > n:
        raise ValueError("partition longer than variable count")
    lam = lam + (0,) * (n - len(lam))
    out = {}
    lam_total = sum(lam)
    ranges = [range(lam[i + 1], lam[i] + 1) for i in range(n - 1)]
    for mu in itertools.product(*ranges):  # weakly decreasing, as mu_i >= lam_{i+1} >= mu_{i+1}
        sub = _schur_partition(tuple(e for e in mu if e) or (), n - 1)
        deg = lam_total - sum(mu)
        for exp, coef in sub.items():
            full = exp + (deg,)
            out[full] = out.get(full, 0) + coef
    return out


def schur(lam, n: int) -> LaurentPoly:
    """Schur polynomial s_lambda(z_1..z_n); negative entries are handled by
    the twist s_lambda = z^{-m Lambda_n} s_{lambda + m Lambda_n}."""
    lam = tuple(int(e) for e in lam)
    if len(lam) != n:
        raise ValueError("weight length must equal the variable count")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError("schur requires a dominant weight")
    m = max(0, -lam[-1])
    base = _schur_partition(tuple(e + m for e in lam if e + m), n)
    return LaurentPoly(n, {tuple(e - m for e in exp): coef for exp, coef in base.items()})


# -- triangular basis conversions ----------------------------------------

def peel(terms: dict, leading, piece) -> dict:
    """Coefficients c_k with terms = sum_k c_k piece(k), by triangular
    elimination.  ``leading(rest)`` gives the key k and the exponent e of the
    leading term of what is left; ``piece(k)`` is a dict monic at e whose
    other exponents are all lower.  c_k is read off at e and c_k piece(k) is
    subtracted in place.  A key that comes back, or a missing e, raises: on a
    non-invariant input a step leaves its own leading orbit behind."""
    rest = {e: c for e, c in terms.items() if c != 0}
    out = {}
    while rest:
        k, e = leading(rest)
        c = rest.get(e)
        if c is None or k in out:
            raise ValueError("polynomial is not invariant under the group")
        out[k] = c
        for exp, v in piece(k).items():
            rest[exp] = rest.get(exp, 0) - c * v
            if rest[exp] == 0:
                del rest[exp]
    return out


def _extension_key(rep: tuple):
    """Fixed linear extension of dominance: total degree, then lex."""
    return (sum(rep), rep)


def _representative(exp, kind: str) -> tuple:
    """The dominant representative of the orbit of ``exp``: its absolute
    values (kind "W") or its entries (kind "S") sorted decreasing."""
    return dominant_representative(exp) if kind == "W" else tuple(sorted(exp, reverse=True))


def _leading_orbit(terms: dict, kind: str):
    """(key, exponent) of the leading orbit: both are its dominant
    representative, maximal in the fixed linear extension of dominance."""
    rep = max((_representative(exp, kind) for exp in terms), key=_extension_key)
    return rep, rep


@lru_cache(maxsize=256)
def _orbit_sum(rep, kind: str) -> LaurentPoly:
    return (orbit_sum_W if kind == "W" else monomial_symmetric)(rep, len(rep))


def expand_in_basis(p: LaurentPoly, kind: str) -> dict:
    """Coefficients of p in the orbit-sum basis (kind "W": m~_lambda under
    signed permutations; kind "S": m_lambda under permutations).

    One ``peel`` along the fixed linear extension of dominance.
    Raises if p is not invariant under the stated group.
    """
    if kind not in ("W", "S"):
        raise ValueError("kind must be 'W' or 'S'")
    return peel(
        p.terms,
        lambda rest: _leading_orbit(rest, kind),
        lambda rep: _orbit_sum(rep, kind).terms,
    )


def rebuild_from_basis(coeffs: dict, kind: str, l: int) -> LaurentPoly:
    """Sum of c * orbit sum of rep over (rep, c), read from the cached, disjoint orbit sums."""
    out = LaurentPoly.zero(l)
    out.terms = {e: c for rep, c in coeffs.items() if c != 0 for e in _orbit_sum(rep, kind).terms}
    return out


def gram_schmidt(lam, kind: str, gram) -> LaurentPoly:
    """The orbit sum of lambda minus its projection on the lower orbit sums
    of ``dominant_downset(lambda)``: monic, and orthogonal to them for the
    measure of ``gram``.  ``gram(polys)`` takes the lower orbit sums followed
    by lambda's (shared, read only) and returns <polys[i], polys[j]> at [i][j]
    for every j but the last; the right-hand side is read from lambda's row."""
    lam = tuple(lam)
    lower = [mu for mu in dominant_downset(lam) if mu != lam]
    coeffs = {lam: 1}
    if lower:
        n = len(lower)
        *rows, top = gram([_orbit_sum(mu, kind) for mu in lower + [lam]])
        coeffs.update(zip(lower, solve_linear([r[:n] for r in rows], [-g for g in top[:n]])))
    return rebuild_from_basis(coeffs, kind, len(lam))


def require_invariant(p: LaurentPoly, kind: str) -> None:
    """Raise unless p is invariant under W (kind "W", signed permutations)
    or S_l (kind "S", permutations of a polynomial: no negative exponent).
    Every coefficient must equal that of its dominant representative and
    every orbit must be complete.  Float coefficients may differ by
    _INVARIANCE_TOL of the largest one (a float product rounds differently
    at the images of one exponent); exact ones must agree exactly."""
    group = "W" if kind == "W" else "S_l"
    terms = p.terms
    slack = 0
    if p.domain != "rational":
        slack = _INVARIANCE_TOL * max(map(abs, terms.values()), default=0)
    seen = Counter()
    for exp, c in terms.items():
        rep = _representative(exp, kind)
        if (kind == "S" and rep[-1] < 0) or abs(c - terms.get(rep, 0)) > slack:
            raise ValueError(f"the measure needs {group}-invariant polynomials")
        seen[rep] += 1
    for rep, n in seen.items():
        if n != len(_orbit_sum(rep, kind).terms) and abs(terms.get(rep, 0)) > slack:
            raise ValueError(f"the measure needs {group}-invariant polynomials")


def _leading_generator(rest: dict):
    """The leading dominant weight lambda and its generator exponents
    a_r = lambda_r - lambda_{r+1}."""
    rep = max(rest, key=_extension_key)
    return tuple(map(sub, rep, rep[1:] + (0,))), rep


@lru_cache(maxsize=64)
def _generator_orbits(a: tuple, kind: str) -> dict:
    """Orbit-sum expansion of g_1^{a_1}..g_l^{a_l}, monic at the partition
    with a_r = lambda_r - lambda_{r+1}."""
    l = len(a)
    mono = LaurentPoly.const(l, 1)
    for r, e in enumerate(a, 1):
        if e:
            mono = mono * _orbit_sum((1,) * r + (0,) * (l - r), kind) ** e
    return expand_in_basis(mono, kind)


def to_generator_coords(p: LaurentPoly, kind: str) -> LaurentPoly:
    """The unique polynomial P^ in y_1..y_l with P^(g_1(x),..,g_l(x)) = p(x),
    where g_r = m~_{(1^r)} (kind "W") or e_r = m_{(1^r)} (kind "S").

    A ``peel`` in orbit-sum coordinates: the leading dominant weight lambda
    determines the generator exponents a_r = lambda_r - lambda_{r+1}, whose
    generator monomial is again monic at lambda.
    """
    orbits = expand_in_basis(p, kind)
    coeffs = peel(orbits, _leading_generator, lambda a: _generator_orbits(a, kind))
    return LaurentPoly(p.nvars, coeffs)


def from_generator_coords(phat: LaurentPoly, kind: str) -> LaurentPoly:
    """Evaluate P^ at the generators, returning the symmetric polynomial;
    a negative generator exponent raises."""
    orbits = {}
    for a, c in phat.terms.items():
        for rep, v in _generator_orbits(a, kind).items():
            orbits[rep] = orbits.get(rep, 0) + c * v
    return rebuild_from_basis(orbits, kind, phat.nvars)

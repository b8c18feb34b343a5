"""Koornwinder q-difference operator and monic Koornwinder polynomials.

The operator D_K acts on W-invariant Laurent polynomials by

    D_K = sum_j phi_j^+ (T_{q,j} - Id) + phi_j^- (T_{q^{-1},j} - Id)

with the rational coefficients phi_j^+- below.  D_K is triangular along BC
dominance in the orbit-sum basis, with the eigenvalues E_mu on the
diagonal, so the monic eigenpolynomial P_lambda = sum_mu c_mu m~_mu over the
dominance downset of lambda (c_lambda = 1) is unique once E_lambda differs
from every other E_mu there; on a collision, mode "gram" runs
``polyring.gram_schmidt`` with the Gram matrix of ``awmeasure.full_inner``,
and ``koornwinder_poly_or_gram`` is the one place that falls back to it.

One collocation loop serves every linear system: at generic points x, one
per W-orbit, the orbit sums m~_mu(x) and their images (D_K m~_mu)(x), built
from tables y_{i,k} = x_i^k + x_i^{-k} and one phi_j^+- pair per coordinate
(whose failure skips x as a pole), give one row per point; as many points as
unknowns fix the solution and two held-out points check it.  Exact
parameters collocate at small int points and solve the integer rows
r_mu = den(E_lambda) D_K m~_mu - num(E_lambda) m~_mu for P_lambda directly,
with the one right-hand side -r_lambda; with a wrong E_lambda no polynomial
solves them, so the exact held-out check also checks the D_K diagonal.  Float
parameters collocate the whole D_K matrix and back-substitute along the
downset; ``dk_apply`` collocates the one column of its argument.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import _is_exact, integer_row, solve_linear
from .polyring import MAX_VARS, LaurentPoly, expand_in_basis, gram_schmidt, rebuild_from_basis
from .qseries import check_base
from .report import VerificationReport, timed_report
from .weights import dominant_downset

_POLE_TOL = 1e-8
_COLLISION_TOL = 1e-10


class EigenvalueCollisionError(ArithmeticError):
    """Triangular solve is unavailable; caller should use the fallback mode."""


@dataclass(frozen=True)
class KoornwinderParams:
    """Parameters (t0,t1,t2,t3; q, t=q^k) with V_K membership enforced:
    the t_i are real or occur in complex-conjugate pairs, and t_i t_j is
    never a real number >= 1."""

    t0: object
    t1: object
    t2: object
    t3: object
    q: object
    k: int = 1

    def __post_init__(self) -> None:
        check_base(self.q, self.k)
        ts = self.tuple4
        complex_ts = [t for t in ts if isinstance(t, complex) and t.imag != 0]
        if Counter(complex_ts) != Counter(t.conjugate() for t in complex_ts):
            raise ValueError("complex parameters must occur in conjugate pairs")
        for a, b in itertools.combinations(ts, 2):
            prod = a * b
            if prod.imag == 0 and prod.real >= 1:
                raise ValueError("t_i t_j in [1,inf) violates V_K")

    @property
    def tuple4(self):
        return (self.t0, self.t1, self.t2, self.t3)

    @property
    def t(self):
        return self.q**self.k

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.q) and all(_is_exact(t) for t in self.tuple4)


def _integer_params(params: KoornwinderParams):
    """(numerator, denominator) pairs of t0..t3, q, t and (unreduced) t0 t1 t2 t3."""
    pairs = [(v.numerator, v.denominator) for v in (*params.tuple4, params.q, params.t)]
    return pairs[:4], pairs[4], pairs[5], tuple(map(math.prod, zip(*pairs[:4])))


def _phi_pair(x, j, params: KoornwinderParams, integers=()):
    """(phi_j^+(x), phi_j^-(x)); raises ZeroDivisionError on a pole, where a
    denominator factor is 0, or in floats within _POLE_TOL of 0.  Given
    integers = _integer_params(params) and a rational x, each phi is an integer
    (numerator, denominator) pair: with x_i = a_i/b_i, the monomials in a_i,
    b_i under each factor cancel, up to q_d / (d_0 d_1 d_2 d_3 t_d^(2l-2))."""
    if integers:
        ts, (qn, qd), (tn, td), (_, f) = integers
        x = [(v.numerator, v.denominator) for v in x]
        a, b = x[j]
        num_p = num_m = qd
        for n, d in ts:
            num_p *= d * b - n * a
            num_m *= n * b - d * a
        den = f * td ** (2 * len(x) - 2) * (b * b - a * a)
        for ai, bi in x[:j] + x[j + 1 :]:
            r, s, u, v = ai * a, bi * b, a * bi, ai * b  # x_i x_j = r/s, x_j/x_i = u/v
            num_p *= (td * s - tn * r) * (td * v - tn * u)
            num_m *= (tn * s - td * r) * (tn * v - td * u)
            den *= (s - r) * (v - u)
        den_p, den_m = den * (qd * b * b - qn * a * a), den * (qn * b * b - qd * a * a)
        if den_p == 0 or den_m == 0:
            raise ZeroDivisionError(f"phi_{j} has a pole at x")
        return (num_p, den_p), (num_m, den_m)
    q, t = params.q, params.t
    xj = x[j]
    xj2 = xj * xj
    num_p = num_m = 1
    for ti in params.tuple4:
        num_p *= 1 - ti * xj
        num_m *= ti - xj
    poles = [1 - xj2, 1 - q * xj2, q - xj2]
    den_p, den_m = poles[0] * poles[1], poles[0] * poles[2]
    for xi in x[:j] + x[j + 1 :]:
        a, b = xi * xj, xj / xi
        num_p *= (1 - t * a) * (1 - t * b)
        num_m *= (t - a) * (t - b)
        poles += (1 - a, 1 - b)
        den = poles[-2] * poles[-1]
        den_p *= den
        den_m *= den
    # den_p is exact only if x and q are but some t_i is not; a 0 raises below
    if not _is_exact(den_p) and min(map(abs, poles)) <= _POLE_TOL:
        raise ZeroDivisionError(f"phi_{j} has a pole within {_POLE_TOL} of x")
    return num_p / den_p, num_m / den_m


def dk_evaluate(p: LaurentPoly, x, params: KoornwinderParams):
    """(D_K p)(x) by direct rational-function evaluation (exact if x and params are)."""
    q = params.q
    integers = params.is_exact and all(map(_is_exact, x)) and _integer_params(params)
    base = p.evaluate(x)
    total = 0
    for j in range(p.nvars):
        phi = _phi_pair(x, j, params, integers)
        plus, minus = (Fraction(*f) for f in phi) if integers else phi
        up, down = list(x), list(x)
        up[j], down[j] = x[j] * q, x[j] / q
        total += plus * (p.evaluate(up) - base) + minus * (p.evaluate(down) - base)
    return total


# (l, exact, seed) -> the points made so far, their W-orbits and the state that continues them
_point_stream = lru_cache(maxsize=64)(lambda l, exact, seed: ([], set(), random.Random(seed)))
# (nu, exact) -> nu's distinct permutations as (coordinate, exponent) pairs, zeros only if exact
_weight_perms = lru_cache(maxsize=512)(lambda nu, exact: tuple(
    tuple((i, k) for i, k in enumerate(pi) if k or exact)
    for pi in sorted(set(itertools.permutations(nu)))
))


def _candidate_points(l: int, count: int, exact: bool, seed: int):
    """The first count of a deterministic sequence of generic points, each on
    a W-orbit (sorted |x|) of its own with distinct |x_i|; one may lie on a
    pole.  Exact coordinates are ints in 2..max(59, 2k - 1), k the points made
    before, so no stream runs out of W-orbits.  Kept per (l, exact, seed)."""
    made, orbits, rng = _point_stream(l, exact, seed)
    while len(made) < count:
        if exact:
            x = tuple(rng.randrange(2, max(60, 2 * len(made))) for _ in range(l))
        else:
            x = tuple(1.1 + 2.3 * rng.random() for _ in range(l))
        orbit = tuple(sorted(map(abs, x)))
        if len(set(orbit)) == l and orbit not in orbits:
            orbits.add(orbit)
            made.append(x)
    return made[:count]


def _orbit_rows(x, perms, degree, params: KoornwinderParams, integers):
    """m~_nu(x) and (D_K m~_nu)(x) for every nu; perms holds, per nu, its
    distinct permutations as (coordinate, exponent) pairs (zeros only if
    exact, i.e. given integers = _integer_params(params)).

    With y_{i,k} = x_i^k + x_i^{-k} (y_{i,0} = 1), m~_nu(x) is the sum over
    distinct permutations pi of nu of prod_i y_{i,pi_i}.  A shift in x_j
    changes only the factor of coordinate j, so D_K m~_nu(x) is the same
    sum with one factor at a time replaced by
    g_{j,k} = phi_j^+ (y_{j,k}(q x_j) - y_{j,k}) + phi_j^- (y_{j,k}(x_j/q) - y_{j,k}).
    Exact tables are integers on L_j = D+ D- w^degree (phi_j^+- = N+-/D+-,
    x_j = a/b, w = a b q_n q_d) divided by their gcd.  Every entry of both rows
    is then an integer times prod_j y_{j,0}; both rows are divided by their content.
    """
    y, g = [], []
    for j, xj in enumerate(x):
        if integers:
            (num_p, den_p), (num_m, den_m) = _phi_pair(x, j, params, integers)
            qn, qd = integers[1]
            a, b, c = xj.numerator, xj.denominator, (qn * qd) ** degree
            # y_k (y_0 = 1) at u/v = x_j, q x_j, x_j/q, times s (u v)^degree = w^degree
            here, up, down = (
                [(u ** (2 * k) + v ** (2 * k) if k else 1) * (u * v) ** (degree - k) * s
                 for k in range(degree + 1)]
                for u, v, s in ((a, b, c), (a * qn, b * qd, 1), (a * qd, b * qn, 1))
            )
            plus, minus, scale = num_p * den_m, num_m * den_p, den_p * den_m
            scaled = [h * scale for h in here]
            scaled += [plus * (u - h) + minus * (d - h) for h, u, d in zip(here, up, down)]
            divisor = math.gcd(*scaled)
            scaled = [v // divisor for v in scaled]
        else:
            plus, minus = _phi_pair(x, j, params)
            here = [1] + [xj**k + xj**-k for k in range(1, degree + 1)]
            up, down = xj * params.q, xj / params.q
            scaled = here + [0] + [
                plus * (up**k + up**-k - here[k]) + minus * (down**k + down**-k - here[k])
                for k in range(1, degree + 1)
            ]
        y.append(scaled[: degree + 1])
        g.append(scaled[degree + 1 :])
    values, images = [], []
    for nu_perms in perms:
        value = image = 0
        for perm in nu_perms:
            prod, shifted = 1, 0
            for i, k in perm:
                shifted = shifted * y[i][k] + prod * g[i][k]
                prod = prod * y[i][k]
            value += prod
            image += shifted
        values.append(value)
        images.append(image)
    if integers:
        divisor = math.gcd(*values, *images)
        values, images = ([v // divisor for v in vs] for vs in (values, images))
    return values, images


def _agrees(fit, target, exact: bool) -> bool:
    err = abs(fit - target)
    return err == 0 if exact else err <= 1e-7 * (1 + abs(target))


def _collocate(downset: list, params: KoornwinderParams, exact: bool, equations):
    """The solution columns of the system whose row and right-hand sides at x
    are ``equations(values, images)`` of m~_nu(x) and (D_K m~_nu)(x) over the
    downset; exact held-out rows clear each column of its denominators once.
    A point on a pole of D_K is skipped; up to 25 seeds of points are tried."""
    l = len(downset[0])
    perms = [_weight_perms(nu, exact) for nu in downset]
    degree = max(nu[0] for nu in downset)
    integers = exact and _integer_params(params)
    for attempt in range(25):
        rows, rhs = [], []
        for x in _candidate_points(l, 3 * (len(downset) + 2), exact, seed=911 + attempt):
            try:
                row, targets = equations(*_orbit_rows(x, perms, degree, params, integers))
            except ZeroDivisionError:
                continue  # x lies on a pole of D_K
            rows.append(row)
            rhs.append(targets)
            if len(rows) == len(row) + 2:
                break
        else:
            continue  # too many candidates lie on poles
        n = len(row)
        try:
            sol = solve_linear(rows[:n], rhs[:n])
        except ZeroDivisionError:
            continue
        cols = [[s[k] for s in sol] for k in range(len(targets))]
        scaled = [integer_row(col) if exact else (col, 1) for col in cols]
        if all(
            _agrees(sum(v * c for v, c in zip(row, nums)), scale * target, exact)
            for row, targets in zip(rows[n:], rhs[n:])
            for (nums, scale), target in zip(scaled, targets)
        ):
            return cols
    raise ArithmeticError("D_K interpolation failed: inconsistent support")


def _dk_columns(downset: list, columns: list, params: KoornwinderParams, exact: bool):
    """D_K of each column sum_mu c_mu m~_mu (a dict {mu: c_mu} over a
    dominance downset), as a dict {nu: coefficient} over the same downset."""
    where = {nu: i for i, nu in enumerate(downset)}
    cols = _collocate(downset, params, exact, lambda values, images: (
        values, [sum(c * images[where[mu]] for mu, c in col.items()) for col in columns]
    ))
    return [{nu: c for nu, c in zip(downset, col) if c != 0} for col in cols]


def dk_apply(p: LaurentPoly, params: KoornwinderParams) -> LaurentPoly:
    """D_K p as a W-invariant Laurent polynomial, interpolated on the union
    of the dominance downsets of p's orbits."""
    if p.is_zero:
        return p
    coeffs = expand_in_basis(p, "W")
    support = {mu for rep in coeffs for mu in dominant_downset(rep)}
    support = sorted(support, key=lambda v: (sum(v), v))
    exact = params.is_exact and p.domain == "rational"
    (image,) = _dk_columns(support, [coeffs], params, exact)
    return rebuild_from_basis(image, "W", p.nvars)


def _eigen_pair(lam, integers, top: int):
    """E_lambda = num/den at exact parameters (integers = _integer_params(params)),
    den = d_0 d_1 d_2 d_3 q_n^(top+1) q_d^top t_d^(2l-2) for any top >= max(lambda)."""
    _, (a, b), (c, d), (e, f) = integers
    l, num = len(lam), 0
    for j, lj in enumerate(lam):
        gap, rest = a**lj - b**lj, 2 * l - j - 2
        num += gap * e * b ** (top - lj + 1) * a**top * c**rest * d**j
        num -= gap * f * a ** (top - lj + 1) * b**top * c**j * d**rest
    return num, f * a ** (top + 1) * b**top * d ** (2 * l - 2)


def eigenvalue(lam, params: KoornwinderParams):
    """E_lambda = sum_j ( q^{-1} t0 t1 t2 t3 t^{2l-j-1}(q^{lam_j}-1)
    + t^{j-1}(q^{-lam_j}-1) ), as ``_eigen_pair`` for exact parameters."""
    lam = tuple(lam)
    l = len(lam)
    if params.is_exact and lam:
        return Fraction(*_eigen_pair(lam, _integer_params(params), max(lam)))
    q, t = params.q, params.t
    t4 = params.t0 * params.t1 * params.t2 * params.t3
    total = 0
    qinv = 1 / q
    for j, lj in enumerate(lam, 1):
        total += qinv * t4 * t ** (2 * l - j - 1) * (q**lj - 1)
        total += t ** (j - 1) * (qinv**lj - 1)
    return total


def koornwinder_poly(lam, params: KoornwinderParams, mode: str = "triangular") -> LaurentPoly:
    """Monic P_lambda = m~_lambda + sum_{mu<lambda} c_mu m~_mu.

    "triangular" solves (D_K - E_lambda) P = 0 along the dominance downset
    (requires E_lambda distinct from the other E_mu there): exactly by one
    eigen-collocation with one right-hand side and an exact held-out check,
    in floats by back-substitution in the collocated D_K matrix;
    "gram" orthogonalizes against lower orbit sums with the full measure.
    """
    lam = tuple(lam)
    l = len(lam)
    if l > MAX_VARS:  # before any orbit is built: the top one has l! 2^l entries
        raise ValueError(f"variable count must be in [1,{MAX_VARS}]")
    if mode == "gram":
        from .awmeasure import full_inner

        return gram_schmidt(
            lam, "W", lambda polys: [[full_inner(a, b, params) for b in polys[:-1]] for a in polys]
        )
    if mode != "triangular":
        raise ValueError("mode must be 'triangular' or 'gram'")
    downset = dominant_downset(lam)
    exact = params.is_exact
    e_lam = eigenvalue(lam, params)
    if exact:  # numerators over E_lambda's denominator, as max(mu) <= max(lambda)
        integers, top = _integer_params(params), max(lam, default=0)
        num_lam = _eigen_pair(lam, integers, top)[0]
    for mu in downset[:-1]:  # lambda comes last
        gap = (num_lam - _eigen_pair(mu, integers, top)[0] if exact
               else abs(e_lam - eigenvalue(mu, params)))
        if gap == 0 or (not exact and gap < _COLLISION_TOL * (1 + abs(e_lam))):
            raise EigenvalueCollisionError(f"E_{lam} collides with E_{mu}; use mode='gram'")
    if exact:
        # r_mu = den(E_lambda) D_K m~_mu - num(E_lambda) m~_mu
        num, den = e_lam.numerator, e_lam.denominator

        def equations(values, images):
            r = [den * image - num * value for value, image in zip(values, images)]
            return r[:-1], [-r[-1]]

        (sol,) = _collocate(downset, params, True, equations)
        lower = zip(reversed(downset[:-1]), reversed(sol))
        return rebuild_from_basis({lam: 1, **{mu: c for mu, c in lower if c != 0}}, "W", l)
    # matrix[mu][nu]: coefficient of m~_nu in D_K m~_mu
    matrix = dict(zip(downset, _dk_columns(downset, [{mu: 1} for mu in downset], params, False)))
    coeffs = {lam: 1}
    for mu in reversed(downset[:-1]):
        acc = 0  # summed in order, not by sum(): Python 3.12 compensates float sums
        for larger, c in coeffs.items():
            acc += matrix[larger].get(mu, 0) * c
        c_mu = acc / (e_lam - matrix[mu].get(mu, 0))
        if c_mu != 0:
            coeffs[mu] = c_mu
    return rebuild_from_basis(coeffs, "W", l)


def koornwinder_poly_or_gram(lam, params: KoornwinderParams) -> LaurentPoly:
    """P_lambda by the triangular solve, or by mode "gram" when E_lambda collides."""
    try:
        return koornwinder_poly(lam, params)
    except EigenvalueCollisionError:
        return koornwinder_poly(lam, params, mode="gram")


def check_symmetries(lam, params: KoornwinderParams) -> VerificationReport:
    """Coefficient-level parameter symmetry of P_lambda: invariance under
    permuting (t0..t3), and P(x;-t) = (-1)^{|lambda|} P(-x;t): exactly, or for
    float parameters to 1e-10 relative to the largest |coefficient| of P."""
    lam = tuple(lam)
    exact = params.is_exact

    def body():
        base = koornwinder_poly(lam, params)
        top = max(abs(c) for c in base.terms.values())
        residuals = [0.0]

        def agrees(poly, target):
            if exact:
                return poly == target
            diff = (poly - target).terms.values()
            residuals.append(max((abs(c) for c in diff), default=0.0) / top)
            return residuals[-1] < 1e-10

        failures = []
        # the first permutation is the identity, whose P_lambda is ``base``
        for perm in itertools.islice(itertools.permutations(range(4)), 1, None):
            permuted = KoornwinderParams(*(params.tuple4[i] for i in perm), params.q, params.k)
            if not agrees(koornwinder_poly(lam, permuted), base):
                failures.append(("permutation", perm))
                break
        negated = KoornwinderParams(*(-t for t in params.tuple4), params.q, params.k)
        flip = koornwinder_poly(lam, negated)
        sign = -1 if sum(lam) % 2 else 1
        if not agrees(flip, base.negate_variables().scale(sign)):
            failures.append(("sign-flip", None))
        residual = None if exact else max(residuals)
        return not failures, residual, {"failures": failures}

    params_doc = {"lambda": list(lam), "q": str(params.q), "k": params.k}
    return timed_report("koornwinder-parameter-symmetry", params_doc, exact, body)

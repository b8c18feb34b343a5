"""Koornwinder q-difference operator and monic Koornwinder polynomials.

The operator D_K acts on W-invariant Laurent polynomials by

    D_K = sum_j phi_j^+ (T_{q,j} - Id) + phi_j^- (T_{q^{-1},j} - Id)

with the rational coefficients phi_j^+- below.  D_K is triangular along BC
dominance in the orbit-sum basis, with the eigenvalues E_mu on the
diagonal, so the monic eigenpolynomial P_lambda is obtained by a
back-substitution over the dominance downset of lambda once the E_mu along
the downset are pairwise distinct; a Gram-Schmidt fallback against the
orthogonality measure covers collisions.

D_K is computed by collocation, with one engine per (parameters, downset).
The images D_K m~_mu of the orbit sums of a dominance downset lie in its
span, so |downset| generic points, shared by every column, fix all of
them in one solve with a block right-hand side; two more points check the
result.  At each point the orbit sums and their images come from
per-coordinate tables y_{i,k} = x_i^k + x_i^{-k} and one phi_j^+- pair per
coordinate, summed over the distinct permutations of each weight (at most
l! terms, where the orbit has up to 2^l l!).  The phi pair is also the pole
test: a point where it cannot be formed is skipped.  With rational
parameters and points the phi pair, the tables and so every row are built
from integers, each row divided by its content (a per-point scale, which
leaves the solution unchanged); each solution column is cleared of its
denominators once, for an integer held-out check; E_mu checks the diagonal.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import _inv, _is_exact, integer_row, solve_linear
from .polyring import LaurentPoly, expand_in_basis, orbit_sum_W, rebuild_from_basis
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
        for t in complex_ts:
            if not any(abs(s - t.conjugate()) == 0 for s in complex_ts if s is not t):
                raise ValueError("complex parameters must occur in conjugate pairs")
        for i in range(4):
            for j in range(i + 1, 4):
                prod = ts[i] * ts[j]
                if isinstance(prod, complex):
                    if prod.imag == 0 and prod.real >= 1:
                        raise ValueError("t_i t_j in [1,inf) violates V_K")
                elif prod >= 1:
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


def _candidate_points(l: int, count: int, exact: bool, seed: int):
    """Deterministic generic evaluation points away from each other's
    W-orbits, generated lazily up to count; a point may lie on a pole."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        if exact:
            x = tuple(
                Fraction(rng.randrange(23, 400), rng.choice([7, 11, 13, 17, 19]))
                for _ in range(l)
            )
        else:
            x = tuple(1.1 + 2.3 * rng.random() for _ in range(l))
        if len(set(abs(v) for v in x)) < l:
            continue
        made += 1
        yield x


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


def _dk_columns(downset: list, columns: list, params: KoornwinderParams, exact: bool):
    """D_K of each column sum_mu c_mu m~_mu (a dict {mu: c_mu} over a
    dominance downset), as a dict {nu: coefficient} over the same downset.

    One collocation system serves every column: |downset| points fix the
    coefficients, two held-out points verify that the images lie in the
    downset (exactly in rational mode).  Up to 25 seeds of points are tried.
    """
    n = len(downset)
    l = len(downset[0])
    perms = []
    for nu in downset:
        distinct = sorted(set(itertools.permutations(nu)))
        perms.append([[(i, k) for i, k in enumerate(pi) if k or exact] for pi in distinct])
    degree = max(nu[0] for nu in downset)
    where = {nu: i for i, nu in enumerate(downset)}
    integers = exact and _integer_params(params)
    for attempt in range(25):
        rows, rhs = [], []
        for x in _candidate_points(l, 3 * (n + 2), exact, seed=911 + attempt):
            try:
                values, images = _orbit_rows(x, perms, degree, params, integers)
            except ZeroDivisionError:
                continue  # x lies on a pole of D_K
            rows.append(values)
            rhs.append(
                [sum(c * images[where[mu]] for mu, c in col.items()) for col in columns]
            )
            if len(rows) == n + 2:
                break
        if len(rows) < n + 2:
            continue
        try:
            sol = solve_linear(rows[:n], rhs[:n])
        except ZeroDivisionError:
            continue
        cols = [integer_row(col) if exact else (col, 1) for col in zip(*sol)]
        if all(
            _agrees(sum(v * c for v, c in zip(row, nums)), scale * target, exact)
            for row, targets in zip(rows[n:], rhs[n:])
            for (nums, scale), target in zip(cols, targets)
        ):
            return [
                {nu: s[k] for nu, s in zip(downset, sol) if s[k] != 0}
                for k in range(len(columns))
            ]
    raise ArithmeticError("D_K interpolation failed: inconsistent support")


def dk_apply(p: LaurentPoly, params: KoornwinderParams) -> LaurentPoly:
    """D_K p as a W-invariant Laurent polynomial, interpolated on the union
    of the dominance downsets of p's orbits."""
    if p.is_zero:
        return p
    coeffs = expand_in_basis(p, "W")
    support = set()
    for rep in coeffs:
        support.update(dominant_downset(rep))
    support = sorted(support, key=lambda v: (sum(v), v))
    exact = params.is_exact and p.domain == "rational"
    (image,) = _dk_columns(support, [coeffs], params, exact)
    return rebuild_from_basis(image, "W", p.nvars)


def eigenvalue(lam, params: KoornwinderParams):
    """E_lambda = sum_j ( q^{-1} t0 t1 t2 t3 t^{2l-j-1}(q^{lam_j}-1)
    + t^{j-1}(q^{-lam_j}-1) ); exact parameters give one integer numerator
    over the common denominator d_0 d_1 d_2 d_3 q_n^(m+1) q_d^m t_d^(2l-2),
    m = max(lambda)."""
    lam = tuple(lam)
    l = len(lam)
    if params.is_exact and lam:
        _, (a, b), (c, d), (e, f) = _integer_params(params)
        top, num = max(lam), 0
        for j, lj in enumerate(lam):
            gap, rest = a**lj - b**lj, 2 * l - j - 2
            num += gap * e * b ** (top - lj + 1) * a**top * c**rest * d**j
            num -= gap * f * a ** (top - lj + 1) * b**top * c**j * d**rest
        return Fraction(num, f * a ** (top + 1) * b**top * d ** (2 * l - 2))
    q, t = params.q, params.t
    t4 = params.t0 * params.t1 * params.t2 * params.t3
    total = 0
    qinv = _inv(q)
    for j, lj in enumerate(lam, 1):
        total += qinv * t4 * t ** (2 * l - j - 1) * (q**lj - 1)
        total += t ** (j - 1) * (qinv**lj - 1)
    return total


def koornwinder_poly(lam, params: KoornwinderParams, mode: str = "triangular") -> LaurentPoly:
    """Monic P_lambda = m~_lambda + sum_{mu<lambda} c_mu m~_mu.

    "triangular" solves (D_K - E_lambda) P = 0 by back-substitution along
    the dominance downset (requires distinct eigenvalues there);
    "gram" orthogonalizes against lower orbit sums with the full measure.
    """
    lam = tuple(lam)
    l = len(lam)
    if mode == "gram":
        return _koornwinder_gram(lam, params)
    if mode != "triangular":
        raise ValueError("mode must be 'triangular' or 'gram'")
    downset = dominant_downset(lam)
    exact = params.is_exact
    energy = {mu: eigenvalue(mu, params) for mu in downset}
    e_lam = energy[lam]
    for mu in downset:
        if mu == lam:
            continue
        gap = abs(e_lam - energy[mu])
        if gap == 0 or (not exact and gap < _COLLISION_TOL * (1 + abs(e_lam))):
            raise EigenvalueCollisionError(
                f"E_{lam} collides with E_{mu}; use mode='gram'"
            )
    # matrix[mu][nu]: coefficient of m~_nu in D_K m~_mu
    matrix = dict(
        zip(downset, _dk_columns(downset, [{mu: 1} for mu in downset], params, exact))
    )
    if exact and any(matrix[mu].get(mu, 0) != energy[mu] for mu in downset):
        raise ArithmeticError("D_K diagonal differs from the eigenvalues E_mu")
    coeffs = {lam: 1}
    for mu in reversed(downset):
        if mu == lam:
            continue
        acc = 0
        for larger, c_larger in coeffs.items():
            acc += matrix[larger].get(mu, 0) * c_larger
        e_mu = matrix[mu].get(mu, 0)
        c_mu = acc / (e_lam - e_mu)
        if c_mu != 0:
            coeffs[mu] = c_mu
    return rebuild_from_basis(coeffs, "W", l)


def _koornwinder_gram(lam, params: KoornwinderParams) -> LaurentPoly:
    from .awmeasure import full_inner

    l = len(lam)
    downset = [mu for mu in dominant_downset(lam) if mu != lam]
    if not downset:
        return orbit_sum_W(lam, l)
    basis = [orbit_sum_W(mu, l) for mu in downset]
    top = orbit_sum_W(lam, l)
    gram = [
        [full_inner(bi, bj, params) for bj in basis] for bi in basis
    ]
    rhs = [-full_inner(top, bi, params) for bi in basis]
    sol = solve_linear(gram, rhs)
    return rebuild_from_basis({lam: 1, **dict(zip(downset, sol))}, "W", l)


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
        for perm in itertools.permutations(range(4)):
            ts = params.tuple4
            permuted = KoornwinderParams(
                ts[perm[0]], ts[perm[1]], ts[perm[2]], ts[perm[3]], params.q, params.k
            )
            if not agrees(koornwinder_poly(lam, permuted), base):
                failures.append(("permutation", perm))
                break
        negated = KoornwinderParams(
            -params.t0, -params.t1, -params.t2, -params.t3, params.q, params.k
        )
        flip = koornwinder_poly(lam, negated)
        sign = -1 if sum(lam) % 2 else 1
        if not agrees(flip, base.negate_variables().scale(sign)):
            failures.append(("sign-flip", None))
        residual = None if exact else max(residuals)
        return not failures, residual, {"failures": failures}

    params_doc = {"lambda": list(lam), "q": str(params.q), "k": params.k}
    return timed_report("koornwinder-parameter-symmetry", params_doc, exact, body)

"""Quantum-Grassmannian algebraic layer.

Matrix side: the standard GL_n R-matrix

    R = sum_{ij} q^{delta_ij} e_ii(x)e_jj + (q-q^{-1}) sum_{i>j} e_ij(x)e_ji,

its inverse R^- = R^{-1}, which is R at q^{-1} (R^-(q) = R(q^{-1})), the
flip conjugates R^+ = PRP = R^T and (R21)^{-1} = P R^{-1} P = (R^-)^T
(transposes in the basis e_i (x) e_j), the quantum Yang-Baxter equation,
the reflection equation R12 X1 R12^{-1} X2 = X2 R21^{-1} X1 R21 solved by
the J-matrices, and the transposed linear equation solved by the tilde
J-matrix.  The matrices are sparse (``bcq.linalg``), the R-side factors built
once per (n, q) (``_r_side``).  A check runs at the exact values of its
inputs, a float at its binary value, and scales each factor to integers
once, so each side is an integer product M over S, the product of its
scales, and compares M_lhs S_rhs with M_rhs S_lhs, exact if the inputs are.

Vector side: the q-exterior algebras on V = C^n and its dual, the braiding
phi_hat_r: Wedge^{r-1}(V*) (x) V -> V (x) Wedge^{r-1}(V*), the intertwiner
Theta_hat_r built from it, Psi_hat_r, principal terms (weight components on
the signed-permutation orbit of (1^r) pushed to the GL_n lattice), and the
reference vectors u_r, u~_r, w^sigma, w~^sigma, w^infty whose
principal-term constants are verified exactly.  The braiding is natural, so
Psi_hat_r(x (x) y) = Theta_hat_r(Psi_hat_{r-1}(x) (x) y) for y in V (x) V*:
Psi_hat_r takes its factors w_1, ..., w_r in V (x) V* as a list and folds
Theta_hat_s with w_s from 1 in Wedge^0 (x) Wedge^0, so phi_hat_r is the
only braiding rule and a general tensor maps by linearity.  Like a matrix
check, Theta_hat_r scales each factor family to integers once, multiplies
each term as integers and divides once per key, rounding once on a float.

Every vector-side map keeps the GL_n weight, the weight of v_I (x) v*_J
being 1_I - 1_J: phi_hat_r sends v*_I (x) v_j to v_j (x) v*_I plus, for j
in I, terms v_m (x) v*_{I-j+m} of the same weight, and the wedge
projections only merge or kill index sets.  So the principal term of
Psi_hat_r(w^{(x) r}) depends only on the terms of weight on the orbit that
the last fold forms: the check folds the factors [w] * r, passes the orbit
weights only to the last fold, and never forms w^{(x) r}.

Character side: Casimir eigenvalues, branching of GL_n Schur polynomials
into products over the block subgroup GL_{n-l} x GL_l, and the Gelfand
property (trivial block-subgroup type has multiplicity at most one, exactly
one on spherical weights).  Both multiplicities are Littlewood-Richardson
coefficients, counted as tableaux, the Gelfand ones only at |lambda| = 0 (the
trivial type has degree 0); no polynomial is multiplied or peeled.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .linalg import (
    _inv,
    _is_exact,
    integer_matrix,
    mat_identity,
    mat_kron,
    mat_mul,
    mat_transpose,
    partial_transpose_first,
)
from .report import VerificationReport, difference_report, timed_report
from .weights import (
    GrassmannShape,
    WeightVector,
    flat_map,
    weyl_orbit_tuples,
)


def _at_exact_values(q, dicts):
    """(q, dicts, exact): q and the values of the dicts at their exact
    values, a float at its binary value, and whether all were exact."""
    exact = _is_exact(q) and all(_is_exact(x) for d in dicts for x in d.values())
    dicts = dicts if exact else [{k: Fraction(x) for k, x in d.items()} for d in dicts]
    return Fraction(q), dicts, exact


def _matrix_diffs(lhs, rhs, exact):
    """lhs S_rhs - rhs S_lhs on the nonzero positions, for the lists ``lhs``
    and ``rhs`` of (matrix, scale) factors of an identity, S the product of
    a side's scales; unless ``exact``, lhs - rhs, each rounded once."""
    a, b = (reduce(mat_mul, [m for m, _ in side]) for side in (lhs, rhs))
    sa, sb = (math.prod(s for _, s in side) for side in (lhs, rhs))
    diffs = (x.get(j, 0) * sb - y.get(j, 0) * sa for x, y in zip(a, b) for j in x.keys() | y.keys())
    return diffs if exact else (d / (sa * sb) for d in diffs)


def _matrix_report(identity: str, n: int, q, xs, sides) -> VerificationReport:
    """lhs = rhs for the factor lists sides(q, *xs) at the exact values of q and the n x n xs."""
    params = {"n": n, "q": str(q)}
    q, rows, exact = _at_exact_values(q, [row for x in xs for row in x])
    xs = [rows[i : i + n] for i in range(0, len(rows), n)]
    return difference_report(identity, params, exact, lambda: _matrix_diffs(*sides(q, *xs), exact))


# -- R-matrices and matrix equations --------------------------------------

def _r(n: int, d, c):
    """d on the e_i (x) e_i diagonal, 1 on the rest of the diagonal, and c at
    (e_i (x) e_j, e_j (x) e_i) for i > j; index i*n+j."""
    if n < 2:
        raise ValueError("n must be >= 2")
    out = []
    for i in range(n):
        for j in range(n):
            # (e_ij (x) e_ji)(e_j (x) e_i) = e_i (x) e_j for i > j
            row = {j * n + i: c} if i > j and c != 0 else {}
            row[i * n + j] = d if i == j else 1
            out.append(row)
    return out


def r_matrix(n: int, q):
    """R on C^n (x) C^n in the basis e_i (x) e_j, index i*n+j."""
    return _r(n, q, q - _inv(q))


def r_minus(n: int, q):
    """R^- = R^{-1} = R(q^{-1}), in closed form."""
    qi = _inv(q)
    return _r(n, qi, qi - q)


def r_plus(n: int, q):
    """R^+ = P R P = R^T: the off-diagonal entries move to i < j."""
    return mat_transpose(r_matrix(n, q))


def r21_minus(n: int, q):
    """(R21)^{-1} = P R^{-1} P = (R^-)^T."""
    return mat_transpose(r_minus(n, q))


def qybe_check(n: int, q) -> VerificationReport:
    """R12 R13 R23 = R23 R13 R12 on C^n (x) C^n (x) C^n, with R12 = R (x) 1,
    R23 = 1 (x) R and R13 = P23 R12 P23, whose row (i, k, j) is row (i, j)
    of R with k kept in the middle of each column."""

    def sides(q):
        (r, s), one = integer_matrix(r_matrix(n, q)), mat_identity(n)
        r13 = [{(c // n) * n * n + k * n + c % n: v for c, v in r[i * n + j].items()}
               for i in range(n) for k in range(n) for j in range(n)]
        r12, r13, r23 = (mat_kron(r, one), s), (r13, s), (mat_kron(one, r), s)
        return [r12, r13, r23], [r23, r13, r12]

    return _matrix_report("quantum-yang-baxter", n, q, [], sides)


def _j_matrix(n: int, l: int, head, anti):
    """``head`` on the first l diagonal entries, 1 on the middle block, and
    ``anti(k)`` at (k, n+1-k) for the rows k in [1, l] u [n-l+1, n]."""
    GrassmannShape(n, l)
    out = []
    for k in range(1, n + 1):
        row = {k - 1: head if k <= l else 1} if k <= n - l else {}
        if k <= l or k > n - l:
            row[n - k] = anti(k)
        out.append({j: x for j, x in row.items() if x != 0})
    return out


def j_sigma(n: int, l: int, sigma: int, q):
    """J^sigma: (1-q^{2 sigma}) on the first l diagonal entries, 1 on the
    middle block, -q^sigma on the antidiagonal pairs (k, n+1-k)."""
    qs = q**sigma
    return _j_matrix(n, l, 1 - qs * qs, lambda k: -qs)


def j_infty(n: int, l: int):
    """J^infty: identity on the first n-l coordinates."""
    return _j_matrix(n, l, 1, lambda k: 0)


def j_tilde_sigma(n: int, l: int, sigma: int, q):
    """The tilde J-matrix: diagonal 1 - q^{2(n-2l)+2 sigma} on the first l
    entries, 1 on the middle block, and antidiagonal entries
    -q^{sigma-1} q^{2(k-l)} at (k,k') and -q^{sigma-1} q^{2(k'-l)} at (k',k)."""
    qs1 = q ** (sigma - 1)
    head = 1 - q ** (2 * (n - 2 * l)) * q ** (2 * sigma)
    return _j_matrix(n, l, head, lambda k: -qs1 * q ** (2 * (k - l)))


def reflection_check(x, n: int, q) -> VerificationReport:
    """R12 X1 R12^{-1} X2 = X2 R21^{-1} X1 R21 for an n x n sparse matrix X."""

    def sides(q, x):
        (r, rm, rp, r21m), _ = _r_side(n, q)
        (m, s), one = integer_matrix(x), mat_identity(n)
        x1, x2 = (mat_kron(m, one), s), (mat_kron(one, m), s)
        return [r, x1, rm, x2], [x2, r21m, x1, rp]

    return _matrix_report("reflection-equation", n, q, [x], sides)


@lru_cache(maxsize=16)
def _r_side(n: int, q):
    """(R, R^-, R^+, R21^-) and (a, a^{-1}, b, b^{-1}), a = (R21^-)^{t1}, b = R^{t1},
    at an exact q, each scaled to integers once per (n, q), shared so never
    mutated.  By crossing symmetry, b^{-1} = ((D (x) 1) R^- (D^{-1} (x) 1))^{t1}
    and a^{-1} the same with R^+, for D = diag(1, q^-2, ..., q^-2(n-1))."""
    rs = r_matrix(n, q), r_minus(n, q), r_plus(n, q), r21_minus(n, q)
    d = _inv(q * q)  # D (x) 1 scales row r by d^(r // n)
    rm, rp = ([{c: x * d ** (r // n - c // n) for c, x in row.items()} for r, row in enumerate(m)]
              for m in rs[1:3])
    ts = (partial_transpose_first(m, n) for m in (rs[3], rp, rs[0], rm))
    return tuple(tuple(integer_matrix(m) for m in ms) for ms in (rs, ts))


def refalt_check(jt, js, n: int, q) -> VerificationReport:
    """Js_1 (R21^-)^{t1} Jt_2 ((R21^-)^{t1})^{-1}
    = R^{t1} Jt_2 (R^{t1})^{-1} Js_1, for n x n sparse matrices Jt, Js."""

    def sides(q, jt, js):
        _, (a, a_inv, b, b_inv) = _r_side(n, q)
        (ms, ss), (mt, st), one = integer_matrix(js), integer_matrix(jt), mat_identity(n)
        js1, jt2 = (mat_kron(ms, one), ss), (mat_kron(one, mt), st)
        return [js1, a, jt2, a_inv], [b, jt2, b_inv, js1]

    return _matrix_report("transposed-reflection-equation", n, q, [jt, js], sides)


# -- q-exterior algebra ----------------------------------------------------

def _inversions(i_set, j_set):
    """#{(i, j) in I x J : i > j}, or None when I and J meet."""
    count = 0
    for i in i_set:
        for j in j_set:
            if i == j:
                return None
            count += i > j
    return count


def _wedge(i_tuple, j_tuple, signs):
    """v_I ^ v_J = sgn(I;J) v_{I u J} as (sgn(I;J), sorted union), (0, None) if I
    and J meet; sgn(I;J) = (-q)^k, k = #{(i,j) in IxJ : i > j}, read as signs[k]."""
    count = _inversions(i_tuple, j_tuple)
    s = 0 if count is None else signs[count]
    if s == 0:
        return 0, None
    return s, tuple(sorted((*i_tuple, *j_tuple)))


@dataclass
class QExtVector:
    """Vector in one of the tensor spaces used by the intertwiners.

    ``space`` tags the ambient space; ``coeffs`` maps a basis index to a
    scalar.  Indices are pairs (i, j) for V (x) V* ("V*V.1") and pairs of
    strictly increasing subset tuples (I, J) for the wedge spaces.
    """

    space: str
    coeffs: dict

    def scale(self, c) -> "QExtVector":
        return QExtVector(self.space, {k: c * v for k, v in self.coeffs.items()})

    def __add__(self, other: "QExtVector") -> "QExtVector":
        if self.space != other.space:
            raise ValueError("space mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return QExtVector(self.space, {k: v for k, v in out.items() if v != 0})

    def __sub__(self, other: "QExtVector") -> "QExtVector":
        return self + other.scale(-1)


def w_vectors(shape: GrassmannShape, sigma: int, q):
    """(w^sigma, w~^sigma, w^infty) in V (x) V*, coefficients read off the
    corresponding J-matrices."""
    n, l = shape.n, shape.l
    mats = (j_sigma(n, l, sigma, q), j_tilde_sigma(n, l, sigma, q), j_infty(n, l))
    return tuple(
        QExtVector("V*V.1", {(i + 1, j + 1): x for i, row in enumerate(m) for j, x in row.items()})
        for m in mats
    )


def u_vector(shape: GrassmannShape, r: int) -> QExtVector:
    """u_r = sum over I in [1,l] u [l',n] with |I| = r, I disjoint from its
    mirror I', of v_I (x) v*_{I'}."""
    n, l = shape.n, shape.l
    if not 1 <= r <= l:
        raise ValueError("r must satisfy 1 <= r <= l")
    window = list(range(1, l + 1)) + list(range(n - l + 1, n + 1))
    coeffs = {}
    for i_set in itertools.combinations(window, r):
        mirror = tuple(sorted(n + 1 - i for i in i_set))
        if not set(i_set) & set(mirror):
            coeffs[(i_set, mirror)] = 1
    return QExtVector(f"Wedge.{r}", coeffs)


def u_tilde_vector(shape: GrassmannShape, r: int, q) -> QExtVector:
    """u~_r: same support as u_r with the factor q^{sum_{j in I'} 2(n-j)}."""
    return QExtVector(f"Wedge.{r}", {
        (i_set, mirror): c * q ** sum(2 * (shape.n - j) for j in mirror)
        for (i_set, mirror), c in u_vector(shape, r).coeffs.items()
    })


def psi_hat_r(ws, shape: GrassmannShape, q, weights=None) -> QExtVector:
    """The composed braiding and wedge projections on w_1 (x) ... (x) w_r,
    ``ws`` = [w_1, ..., w_r] in V (x) V*: Theta_hat_s with w_s for s = 1,
    ..., r, from 1 = (-q)^0 in Wedge^0 (x) Wedge^0, so Psi_hat_1(v_i (x)
    v*_j) = v_(i) (x) v*_(j); the ``weights`` of ``theta_hat_r`` are passed
    to the last fold only, and only for r >= 2.  The folds run at the exact
    values of q and the ws, and the result is rounded once unless all were."""
    r = len(ws)
    if not 1 <= r <= shape.l:
        raise ValueError("r must satisfy 1 <= r <= l")
    q, coeffs, exact = _at_exact_values(q, [w.coeffs for w in ws])
    image = QExtVector("Wedge.0", {((), ()): (-q) ** 0})
    for s, w in enumerate(QExtVector(w.space, c) for w, c in zip(ws, coeffs)):
        image = theta_hat_r(image, w, shape, q, weights if s == r - 1 > 0 else None)
    out = image.coeffs if exact else {k: float(c) for k, c in image.coeffs.items()}
    return QExtVector(f"Wedge.{r}", out)


def phi_hat_r(i_set, j: int, q, signs):
    """The braiding Wedge^{r-1}(V*) (x) V -> V (x) Wedge^{r-1}(V*):
    list of ((vector_index, dual_subset), coeff) for input v*_I (x) v_j,
    each sign (-q)^k read as signs[k] for k < |I|."""
    i_set = tuple(sorted(i_set))
    if j not in i_set:
        return [((j, i_set), 1)]
    qi = _inv(q)
    rest = tuple(x for x in i_set if x != j)
    out = [((j, i_set), qi)]
    denom = signs[_inversions(rest, (j,))]
    for m in range(1, j):
        count = _inversions(rest, (m,))
        if count is not None:
            out.append(((m, tuple(sorted(rest + (m,)))), -(q - qi) * signs[count] / denom))
    return out


def theta_hat_r(
    u: QExtVector, w: QExtVector, shape: GrassmannShape, q, weights=None
) -> QExtVector:
    """Theta_hat_r: Wedge^{r-1} (x) Wedge^{r-1} (x) V (x) V* -> Wedge^r (x)
    Wedge^r, multiplying through the braided middle factor, for u in
    Wedge.{r-1} and w in V*V.1 with indices in [1, n].  Given a set of GL_n
    ``weights``, only the terms of a weight in it are formed.  An empty u,
    whose r is unknown, maps to an empty "Wedge.?" vector.  A term c d e s_v
    s_d multiplies coefficients of u, w and phi_hat_r (tabled per (J, s))
    and two signs, each family scaled to integers once at the exact values
    of q, u and w, and each key's sum divided once, rounded unless all were exact."""
    some_key = next(iter(u.coeffs), None)
    if some_key is None:
        return QExtVector("Wedge.?", {})
    n, r = shape.n, len(some_key[0]) + 1
    if not 1 <= r <= shape.l:
        raise ValueError("r must satisfy 1 <= r <= l")
    for v, space in ((u, f"Wedge.{r - 1}"), (w, "V*V.1")):
        indices = (x for key in v.coeffs for x in (key if space == "V*V.1" else key[0] + key[1]))
        if v.space != space or not all(isinstance(x, int) and 1 <= x <= n for x in indices):
            raise ValueError(f"need a {space} vector with indices in [1, n]")
    q, (uc, wc), exact = _at_exact_values(q, (u.coeffs, w.coeffs))
    pairs = [(a, b) for a in uc for b in wc
             if weights is None or _weight(a[0] + b[:1], a[1] + b[1:], n) in weights]
    signs = {k: (-q) ** k for k in range(n)}
    keys = list(dict.fromkeys((a[1], b[0]) for a, b in pairs))
    ((us,), (ws,), (sg,)), (su, sw, ss) = zip(*(integer_matrix([x]) for x in (uc, wc, signs)))
    es, se = integer_matrix([dict(phi_hat_r(*key, q, signs)) for key in keys])
    phis, out = dict(zip(keys, es)), {}
    for (i_set, j_set), (s, t) in pairs:
        cd = us[i_set, j_set] * ws[s, t]
        for (m, k_set), e in phis[j_set, s].items():
            sv, i2 = _wedge(i_set, (m,), sg)
            if sv == 0:
                continue
            sd, j2 = _wedge((t,), k_set, sg)
            if sd == 0:
                continue
            out[i2, j2] = out.get((i2, j2), 0) + cd * e * sv * sd
    scale = su * sw * se * ss * ss
    out = {k: Fraction(v, scale) if exact else v / scale for k, v in out.items() if v != 0}
    return QExtVector(f"Wedge.{r}", out)


def _weight(vectors, duals, n: int) -> tuple:
    """GL_n weight of v_{i_1} (x) ... (x) v*_{j_1} (x) ...: the sum of e_i
    over the vector indices minus the sum of e_j over the dual ones."""
    weight = [0] * n
    for i in vectors:
        weight[i - 1] += 1
    for j in duals:
        weight[j - 1] -= 1
    return tuple(weight)


@lru_cache(maxsize=64)
def _orbit_weights(shape: GrassmannShape, r: int) -> frozenset:
    """The signed-permutation orbit of (1^r), pushed to the GL_n lattice."""
    nus = weyl_orbit_tuples((1,) * r + (0,) * (shape.l - r))
    return frozenset(flat_map(WeightVector(nu, "BC"), shape).entries for nu in nus)


def principal_term(v: QExtVector, shape: GrassmannShape, r: int) -> QExtVector:
    """Weight components of v on the GL_n weights corresponding to the
    signed-permutation orbit of (1^r); the weight of v_I (x) v*_J is the
    indicator of I minus the indicator of J."""
    orbit = _orbit_weights(shape, r)
    return QExtVector(v.space, {
        (i_set, j_set): c for (i_set, j_set), c in v.coeffs.items()
        if _weight(i_set, j_set, shape.n) in orbit
    })


def _constant_base(sigma: int, l: int, q, tilde: bool):
    """q^sigma, or q^{sigma-1} q^{2(1-l)} for the tilde vectors."""
    return q ** (sigma - 1) * q ** (2 * (1 - l)) if tilde else q**sigma


def _q2_integer(i: int, q):
    """[i]_{q^2} = 1 + q^2 + ... + q^{2(i-1)} = (1-q^{2i})/(1-q^2)."""
    return sum(q ** (2 * j) for j in range(i))


def psi_constant(r: int, sigma: int, l: int, q, tilde: bool = False):
    """The exact principal-term constants of the composed intertwiner on the
    r-th tensor power of w^sigma (or w~^sigma): (b/(q^2-1))^r (q^2; q^2)_r
    = (-b)^r prod_{i<=r} [i]_{q^2}, b = ``_constant_base``, a polynomial
    in q that holds at q = +-1 too."""
    start = (-_constant_base(sigma, l, q, tilde)) ** r
    return math.prod((_q2_integer(i, q) for i in range(1, r + 1)), start=start)


def theta_constant(r: int, sigma: int, l: int, q, tilde: bool = False):
    """-q^sigma (1-q^{2r})/(1-q^2) = -q^sigma [r]_{q^2}, or its tilde analog."""
    return -_constant_base(sigma, l, q, tilde) * _q2_integer(r, q)


def _principal_report(identity, shape, r, sigma, q, tilde, image, constant):
    """Principal term of ``image(w, u, q)``, w = w^sigma and u(k) = u_k (or w~^sigma
    and u~_k), equals ``constant(r, sigma, l, q, tilde)`` u(r), at the exact q."""
    params = {"n": shape.n, "l": shape.l, "r": r, "sigma": sigma, "q": str(q), "tilde": tilde}
    exact, q = _is_exact(q), Fraction(q)

    def differences():
        w = w_vectors(shape, sigma, q)[1 if tilde else 0]
        u = (lambda k: u_tilde_vector(shape, k, q)) if tilde else (lambda k: u_vector(shape, k))
        target = u(r).scale(constant(r, sigma, shape.l, q, tilde))
        got = principal_term(image(w, u, q), shape, r)
        return (got - target).coeffs.values()

    return difference_report(identity, params, exact, differences)


def intertwiner_check(
    shape: GrassmannShape, r: int, sigma: int, q, tilde: bool = False
) -> VerificationReport:
    """Principal term of the composed intertwiner applied to the r-th tensor
    power of the fixed vector equals the closed-form constant times u_r."""
    return _principal_report(
        "intertwiner-principal-constant", shape, r, sigma, q, tilde,
        lambda w, u, q: psi_hat_r([w] * r, shape, q, _orbit_weights(shape, r)), psi_constant,
    )


def theta_constant_check(
    shape: GrassmannShape, r: int, sigma: int, q, tilde: bool = False
) -> VerificationReport:
    """Principal term of Theta_hat_r(u_{r-1} (x) w^sigma) equals
    -q^sigma (1-q^{2r})/(1-q^2) u_r (and the tilde analog)."""
    return _principal_report(
        "theta-principal-constant", shape, r, sigma, q, tilde,
        lambda w, u, q: theta_hat_r(u(r - 1), w, shape, q, _orbit_weights(shape, r)),
        theta_constant,
    )


# -- characters and branching ---------------------------------------------

def casimir_eigenvalue(lam, n: int, q):
    """chi_lambda = sum_k q^{2(lambda_k + n - k)}."""
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("weight length must be n")
    return sum(q ** (2 * (lam[k] + n - k - 1)) for k in range(n))


def _shift_dominant(lam, n: int):
    """(lambda + m, m) for the least m >= 0 that makes lambda + m a partition;
    lambda must be a dominant weight of length n (ValueError otherwise)."""
    lam = tuple(int(e) for e in lam)
    if len(lam) != n:
        raise ValueError("weight length must be n")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError("branching requires a dominant weight")
    m = max(0, -lam[-1])
    return tuple(e + m for e in lam), m


def _lr_contents(outer, inner, l: int, cap=math.inf) -> Counter:
    """{nu: c^outer_{inner,nu}} over nu with at most l parts, each at most
    ``cap``, counted as Littlewood-Richardson tableaux (Macdonald, I.9):
    semistandard fillings of outer/inner with content nu whose reverse
    reading word is a lattice word.  Each row takes a_l copies of l from the
    right, then a_{l-1} copies of l-1, ..., so the recursion is rows x
    (l + 1) deep."""
    out = Counter()
    if any(i > o for o, i in zip(outer, inner)):
        return out
    count = [sum(outer)] + [0] * l  # count[0] bounds every a_1

    def fill(r, e, pos, above, row):
        if pos == inner[r]:
            if r + 1 == len(outer):
                out[tuple(count[1:])] += 1
            else:
                fill(r + 1, l, outer[r + 1], row[: outer[r + 1]], [0] * outer[r + 1])
            return
        # e only below entries < e (columns strictly increase); 1s end the row
        room = min(pos - inner[r], count[e - 1] - count[e], cap - count[e])
        most = room if above[pos - 1] < e else 0
        for a in range(pos - inner[r] if e == 1 else 0, most + 1):
            row[pos - a : pos] = [e] * a
            count[e] += a
            fill(r, e - 1, pos - a, above, row)
            count[e] -= a

    fill(0, l, outer[0], [0] * outer[0], [0] * outer[0])
    return out


def branching_coeffs(lam, shape: GrassmannShape) -> dict:
    """c^lambda_{mu,nu} in s_lambda(z) = sum c^lambda_{mu,nu} s_mu(z') s_nu(z''),
    z' = (z_1..z_{n-l}), z'' = (z_{n-l+1}..z_n): the tableau counts of
    (lambda + m)/mu, mu with at most n-l parts, untwisted by m on both blocks."""
    n, l = shape.n, shape.l
    outer, m = _shift_dominant(lam, n)
    # a column of (lambda + m)/mu holds at most l cells: mu_i >= outer_{i+l}
    rows = (range(outer[i], outer[i + l] - 1, -1) for i in range(n - l))
    return {
        (tuple(e - m for e in mu), tuple(e - m for e in nu)): c
        for mu in itertools.product(*rows)
        if all(a >= b for a, b in zip(mu, mu[1:]))
        for nu, c in _lr_contents(outer, mu + (0,) * l, l).items()
    }


def spherical_multiplicity(lam, shape: GrassmannShape) -> int:
    """Multiplicity of the trivial block-subgroup type in the GL_n
    irreducible with highest weight lambda: the coefficient of
    s_{lambda + m} in s_{(m^{n-l})} s_{(m^l)}, m as in ``_shift_dominant``."""
    outer, m = _shift_dominant(lam, shape.n)
    return _trivial_multiplicity(outer, m, shape.l)


def _trivial_multiplicity(outer, m: int, l: int) -> int:
    """c^outer_{(m^{n-l}),(m^l)}, n = len(outer): 0 unless |outer| = n m (|lambda| = 0),
    as c^nu_{alpha,beta} = 0 unless |nu| = |alpha| + |beta| (Macdonald, I.9)."""
    n = len(outer)
    if sum(outer) != n * m:
        return 0
    return _lr_contents(outer, (m,) * (n - l) + (0,) * l, l, m)[(m,) * l]


def gelfand_check(shape: GrassmannShape, degree_bound: int) -> VerificationReport:
    """Trivial block-subgroup multiplicity is at most one for every dominant
    weight with entries bounded by degree_bound, and is one exactly on the
    spherical weights; it is 0, with no tableau counted, unless |lambda| = 0."""
    n, l = shape.n, shape.l
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")

    def body():
        box = range(degree_bound, -degree_bound - 1, -1)
        mus = itertools.combinations_with_replacement(box[: degree_bound + 1], l)
        spherical = {flat_map(WeightVector(mu, "BC"), shape).entries for mu in mus}
        weights = list(itertools.combinations_with_replacement(box, n))  # all dominant
        failures = []
        for lam in weights:
            m = max(0, -lam[-1])  # as in ``_shift_dominant``
            mult = _trivial_multiplicity(tuple(e + m for e in lam), m, l)
            if mult > 1 or (mult == 1) != (lam in spherical):
                failures.append({"lambda": list(lam), "multiplicity": mult})
        return not failures, None, {"checked": len(weights), "failures": failures}

    params = {"n": n, "l": l, "bound": degree_bound}
    return timed_report("gelfand-property", params, True, body)

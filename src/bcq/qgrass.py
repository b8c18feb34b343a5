"""Quantum-Grassmannian algebraic layer.

Matrix side: the standard GL_n R-matrix

    R = sum_{ij} q^{delta_ij} e_ii(x)e_jj + (q-q^{-1}) sum_{i>j} e_ij(x)e_ji,

its inverse R^- = R^{-1}, which is R at q^{-1} (R^-(q) = R(q^{-1})), the
flip conjugates R^+ = PRP = R^T and (R21)^{-1} = P R^{-1} P = (R^-)^T
(transposes in the basis e_i (x) e_j), the quantum Yang-Baxter equation,
the reflection equation R12 X1 R12^{-1} X2 = X2 R21^{-1} X1 R21 solved by
the J-matrices, and the transposed linear equation solved by the tilde
J-matrix.

Vector side: the q-exterior algebras on V = C^n and its dual, the braiding
beta: V*(x)V -> V(x)V*, the intertwiners Psi_hat_r and Theta_hat_r built
from it, principal terms (weight components on the signed-permutation orbit
of (1^r) pushed to the GL_n lattice), and the reference vectors u_r, u~_r,
w^sigma, w~^sigma, w^infty whose principal-term constants are verified
exactly.

Character side: Casimir eigenvalues, branching of GL_n Schur polynomials
into products over the block subgroup GL_{n-l} x GL_l, and the Gelfand
property (trivial block-subgroup type has multiplicity at most one, exactly
one on spherical weights).  Both multiplicities are Littlewood-Richardson
coefficients, counted as tableaux; no polynomial is multiplied or peeled.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .linalg import (
    _inv,
    _is_exact,
    flip_matrix,
    mat_identity,
    mat_inverse,
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
    is_spherical,
    weyl_orbit_tuples,
)


def _matrix_diffs(a, b):
    """Entrywise a - b of two equal-shape matrices, row by row."""
    return (x - y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- R-matrices and matrix equations --------------------------------------

def _r(n: int, d, c):
    """d on the e_i (x) e_i diagonal, 1 on the rest of the diagonal, and c at
    (e_i (x) e_j, e_j (x) e_i) for i > j; index i*n+j."""
    if n < 2:
        raise ValueError("n must be >= 2")
    out = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            out[i * n + j][i * n + j] = d if i == j else 1
    for i in range(n):
        for j in range(i):
            # (e_ij (x) e_ji)(e_j (x) e_i) = e_i (x) e_j for i > j
            out[i * n + j][j * n + i] = c
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


def _x1(x, n: int):
    return mat_kron(x, mat_identity(n))


def _x2(x, n: int):
    return mat_kron(mat_identity(n), x)


def qybe_check(n: int, q) -> VerificationReport:
    """R12 R13 R23 = R23 R13 R12 on C^n (x) C^n (x) C^n, with R12 = R (x) 1,
    R23 = 1 (x) R and R13 = P23 R12 P23."""

    def differences():
        r = r_matrix(n, q)
        r12 = _x1(r, n)
        r23 = _x2(r, n)
        p23 = _x2(flip_matrix(n), n)
        r13 = mat_mul(mat_mul(p23, r12), p23)
        lhs = mat_mul(mat_mul(r12, r13), r23)
        rhs = mat_mul(mat_mul(r23, r13), r12)
        return _matrix_diffs(lhs, rhs)

    return difference_report(
        "quantum-yang-baxter", {"n": n, "q": str(q)}, _is_exact(q), differences
    )


def j_sigma(n: int, l: int, sigma: int, q):
    """J^sigma: (1-q^{2 sigma}) on the first l diagonal entries, 1 on the
    middle block, -q^sigma on the antidiagonal pairs (k, n+1-k)."""
    GrassmannShape(n, l)
    qs = q**sigma
    out = [[0] * n for _ in range(n)]
    for k in range(1, l + 1):
        out[k - 1][k - 1] = 1 - qs * qs
    for k in range(l + 1, n - l + 1):
        out[k - 1][k - 1] = 1
    for k in range(1, l + 1):
        kp = n + 1 - k
        out[k - 1][kp - 1] = -qs
        out[kp - 1][k - 1] = -qs
    return out


def j_infty(n: int, l: int):
    """J^infty: identity on the first n-l coordinates."""
    GrassmannShape(n, l)
    out = [[0] * n for _ in range(n)]
    for k in range(n - l):
        out[k][k] = 1
    return out


def j_tilde_sigma(n: int, l: int, sigma: int, q):
    """The tilde J-matrix: diagonal 1 - q^{2(n-2l)+2 sigma} on the first l
    entries, 1 on the middle block, and antidiagonal entries
    -q^{sigma-1} q^{2(k-l)} at (k,k') and -q^{sigma-1} q^{2(k'-l)} at (k',k)."""
    GrassmannShape(n, l)
    qs1 = q ** (sigma - 1)
    out = [[0] * n for _ in range(n)]
    for k in range(1, l + 1):
        out[k - 1][k - 1] = 1 - q ** (2 * (n - 2 * l)) * q ** (2 * sigma)
    for k in range(l + 1, n - l + 1):
        out[k - 1][k - 1] = 1
    for k in range(1, l + 1):
        kp = n + 1 - k
        out[k - 1][kp - 1] = -qs1 * q ** (2 * (k - l))
        out[kp - 1][k - 1] = -qs1 * q ** (2 * (kp - l))
    return out


def reflection_check(x, n: int, q) -> VerificationReport:
    """R12 X1 R12^{-1} X2 = X2 R21^{-1} X1 R21 for an n x n matrix X."""

    def differences():
        r = r_matrix(n, q)
        rm = r_minus(n, q)
        rp = r_plus(n, q)
        r21m = r21_minus(n, q)
        x1 = _x1(x, n)
        x2 = _x2(x, n)
        lhs = mat_mul(mat_mul(mat_mul(r, x1), rm), x2)
        rhs = mat_mul(mat_mul(mat_mul(x2, r21m), x1), rp)
        return _matrix_diffs(lhs, rhs)

    exact = _is_exact(q) and all(_is_exact(v) for row in x for v in row)
    return difference_report(
        "reflection-equation", {"n": n, "q": str(q)}, exact, differences
    )


def _partial_transpose_inverse(m, n: int):
    """Inverse of an n^2 x n^2 matrix that is diagonal away from the span of
    the e_i (x) e_i basis vectors, the shape of every partial transpose of
    an R-type matrix: an n x n block inverse plus reciprocals."""
    size = n * n
    diag = [i * n + i for i in range(n)]
    dset = set(diag)
    out = [[0] * size for _ in range(size)]
    for col in range(size):
        if col not in dset:
            out[col][col] = _inv(m[col][col])
    block = [[m[r][c] for c in diag] for r in diag]
    binv = mat_inverse(block)
    for a, r in enumerate(diag):
        for b, c in enumerate(diag):
            out[r][c] = binv[a][b]
    return out


def refalt_check(jt, js, n: int, q) -> VerificationReport:
    """Js_1 (R21^-)^{t1} Jt_2 ((R21^-)^{t1})^{-1}
    = R^{t1} Jt_2 (R^{t1})^{-1} Js_1."""

    def differences():
        a = partial_transpose_first(r21_minus(n, q), n)
        b = partial_transpose_first(r_matrix(n, q), n)
        a_inv = _partial_transpose_inverse(a, n)
        b_inv = _partial_transpose_inverse(b, n)
        js1 = _x1(js, n)
        jt2 = _x2(jt, n)
        lhs = mat_mul(mat_mul(mat_mul(js1, a), jt2), a_inv)
        rhs = mat_mul(mat_mul(mat_mul(b, jt2), b_inv), js1)
        return _matrix_diffs(lhs, rhs)

    exact = _is_exact(q) and all(
        _is_exact(v) for mat in (jt, js) for row in mat for v in row
    )
    return difference_report(
        "transposed-reflection-equation", {"n": n, "q": str(q)}, exact, differences
    )


# -- q-exterior algebra ----------------------------------------------------

def qsgn(i_set, j_set, q):
    """sgn(I;J): 0 on overlap, else (-q)^{#{(i,j) in IxJ : i > j}}."""
    i_set = frozenset(i_set)
    j_set = frozenset(j_set)
    if i_set & j_set:
        return 0
    count = sum(1 for i in i_set for j in j_set if i > j)
    return (-q) ** count


def wedge(i_tuple, j_tuple, q):
    """v_I ^ v_J = sgn(I;J) v_{I u J}; returns (coefficient, sorted union)."""
    s = qsgn(i_tuple, j_tuple, q)
    if s == 0:
        return 0, None
    return s, tuple(sorted(set(i_tuple) | set(j_tuple)))


def wedge_dual(i_tuple, j_tuple, q):
    """v*_I ^ v*_J = sgn(J;I) v*_{I u J}, i.e. ``wedge(J, I)``."""
    return wedge(j_tuple, i_tuple, q)


def _project_word(word, q, product):
    """Wedge a word w_{a_1} (x) ... (x) w_{a_r} to (sign, subset), with
    ``product`` = ``wedge`` for vectors or ``wedge_dual`` for dual vectors."""
    coeff = 1
    acc = ()
    for a in word:
        coeff2, acc = product(acc, (a,), q)
        if coeff2 == 0:
            return 0, None
        coeff *= coeff2
    return coeff, acc


@dataclass
class QExtVector:
    """Vector in one of the tensor spaces used by the intertwiners.

    ``space`` tags the ambient space; ``coeffs`` maps a basis index to a
    scalar.  Indices are plain tuples for tensor-power spaces and pairs of
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

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())


def w_vectors(shape: GrassmannShape, sigma: int, q):
    """(w^sigma, w~^sigma, w^infty) in V (x) V*, coefficients read off the
    corresponding J-matrices."""
    n, l = shape.n, shape.l
    mats = (
        j_sigma(n, l, sigma, q),
        j_tilde_sigma(n, l, sigma, q),
        j_infty(n, l),
    )
    out = []
    for mat in mats:
        coeffs = {}
        for i in range(n):
            for j in range(n):
                if mat[i][j] != 0:
                    coeffs[(i + 1, j + 1)] = mat[i][j]
        out.append(QExtVector("V*V.1", coeffs))
    return tuple(out)


def tensor_power(w: QExtVector, r: int) -> QExtVector:
    """(V (x) V*)^{(x) r} element with concatenated indices."""
    coeffs = {(): 1}
    for _ in range(r):
        nxt = {}
        for key, c in coeffs.items():
            for key2, c2 in w.coeffs.items():
                nxt[key + key2] = nxt.get(key + key2, 0) + c * c2
        coeffs = nxt
    return QExtVector(f"V*V.{r}", coeffs)


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
        if set(i_set) & set(mirror):
            continue
        coeffs[(i_set, mirror)] = 1
    return QExtVector(f"Wedge.{r}", coeffs)


def u_tilde_vector(shape: GrassmannShape, r: int, q) -> QExtVector:
    """u~_r: same support as u_r with the factor q^{sum_{j in I'} 2(n-j)}."""
    n = shape.n
    base = u_vector(shape, r)
    coeffs = {}
    for (i_set, mirror), c in base.coeffs.items():
        coeffs[(i_set, mirror)] = c * q ** sum(2 * (n - j) for j in mirror)
    return QExtVector(f"Wedge.{r}", coeffs)


def beta_map(key_pair, q):
    """beta(v*_i (x) v_j) as a list of ((vector_index, dual_index), coeff)."""
    i, j = key_pair
    qi = _inv(q)
    if i != j:
        return [((j, i), 1)]
    out = [((j, i), qi)]
    for k in range(1, j):
        out.append(((k, k), qi - q))
    return out


def psi_hat_r(t: QExtVector, shape: GrassmannShape, r: int, q) -> QExtVector:
    """The composed braiding followed by the wedge projections:
    (V (x) V*)^{(x) r} -> Wedge^r(V) (x) Wedge^r(V*).

    The braidings are applied to adjacent factors of the interleaved tensor
    product, tracking the factor ordering until it reaches
    V^{(x) r} (x) (V*)^{(x) r}.
    """
    if not 1 <= r <= shape.l:
        raise ValueError("r must satisfy 1 <= r <= l")
    order = []
    for s in range(1, r + 1):
        order.append(("v", s))
        order.append(("d", s))
    coeffs = dict(t.coeffs)
    for s in range(2, r + 1):
        for i in range(s - 1, 0, -1):
            p = order.index(("d", i))
            if order[p + 1] != ("v", s):
                raise AssertionError("braiding factors are not adjacent")
            order[p], order[p + 1] = order[p + 1], order[p]
            nxt = {}
            for key, c in coeffs.items():
                for (vj, di), b in beta_map((key[p], key[p + 1]), q):
                    nk = key[:p] + (vj, di) + key[p + 2 :]
                    nxt[nk] = nxt.get(nk, 0) + c * b
            coeffs = {k: v for k, v in nxt.items() if v != 0}
    if order != [("v", s) for s in range(1, r + 1)] + [
        ("d", s) for s in range(1, r + 1)
    ]:
        raise AssertionError("braiding did not sort the tensor factors")
    out = {}
    for key, c in coeffs.items():
        sv, i_set = _project_word(key[:r], q, wedge)
        if sv == 0:
            continue
        sd, j_set = _project_word(key[r:], q, wedge_dual)
        if sd == 0:
            continue
        k2 = (i_set, j_set)
        out[k2] = out.get(k2, 0) + c * sv * sd
    return QExtVector(f"Wedge.{r}", {k: v for k, v in out.items() if v != 0})


def phi_hat_r(i_set, j: int, q):
    """The braiding Wedge^{r-1}(V*) (x) V -> V (x) Wedge^{r-1}(V*):
    list of ((vector_index, dual_subset), coeff) for input v*_I (x) v_j."""
    i_set = tuple(sorted(i_set))
    qi = _inv(q)
    if j not in i_set:
        return [((j, i_set), 1)]
    rest = tuple(x for x in i_set if x != j)
    out = [((j, i_set), qi)]
    denom = qsgn(rest, (j,), q)
    for m in range(1, j):
        num = qsgn(rest, (m,), q)
        if num == 0:
            continue
        out.append(((m, tuple(sorted(rest + (m,)))), -(q - qi) * num / denom))
    return out


def theta_hat_r(u: QExtVector, w: QExtVector, shape: GrassmannShape, q) -> QExtVector:
    """Theta_hat_r: Wedge^{r-1} (x) Wedge^{r-1} (x) V (x) V* -> Wedge^r (x)
    Wedge^r, multiplying through the braided middle factor."""
    some_key = next(iter(u.coeffs), None)
    if some_key is None:
        return QExtVector("Wedge.?", {})
    r = len(some_key[0]) + 1
    if not 2 <= r <= shape.l:
        raise ValueError("need 2 <= r <= l")
    out = {}
    for (i_set, j_set), c in u.coeffs.items():
        for (s, t), d in w.coeffs.items():
            for (m, k_set), e in phi_hat_r(j_set, s, q):
                sv, i2 = wedge(i_set, (m,), q)
                if sv == 0:
                    continue
                sd, j2 = wedge_dual(k_set, (t,), q)
                if sd == 0:
                    continue
                key = (i2, j2)
                out[key] = out.get(key, 0) + c * d * e * sv * sd
    return QExtVector(f"Wedge.{r}", {k: v for k, v in out.items() if v != 0})


def principal_term(v: QExtVector, shape: GrassmannShape, r: int) -> QExtVector:
    """Weight components of v on the GL_n weights corresponding to the
    signed-permutation orbit of (1^r); the weight of v_I (x) v*_J is the
    indicator of I minus the indicator of J."""
    n, l = shape.n, shape.l
    orbit = set()
    for nu in weyl_orbit_tuples((1,) * r + (0,) * (l - r)):
        orbit.add(flat_map(WeightVector(nu, "BC"), shape).entries)
    out = {}
    for (i_set, j_set), c in v.coeffs.items():
        weight = [0] * n
        for i in i_set:
            weight[i - 1] += 1
        for j in j_set:
            weight[j - 1] -= 1
        if tuple(weight) in orbit:
            out[(i_set, j_set)] = c
    return QExtVector(v.space, out)


def _constant_base(sigma: int, l: int, q, tilde: bool):
    """q^sigma, or q^{sigma-1} q^{2(1-l)} for the tilde vectors."""
    return q ** (sigma - 1) * q ** (2 * (1 - l)) if tilde else q**sigma


def psi_constant(r: int, sigma: int, l: int, q, tilde: bool = False):
    """The exact principal-term constants of the composed intertwiner on the
    r-th tensor power of w^sigma (or w~^sigma)."""
    prefactor = (_constant_base(sigma, l, q, tilde) / (q * q - 1)) ** r
    prod = 1
    for i in range(1, r + 1):
        prod *= 1 - (q * q) ** i
    return prefactor * prod


def theta_constant(r: int, sigma: int, l: int, q, tilde: bool = False):
    """-q^sigma (1-q^{2r})/(1-q^2), or its tilde analog."""
    base = _constant_base(sigma, l, q, tilde)
    return -base * (1 - q ** (2 * r)) / (1 - q * q)


def _u(shape: GrassmannShape, r: int, q, tilde: bool) -> QExtVector:
    """u~_r for the tilde vectors, u_r otherwise."""
    return u_tilde_vector(shape, r, q) if tilde else u_vector(shape, r)


def _principal_report(identity, shape, r, sigma, q, tilde, image, constant):
    """Principal term of ``image(w)``, for w = w^sigma (or w~^sigma), equals
    ``constant(r, sigma, l, q, tilde)`` times u_r (or u~_r)."""

    def differences():
        w = w_vectors(shape, sigma, q)[1 if tilde else 0]
        target = _u(shape, r, q, tilde).scale(constant(r, sigma, shape.l, q, tilde))
        got = principal_term(image(w), shape, r)
        return (got - target).coeffs.values()

    params = {"n": shape.n, "l": shape.l, "r": r, "sigma": sigma, "q": str(q), "tilde": tilde}
    return difference_report(identity, params, _is_exact(q), differences)


def intertwiner_check(
    shape: GrassmannShape, r: int, sigma: int, q, tilde: bool = False
) -> VerificationReport:
    """Principal term of the composed intertwiner applied to the r-th tensor
    power of the fixed vector equals the closed-form constant times u_r."""
    return _principal_report(
        "intertwiner-principal-constant", shape, r, sigma, q, tilde,
        lambda w: psi_hat_r(tensor_power(w, r), shape, r, q), psi_constant,
    )


def theta_constant_check(
    shape: GrassmannShape, r: int, sigma: int, q, tilde: bool = False
) -> VerificationReport:
    """Principal term of Theta_hat_r(u_{r-1} (x) w^sigma) equals
    -q^sigma (1-q^{2r})/(1-q^2) u_r (and the tilde analog)."""
    return _principal_report(
        "theta-principal-constant", shape, r, sigma, q, tilde,
        lambda w: theta_hat_r(_u(shape, r - 1, q, tilde), w, shape, q), theta_constant,
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


def _lr_contents(outer, inner, l: int) -> Counter:
    """{nu: c^outer_{inner,nu}} over nu with at most l parts, counted as
    Littlewood-Richardson tableaux (Macdonald, I.9): semistandard fillings of
    outer/inner with content nu whose reverse reading word is a lattice word.
    Each row takes a_l copies of l from the right, then a_{l-1} copies of
    l-1, ..., so the recursion is rows x (l + 1) deep."""
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
        room = min(pos - inner[r], count[e - 1] - count[e])
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
    n, l = shape.n, shape.l
    outer, m = _shift_dominant(lam, n)
    return _lr_contents(outer, (m,) * (n - l) + (0,) * l, l)[(m,) * l]


def gelfand_check(shape: GrassmannShape, degree_bound: int) -> VerificationReport:
    """Trivial block-subgroup multiplicity is at most one for every dominant
    weight with entries bounded by degree_bound, and is one exactly on the
    spherical weights."""
    n = shape.n
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")

    def body():
        failures = []
        checked = 0
        for lam in itertools.combinations_with_replacement(
            range(degree_bound, -degree_bound - 1, -1), n
        ):
            checked += 1
            mult = spherical_multiplicity(lam, shape)
            spherical = is_spherical(WeightVector(lam, "A"), shape)
            if mult > 1 or (mult == 1) != spherical:
                failures.append({"lambda": list(lam), "multiplicity": mult})
        return not failures, None, {"checked": checked, "failures": failures}

    params = {"n": n, "l": shape.l, "bound": degree_bound}
    return timed_report("gelfand-property", params, True, body)

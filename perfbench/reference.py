"""References computed apart from ``bcq``.

Nothing here imports the library.  Each function rebuilds a quantity that a
workload operation returns, from a formula of the literature, with the
benchmark's own q-products and its own Laurent-polynomial arithmetic
(dicts of exponent tuples).  Exact inputs give exact references.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

DIGITS_CAP = 16.0


def digits(relerr: float) -> float:
    """Correct significant digits, -log10(relative error), capped at 16."""
    if relerr <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return -math.log10(relerr)


def rel_error(got, want) -> float:
    return abs(got - want) / abs(want)


def coeff_rel_error(got: dict, want: dict) -> float:
    """max |got_e - want_e| over exponents, relative to max |want_e|."""
    scale = max(abs(v) for v in want.values())
    keys = set(got) | set(want)
    return max(abs(got.get(e, 0) - want.get(e, 0)) for e in keys) / scale


# -- q-products ------------------------------------------------------------

def qpoch(a, q, n: int):
    """(a; q)_n for a finite n; exact for rational a and q."""
    out = 1
    for j in range(n):
        out *= 1 - a * q**j
    return out


def qpoch_inf(a, q) -> float:
    """(a; q)_inf in floats, stopped once the factor is 1 to within 1e-18."""
    a = complex(a) if isinstance(a, complex) else float(a)
    q = float(q)
    out = 1.0
    while abs(a) > 1e-18:
        out *= 1 - a
        a *= q
    return out


def _prod_inf(args, q):
    out = 1.0
    for a in args:
        out *= qpoch_inf(a, q)
    return out


# -- closed-form constants and norms -----------------------------------------

def gustafson_mass(l: int, ts, q, k: int) -> float:
    """<1,1>_K by Gustafson's integral (1990):
    2^l l! prod_j (t, t^{2l-j-1} abcd; q)_inf /
    ((t^j, q; q)_inf prod_{r<s} (t_r t_s t^{j-1}; q)_inf), t = q^k."""
    ts = [float(x) for x in ts]
    q = float(q)
    t = q**k
    abcd = ts[0] * ts[1] * ts[2] * ts[3]
    out = float(2**l * math.factorial(l))
    for j in range(1, l + 1):
        pairs = [ts[r] * ts[s] * t ** (j - 1) for r, s in itertools.combinations(range(4), 2)]
        out *= _prod_inf([t, t ** (2 * l - j - 1) * abcd], q)
        out /= _prod_inf([t**j, q] + pairs, q)
    return out


def _selberg_core(a, b, q, k: int, l: int) -> float:
    """prod_i Gamma_q(alpha+1+(i-1)k) Gamma_q(beta+1+(i-1)k) Gamma_q(ik) /
    (Gamma_q(alpha+beta+2+(l+i-2)k) Gamma_q(k)) with a = q^alpha, b = q^beta,
    written through (x; q)_inf alone: Gamma_q(x) = (q;q)_inf (1-q)^{1-x} /
    (q^x;q)_inf, and the powers of (1-q) add up to (1-q)^l."""
    out = (1 - q) ** l
    for i in range(1, l + 1):
        out *= _prod_inf([q, a * b * q ** (2 + (l + i - 2) * k), q**k], q)
        out /= _prod_inf([a * q ** (1 + (i - 1) * k), b * q ** (1 + (i - 1) * k), q ** (i * k)], q)
    return out


def little_selberg_mass(a, b, q, k: int, l: int) -> float:
    """<1,1>_L, the Askey-Kadell q-Selberg integral over [0,1]^l:
    l! (aq)^{k C(l,2)} q^{2k^2 C(l,3)} * the Gamma_q product."""
    a, b, q = float(a), float(b), float(q)
    pre = (a * q) ** (k * math.comb(l, 2)) * q ** (2 * k * k * math.comb(l, 3))
    return math.factorial(l) * pre * _selberg_core(a, b, q, k, l)


def big_selberg_mass(a, b, c, d, q, k: int, l: int) -> float:
    """<1,1>_B over [-d,c]^l: l! q^{k^2 C(l,3) - C(k,2) C(l,2)} * the Gamma_q
    product * prod_i (-d/c, -c/d; q)_inf (cd)^{1+(i-1)k} /
    ((-a q^{1+(i-1)k} d/c, -b q^{1+(i-1)k} c/d; q)_inf (c+d))."""
    a, b, c, d, q = (float(v) for v in (a, b, c, d, q))
    out = math.factorial(l) * q ** (k * k * math.comb(l, 3) - math.comb(k, 2) * math.comb(l, 2))
    out *= _selberg_core(a, b, q, k, l)
    for i in range(1, l + 1):
        s = q ** (1 + (i - 1) * k)
        out *= _prod_inf([-d / c, -c / d], q) * (c * d) ** (1 + (i - 1) * k)
        out /= _prod_inf([-a * s * d / c, -b * s * c / d], q) * (c + d)
    return out


def askey_wilson_norm(n: int, ts, q) -> float:
    """<P_n,P_n>/<1,1> for the monic (in z + 1/z) Askey-Wilson polynomial:
    (q, ab, ac, ad, bc, bd, cd; q)_n / ((abcd q^{n-1}; q)_n (abcd; q)_{2n})."""
    ts = [float(x) for x in ts]
    q = float(q)
    abcd = ts[0] * ts[1] * ts[2] * ts[3]
    num = qpoch(q, q, n)
    for r, s in itertools.combinations(range(4), 2):
        num *= qpoch(ts[r] * ts[s], q, n)
    return num / (qpoch(abcd * q ** (n - 1), q, n) * qpoch(abcd, q, 2 * n))


def little_jacobi_1d(n: int, a, b, q):
    """Monic little q-Jacobi polynomial {power: coeff} from
    2phi1(q^-n, abq^{n+1}; aq; q; qx) (Koekoek-Lesky-Swarttouw 14.12.1),
    with its norm <P,P>/<1,1> (14.12.2) divided by the squared leading
    coefficient."""
    coeffs = {}
    for j in range(n + 1):
        coeffs[j] = (
            qpoch(q**-n, q, j) * qpoch(a * b * q ** (n + 1), q, j)
            / (qpoch(a * q, q, j) * qpoch(q, q, j)) * q**j
        )
    lead = coeffs[n]
    poly = {j: c / lead for j, c in coeffs.items()}
    h = (
        (1 - a * b * q) * (a * q) ** n / (1 - a * b * q ** (2 * n + 1))
        * qpoch(q, q, n) * qpoch(b * q, q, n) / (qpoch(a * q, q, n) * qpoch(a * b * q, q, n))
    )
    return poly, h / lead**2


def big_jacobi_1d(n: int, a, b, c, d, q):
    """Monic big q-Jacobi polynomial on [-d, c] and its norm.

    In the variable u = aqx/c the weight of [-d, c] is that of
    Koekoek-Lesky-Swarttouw 14.5 with parameters (a, b, g), g = -ad/c, so
    P_n = 3phi2(q^-n, abq^{n+1}, u; aq, gq; q; q) (14.5.1) and the norm is
    (14.5.2)."""
    g = -a * d / c
    s = a * q / c
    coeffs = {}
    for j in range(n + 1):
        w = qpoch(q**-n, q, j) * qpoch(a * b * q ** (n + 1), q, j) / (
            qpoch(a * q, q, j) * qpoch(g * q, q, j) * qpoch(q, q, j)
        ) * q**j
        # (u; q)_j = prod_{i<j} (1 - q^i u), expanded in powers of x
        factor = {0: 1}
        for i in range(j):
            nxt = {}
            for p, v in factor.items():
                nxt[p] = nxt.get(p, 0) + v
                nxt[p + 1] = nxt.get(p + 1, 0) - v * q**i * s
            factor = nxt
        for p, v in factor.items():
            coeffs[p] = coeffs.get(p, 0) + w * v
    lead = coeffs[n]
    poly = {p: v / lead for p, v in coeffs.items()}
    h = (
        (1 - a * b * q) / (1 - a * b * q ** (2 * n + 1))
        * qpoch(q, q, n) * qpoch(b * q, q, n) * qpoch(a * b * q / g, q, n)
        / (qpoch(a * q, q, n) * qpoch(a * b * q, q, n) * qpoch(g * q, q, n))
        * (-a * g * q * q) ** n * q ** (n * (n - 1) // 2)
    )
    return poly, h / lead**2


def selberg_integral(alpha: float, beta: float, gamma: float, l: int) -> float:
    """Selberg's integral over [0,1]^l:
    prod_j Gamma(alpha+1+(j-1)g) Gamma(beta+1+(j-1)g) Gamma(1+jg) /
    (Gamma(alpha+beta+2+(l+j-2)g) Gamma(1+g))."""
    out = 1.0
    for j in range(1, l + 1):
        out *= math.gamma(alpha + 1 + (j - 1) * gamma) * math.gamma(beta + 1 + (j - 1) * gamma)
        out *= math.gamma(1 + j * gamma)
        out /= math.gamma(alpha + beta + 2 + (l + j - 2) * gamma) * math.gamma(1 + gamma)
    return out


# -- Koornwinder: l = 1 recurrence, D_K and E_lambda -------------------------

def askey_wilson_monic(n_max: int, ts, q):
    """Monic Askey-Wilson polynomials in y = z + 1/z, as Laurent dicts in z,
    from the three-term recurrence (Koekoek-Lesky-Swarttouw 14.1.5):
    y P_n = P_{n+1} + (a + 1/a - A_n - C_n) P_n + A_{n-1} C_n P_{n-1}."""
    a, b, c, d = ts
    abcd = a * b * c * d

    def big_a(n):
        return (
            (1 - a * b * q**n) * (1 - a * c * q**n) * (1 - a * d * q**n) * (1 - abcd * q ** (n - 1))
            / (a * (1 - abcd * q ** (2 * n - 1)) * (1 - abcd * q ** (2 * n)))
        )

    def big_c(n):
        return (
            a * (1 - q**n) * (1 - b * c * q ** (n - 1)) * (1 - b * d * q ** (n - 1))
            * (1 - c * d * q ** (n - 1))
            / ((1 - abcd * q ** (2 * n - 2)) * (1 - abcd * q ** (2 * n - 1)))
        )

    prev, cur = {}, {(0,): 1}
    out = [cur]
    for n in range(n_max):
        shift = a + 1 / a - big_a(n) - (big_c(n) if n else 0)
        nxt = {}
        for (e,), v in cur.items():
            for f in (e + 1, e - 1):
                nxt[(f,)] = nxt.get((f,), 0) + v
            nxt[(e,)] = nxt.get((e,), 0) - shift * v
        if n:
            damp = big_a(n - 1) * big_c(n)
            for key, v in prev.items():
                nxt[key] = nxt.get(key, 0) - damp * v
        prev, cur = cur, {key: v for key, v in nxt.items() if v != 0}
        out.append(cur)
    return out


def koornwinder_eigenvalue(lam, ts, q, k: int):
    """E_lambda = e(lambda) - e(0), e(mu) = sum_j (q^-1 abcd t^{2l-j-1} q^{mu_j}
    + t^{j-1} q^{-mu_j}), t = q^k (Koornwinder 1992, eq. 5.8)."""
    l = len(lam)
    t = q**k
    abcd = ts[0] * ts[1] * ts[2] * ts[3]
    total = 0
    for j, mu_j in enumerate(lam, start=1):
        total += abcd / q * t ** (2 * l - j - 1) * (q**mu_j - 1)
        total += t ** (j - 1) * (q**-mu_j - 1)
    return total


def _phi(x, j: int, ts, q, t):
    """Phi_j(x) of Koornwinder's operator."""
    xj = x[j]
    out = 1
    for ta in ts:
        out *= 1 - ta * xj
    out /= (1 - xj * xj) * (1 - q * xj * xj)
    for i, xi in enumerate(x):
        if i != j:
            out *= (1 - t * xi * xj) * (1 - t * xj / xi) / ((1 - xi * xj) * (1 - xj / xi))
    return out


def dk_value(evaluate, x, ts, q, k: int):
    """(D_K P)(x) = sum_j Phi_j(x) (P(.., q x_j, ..) - P(x))
    + Phi_j(1/x) (P(.., x_j/q, ..) - P(x))."""
    t = q**k
    base = evaluate(x)
    inv = tuple(1 / v for v in x)
    total = 0
    for j in range(len(x)):
        up = x[:j] + (x[j] * q,) + x[j + 1:]
        down = x[:j] + (x[j] / q,) + x[j + 1:]
        total += _phi(x, j, ts, q, t) * (evaluate(up) - base)
        total += _phi(inv, j, ts, q, t) * (evaluate(down) - base)
    return total


def pole_free(x, q) -> bool:
    """No denominator of Phi_j(x) or Phi_j(1/x) vanishes at x."""
    for j, xj in enumerate(x):
        if xj * xj in (1, q, 1 / q):
            return False
        for xi in x[:j]:
            if xi * xj == 1 or xi == xj:
                return False
    return True


def exact_evaluator(terms: dict):
    """P(x) for a Laurent dict with rational coefficients at rational x, by
    integer arithmetic over one common denominator."""
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    items = [(e, int(c * den)) for e, c in terms.items()]
    nvars = len(next(iter(terms)))
    lo = [min(e[i] for e in terms) for i in range(nvars)]
    hi = [max(e[i] for e in terms) for i in range(nvars)]

    def evaluate(x):
        nums = [Fraction(v).numerator for v in x]
        dens = [Fraction(v).denominator for v in x]
        # x^e * prod_i num_i^{-lo_i} den_i^{hi_i} is an integer
        total = 0
        for e, c in items:
            for i, ei in enumerate(e):
                c *= nums[i] ** (ei - lo[i]) * dens[i] ** (hi[i] - ei)
            total += c
        scale = den
        for i in range(nvars):
            scale *= nums[i] ** (-lo[i]) * dens[i] ** hi[i]
        return Fraction(total, scale)

    return evaluate


def float_evaluator(terms: dict):
    def evaluate(x):
        total = 0
        for e, c in terms.items():
            v = c
            for xi, ei in zip(x, e):
                v *= xi**ei
            total += v
        return total

    return evaluate


# -- weights and groups -------------------------------------------------------

def dominant_rep(e) -> tuple:
    return tuple(sorted((abs(v) for v in e), reverse=True))


def bc_dominates(mu, lam) -> bool:
    """mu <= lam in BC dominance: every prefix sum of mu is at most lam's."""
    return all(sum(mu[:r]) <= sum(lam[:r]) for r in range(1, len(lam) + 1))


def bc_orbit_size(rep) -> int:
    """|W . rep| = 2^{#nonzero} l! / prod(multiplicities!)."""
    out = 2 ** sum(1 for v in rep if v) * math.factorial(len(rep))
    for _, grp in itertools.groupby(rep):
        out //= math.factorial(len(list(grp)))
    return out


def w_invariant(terms: dict) -> bool:
    """Coefficients are constant on each signed-permutation orbit, and each
    orbit present is present in full."""
    groups = {}
    for e, c in terms.items():
        groups.setdefault(dominant_rep(e), []).append(c)
    return all(len(cs) == bc_orbit_size(rep) and len(set(cs)) == 1 for rep, cs in groups.items())


def weyl_dimension(lam) -> int:
    """dim of the GL_n irreducible of highest weight lam (Weyl)."""
    n = len(lam)
    num = den = 1
    for i, j in itertools.combinations(range(n), 2):
        num *= lam[i] - lam[j] + j - i
        den *= j - i
    return num // den


def dominant_count(n: int, bound: int) -> int:
    """Weakly decreasing n-tuples with entries in [-bound, bound]."""
    return math.comb(2 * bound + n, n)

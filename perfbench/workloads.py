"""The four workloads: fixed operation lists, their inputs and their checks.

``WORKLOADS[name]`` holds the function that returns the operations of one
pass for a seed, and the workload's negative control.  Each operation
calls the library once (that call alone is timed) and has a check that
compares its output with ``reference`` or with a property the method must
have.  A check returns ``passed`` and, for results in the fixed
``min_digits`` set, ``digits``.  Operations marked with a fault fail
because of a known program fault; they count as failed and stay out of
``min_digits``.  Operations look the library function up when they run,
so that the traced run's wrappers see the call.

The seed draws the benchmark's own check inputs (rational and float points
for the D_K eigen-check) and, on ``exact_koornwinder`` and
``grassmann_algebra``, one member of a fixed list of equally sized program
inputs (the Grassmann quadruple, the branching weights).  The program
inputs of the two float workloads are fixed, so that the known faults and
the ``min_digits`` set do not depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Optional

import bcq
import reference as ref


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], dict]
    fault: Optional[str] = None
    info: dict = field(default_factory=dict)


def _result(passed, digits=None, residual=None, **extra):
    out = {"passed": bool(passed), "digits": digits, "residual": residual}
    out.update(extra)
    return out


def _exact_digits(equal: bool) -> float:
    return ref.DIGITS_CAP if equal else 0.0


# -- Koornwinder checks -------------------------------------------------------

def own_downset(lam) -> list:
    """Dominant BC weights mu <= lam (entries at most lam_1)."""
    out = []
    for combo in itertools.combinations_with_replacement(range(lam[0] + 1), len(lam)):
        mu = tuple(sorted(combo, reverse=True))
        if ref.bc_dominates(mu, lam):
            out.append(mu)
    return out


def _rational_points(rng, l: int, count: int, q):
    """Pole-free rational points whose reduced denominators are primes >= 23;
    the library draws its own collocation points with denominators <= 19."""
    pts = []
    while len(pts) < count:
        x = tuple(F(rng.randrange(1, 200), rng.choice((23, 29, 31, 37, 41, 43))) for _ in range(l))
        if all(v.denominator > 19 for v in x) and ref.pole_free(x, q):
            pts.append(x)
    return pts


def _float_points(rng, l: int, count: int, q: float):
    pts = []
    while len(pts) < count:
        x = tuple(1.1 + 2.3 * rng.random() for _ in range(l))
        sep = [abs(a - b) for a, b in itertools.combinations(x, 2)]
        if min(sep, default=1.0) > 0.05 and all(abs(v * v - 1 / q) > 0.05 for v in x):
            pts.append(x)
    return pts


def check_koornwinder(poly, lam, ts, q, k, rng) -> dict:
    """P_lambda is pinned by: monic at lambda, W-invariant, supported on the
    downset of lambda, and (D_K - E_lambda) P = 0.  At l = 1 the last two
    are replaced by the Askey-Wilson recurrence; at l >= 2 the eigen-identity
    is checked at |downset| + 1 seeded points, which fixes a W-invariant
    polynomial supported on the downset."""
    lam = tuple(lam)
    terms = poly.terms
    exact = all(isinstance(v, (int, F)) for v in (*ts, q))
    if exact and not all(isinstance(c, (int, F)) for c in terms.values()):
        return _result(False, reason="inexact coefficient")
    if terms.get(lam) != 1 and not (not exact and abs(terms.get(lam, 0) - 1) < 1e-12):
        return _result(False, reason="not monic")
    if not ref.w_invariant(terms):
        return _result(False, reason="not W-invariant")
    if not all(ref.bc_dominates(ref.dominant_rep(e), lam) for e in terms):
        return _result(False, reason="support outside the downset")
    if len(lam) == 1:
        want = ref.askey_wilson_monic(lam[0], [F(t) for t in ts], F(q))[lam[0]]
        if exact:
            same = terms == want
            return _result(same, digits=_exact_digits(same))
        err = ref.coeff_rel_error(terms, {e: float(v) for e, v in want.items()})
        return _result(err < 1e-8, digits=ref.digits(err), residual=err)
    e_lam = ref.koornwinder_eigenvalue(lam, ts, q, k)
    n_pts = len(own_downset(lam)) + 1
    if exact:
        evaluate = ref.exact_evaluator(terms)
        for x in _rational_points(rng, len(lam), n_pts, q):
            if ref.dk_value(evaluate, x, ts, q, k) != e_lam * evaluate(x):
                return _result(False, digits=0.0, reason=f"eigen-identity fails at {x}")
        return _result(True, digits=ref.DIGITS_CAP)
    evaluate = ref.float_evaluator(terms)
    worst = 0.0
    for x in _float_points(rng, len(lam), n_pts, q):
        rhs = e_lam * evaluate(x)
        worst = max(worst, abs(ref.dk_value(evaluate, x, ts, q, k) - rhs) / max(abs(rhs), 1e-300))
    return _result(worst < 1e-8, residual=worst)


def check_eigen_image(image, poly, lam, ts, q, k) -> dict:
    """dk_apply(P) equals E_lambda P coefficientwise, E from the benchmark."""
    e_lam = ref.koornwinder_eigenvalue(lam, ts, q, k)
    want = {e: e_lam * c for e, c in poly.terms.items()}
    same = image.terms == want
    return _result(same, digits=_exact_digits(same))


def check_report(report) -> dict:
    """An exact identity report of the library must pass, exactly."""
    ok = report.passed and report.exact
    return _result(ok, digits=_exact_digits(ok))


# -- float checks -------------------------------------------------------------

def check_value(got, want, tol) -> dict:
    err = ref.rel_error(got, want)
    return _result(err < tol, digits=ref.digits(err), residual=err)


def check_sweep(errors, final_tol) -> dict:
    """Errors strictly decreasing along the sweep, the last within tolerance."""
    finite = [e for e in errors if not math.isnan(e)]
    decreasing = len(finite) == len(errors) and all(a > b for a, b in zip(finite, finite[1:]))
    ok = decreasing and finite[-1] <= final_tol
    return _result(ok, residual=finite[-1] if finite else None, errors=list(errors))


def orthogonality_ratio(gram) -> float:
    """Largest off-diagonal Gram entry relative to the geometric mean of
    its two norms."""
    worst = 0.0
    n = len(gram)
    for i in range(n):
        for j in range(i + 1, n):
            ratio = abs(gram[i][j]) / math.sqrt(abs(gram[i][i]) * abs(gram[j][j]))
            worst = max(worst, ratio)
    return worst


# -- exact_koornwinder ----------------------------------------------------------

GENERIC_T = (F(1, 5), F(-1, 7), F(1, 3), F(-2, 7))
GENERIC_Q = F(1, 4)
EXACT_LAMBDAS = [
    (1,), (2,), (3,), (4,),
    (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (4, 2),
    (1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (3, 2, 1),
    (1, 1, 1, 0), (2, 1, 1, 0),
]
GRASSMANN_CHOICES = [(n, s, t) for n in (4, 5, 6, 7, 8) for s in (-1, 0, 1) for t in (-1, 0, 1)]
GRASSMANN_LAMBDAS = [(1, 0), (1, 1), (2, 0), (2, 1)]
EIGEN_LAMBDAS = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
SYMMETRY_LAMBDAS = [(1, 0), (1, 1)]


def grassmann_quadruple(n: int, l: int, sigma: int, tau: int, q):
    """The paper's quadruple in base q^2 (t = q^2), computed here."""
    return (
        -(q ** (sigma + tau + 1)),
        -(q ** (-sigma - tau + 1)),
        q ** (sigma - tau + 1),
        q ** (-sigma + tau + 2 * (n - 2 * l) + 1),
    ), q * q


def exact_koornwinder(seed: int) -> list:
    rng = random.Random(f"exact_koornwinder:{seed}")
    params = bcq.KoornwinderParams(*GENERIC_T, GENERIC_Q, 1)
    ops = []
    for lam in EXACT_LAMBDAS:
        ops.append(Op(
            f"koornwinder_poly{lam}",
            lambda r, lam=lam: bcq.koornwinder_poly(lam, params),
            lambda p, r, lam=lam: check_koornwinder(p, lam, GENERIC_T, GENERIC_Q, 1, rng),
        ))
    n, sigma, tau = rng.choice(GRASSMANN_CHOICES)
    half = F(1, 2)
    gparams = bcq.grassmann_koornwinder_params(bcq.GrassmannShape(n, 2), sigma, tau, half)
    gts, gq = grassmann_quadruple(n, 2, sigma, tau, half)
    for lam in GRASSMANN_LAMBDAS:
        ops.append(Op(
            f"koornwinder_poly{lam}@grassmann",
            lambda r, lam=lam: bcq.koornwinder_poly(lam, gparams),
            lambda p, r, lam=lam: check_koornwinder(p, lam, gts, gq, 1, rng),
            info={"n": n, "sigma": sigma, "tau": tau},
        ))
    for lam in EIGEN_LAMBDAS:
        ops.append(Op(
            f"dk_apply{lam}",
            lambda r, lam=lam: bcq.dk_apply(r[f"koornwinder_poly{lam}"], params),
            lambda img, r, lam=lam: check_eigen_image(
                img, r[f"koornwinder_poly{lam}"], lam, GENERIC_T, GENERIC_Q, 1),
        ))
    for lam in SYMMETRY_LAMBDAS:
        ops.append(Op(
            f"check_symmetries{lam}",
            lambda r, lam=lam: bcq.check_symmetries(lam, params),
            lambda rep, r: check_report(rep),
        ))
    return ops


def control_exact(ops, results) -> dict:
    """A perturbed P_(2,1) must fail: once with a whole lower orbit shifted
    (still monic, W-invariant, in the downset), once with one term."""
    rng = random.Random(0)
    poly = results["koornwinder_poly(2, 1)"]
    shifted = dict(poly.terms)
    for e in shifted:
        if ref.dominant_rep(e) == (1, 0):
            shifted[e] += F(1, 10**6)
    single = dict(poly.terms)
    single[(0, 1)] = single.get((0, 1), 0) + 1
    out = {}
    for label, terms in (("orbit_shift", shifted), ("single_term", single)):
        fake = bcq.LaurentPoly(2, terms)
        out[label] = check_koornwinder(fake, (2, 1), GENERIC_T, GENERIC_Q, 1, rng)["passed"]
    return out


# -- measure_quadrature ---------------------------------------------------------

FLOAT_T = (0.3, -0.2, 0.15, -0.4)
OUTSIDE_T = (1.7, -0.2, 0.15, -0.4)
FLOAT_Q = 0.4
LITTLE_F = (0.5, 1 / 3, 0.25)
BIG_F = (0.05, 0.04, 1.0, 4.0, 0.25)
LITTLE_EXACT = (F(1, 2), F(1, 3), F(1, 4))
BIG_EXACT = (F(1, 20), F(1, 25), F(1), F(4), F(1, 4))
NORMALIZATION_CASES = [  # (t, l, k, tag); l = 3 once, it costs a 64^3 grid
    (FLOAT_T, 1, 1, ""), (FLOAT_T, 1, 2, ""), (FLOAT_T, 2, 1, ""), (FLOAT_T, 2, 2, ""),
    (FLOAT_T, 3, 1, ""), (OUTSIDE_T, 1, 1, " |t0|>1"), (OUTSIDE_T, 2, 1, " |t0|>1"),
]
GRAM_LAMBDAS = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
SELBERG_TOL = 1e-10
MEASURE_TOL = 1e-8
ORTHO_TOL = 1e-8


def _jacobi_checks(poly, lam, family) -> dict:
    """l = 1: the closed-form polynomial.  l >= 2: monic, symmetric, in the
    downset, and orthogonal under the library's Jackson sum to every lower
    monomial symmetric function."""
    terms = poly.terms
    if len(lam) == 1:
        if family == "little":
            want, _ = ref.little_jacobi_1d(lam[0], *map(F, LITTLE_F))
        else:
            want, _ = ref.big_jacobi_1d(lam[0], *map(F, BIG_F))
        err = ref.coeff_rel_error({e[0]: c for e, c in terms.items()},
                                  {p: float(v) for p, v in want.items()})
        return _result(err < 1e-8, digits=ref.digits(err), residual=err)
    if terms.get(lam) != 1:
        return _result(False, reason="not monic")
    if any(terms.get(p) != c for e, c in terms.items() for p in itertools.permutations(e)):
        return _result(False, reason="not symmetric")
    lower = [mu for mu in own_downset(lam) if mu != lam]
    if any(not ref.bc_dominates(tuple(sorted(e, reverse=True)), lam) for e in terms):
        return _result(False, reason="support outside the downset")
    if family == "little":
        params = bcq.LittleJacobiParams(*LITTLE_F, 1)
        inner = bcq.little_inner
    else:
        params = bcq.BigJacobiParams(*BIG_F, 1)
        inner = bcq.big_inner
    l = len(lam)
    norm = inner(poly, poly, params)
    worst = 0.0
    for mu in lower:
        m = bcq.monomial_symmetric(mu, l)
        worst = max(worst, abs(inner(poly, m, params)) / math.sqrt(norm * inner(m, m, params)))
    return _result(worst < 1e-9, residual=worst)


def measure_quadrature(seed: int) -> list:
    rng = random.Random(f"measure_quadrature:{seed}")
    ops = []
    for ts, l, k, tag in NORMALIZATION_CASES:
        p = bcq.KoornwinderParams(*ts, FLOAT_Q, k)
        want = ref.gustafson_mass(l, ts, FLOAT_Q, k)
        ops.append(Op(
            f"aw_normalization l={l} k={k}{tag}",
            lambda r, l=l, p=p: bcq.awmeasure.normalization_check(l, p),
            lambda rep, r, want=want: check_value(rep.detail["measured"], want, MEASURE_TOL),
        ))
    fparams = bcq.KoornwinderParams(*FLOAT_T, FLOAT_Q, 1)
    for lam in [(1,), (2,), (3,)] + GRAM_LAMBDAS:
        ops.append(Op(
            f"koornwinder_poly{lam}@float",
            lambda r, lam=lam: bcq.koornwinder_poly(lam, fparams),
            lambda p, r, lam=lam: check_koornwinder(p, lam, FLOAT_T, FLOAT_Q, 1, rng),
        ))

    def gram(r):
        polys = [r[f"koornwinder_poly{lam}@float"] for lam in GRAM_LAMBDAS]
        return [[bcq.full_inner(a, b, fparams) for b in polys] for a in polys]

    ops.append(Op(
        "koornwinder_gram l=2",
        gram,
        lambda g, r: (lambda w: _result(w < ORTHO_TOL, residual=w))(orthogonality_ratio(g)),
    ))
    little = bcq.LittleJacobiParams(*LITTLE_F, 1)
    big = bcq.BigJacobiParams(*BIG_F, 1)
    for l in (1, 2, 3):
        for family, params, want in (
            ("little", little, ref.little_selberg_mass(*LITTLE_F, 1, l)),
            ("big", big, ref.big_selberg_mass(*BIG_F, 1, l)),
        ):
            ops.append(Op(
                f"jacobi_normalization {family} l={l}",
                lambda r, params=params, l=l: bcq.qjacobi.normalization_check(params, l),
                lambda rep, r, want=want: check_value(rep.detail["measured"], want, SELBERG_TOL),
            ))
    f1 = bcq.LittleJacobiParams(3.5, 0.5, 0.25, 1)
    f1_want = ref.little_selberg_mass(3.5, 0.5, 0.25, 1, 1)
    ops.append(Op(
        "jacobi_normalization little l=1 a=3.5 b=0.5",
        lambda r: bcq.qjacobi.normalization_check(f1, 1),
        lambda rep, r: check_value(rep.detail["measured"], f1_want, SELBERG_TOL),
        fault="F1",
    ))
    for family, params, lams in (
        ("little", little, [(3,), (2, 1), (1, 1, 0)]),
        # at l = 3 the big product grid has 50^3 nodes; its Gram-Schmidt
        # check alone would double the pass
        ("big", big, [(3,), (2, 1)]),
    ):
        for lam in lams:
            ops.append(Op(
                f"{family}_jacobi_poly{lam}",
                lambda r, fn=f"{family}_jacobi_poly", lam=lam, params=params: getattr(bcq, fn)(lam, params),
                lambda p, r, lam=lam, family=family: _jacobi_checks(p, lam, family),
            ))
    _, n_little = ref.little_jacobi_1d(2, *map(F, LITTLE_F))
    _, n_big = ref.big_jacobi_1d(2, *map(F, BIG_F))
    ops.append(Op("norm_little(2,)", lambda r: bcq.norm_little((2,), little),
                  lambda v, r: check_value(v, float(n_little), 1e-9)))
    ops.append(Op("norm_big(2,)", lambda r: bcq.norm_big((2,), big),
                  lambda v, r: check_value(v, float(n_big), 1e-9)))
    return ops


def control_measure(ops, results) -> dict:
    """A closed-form constant off by one part in 10^6 must fail."""
    rep = results["aw_normalization l=2 k=1"]
    wrong = ref.gustafson_mass(2, FLOAT_T, FLOAT_Q, 1) * (1 + 1e-6)
    return {"wrong_constant": check_value(rep.detail["measured"], wrong, MEASURE_TOL)["passed"]}


# -- limit_sweeps -------------------------------------------------------------------

LIMIT_LAMBDAS = [(1,), (2,), (1, 0), (1, 1), (2, 0), (2, 1)]
LIMIT_TOL = 1e-3
NORM_LIMIT_TOL = 1e-2


def _sqrt(x):
    """Exact square root of a rational square, else a float."""
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return F(num, den)
    return math.sqrt(x)


def _norm_limit_op(name, lam, family, abq, fault=None) -> Op:
    """norm_limit_check along the default sweep.  At l = 1 the target is
    checked against the closed-form norm, and the error of N_K at each eps
    against the Askey-Wilson norm is recorded (not gated)."""
    if family == "little":
        a, b, q = abq
        params = bcq.LittleJacobiParams(a, b, q, 1)
        r = _sqrt(q)

        def quad(eps):
            return (r / eps, -a * r, eps * b * r, -r), float(eps) ** 2 / float(q)
    else:
        a, b, c, d, q = abq
        params = bcq.BigJacobiParams(a, b, c, d, q, 1)
        r1, r2 = _sqrt(q * c / d), _sqrt(q * d / c)

        def quad(eps):
            ts = (r1 / eps, -r2 / eps, eps * a * r2, -eps * b * r1)
            return ts, float(eps) ** 2 * float(c * d) / float(q)

    def check(rep, results):
        out = check_sweep(rep.detail["errors"], NORM_LIMIT_TOL)
        if len(lam) == 1:
            one_d = ref.little_jacobi_1d if family == "little" else ref.big_jacobi_1d
            _, target = one_d(lam[0], *abq)
            target_check = check_value(rep.detail["target"], float(target), 1e-9)
            out["passed"] = out["passed"] and target_check["passed"]
            out["digits"] = target_check["digits"]
            aw = []
            for eps, value in zip(rep.detail["epsilon"], rep.detail["values"]):
                ts, scale = quad(F(eps).limit_denominator(10**6))
                aw.append(ref.rel_error(value, scale ** sum(lam) * ref.askey_wilson_norm(lam[0], ts, q)))
            out["aw_norm_errors"] = aw
        return out

    return Op(name, lambda r: bcq.norm_limit_check(lam, params), check, fault=fault)


def limit_sweeps(seed: int) -> list:
    little = bcq.LittleJacobiParams(*LITTLE_EXACT, 1)
    big = bcq.BigJacobiParams(*BIG_EXACT, 1)
    ops = []
    for lam in LIMIT_LAMBDAS:
        for family, params in (("little", little), ("big", big)):
            ops.append(Op(
                f"limit_check_{family}{lam}",
                lambda r, fn=f"limit_check_{family}", lam=lam, params=params: getattr(bcq, fn)(lam, params),
                lambda rep, r: check_sweep(rep.detail["errors"], LIMIT_TOL),
            ))
    ops.append(_norm_limit_op("norm_limit little(1,) a=1 b=-4", (1,), "little", (F(1), F(-4), F(1, 2))))
    ops.append(_norm_limit_op("norm_limit little(2,) a=4/3 b=-13/2", (2,), "little",
                              (F(4, 3), F(-13, 2), F(1, 2)), fault="F2"))
    ops.append(_norm_limit_op("norm_limit big(1,)", (1,), "big", BIG_EXACT, fault="F3"))
    ops.append(_norm_limit_op("norm_limit big(2,)", (2,), "big", BIG_EXACT))
    ops.append(_norm_limit_op("norm_limit little(2, 0) a=1 b=-4", (2, 0), "little", (F(1), F(-4), F(1, 2))))
    for alpha in (0, 1):
        ops.append(Op(
            f"q_to_1_check alpha={alpha}",
            lambda r, alpha=alpha: bcq.q_to_1_check(alpha, 0, 1, 2),
            lambda rep, r: (lambda e: _result(
                rep.passed and all(a >= b for a, b in zip(e, e[1:])) and e[-1] < NORM_LIMIT_TOL,
                residual=e[-1]))(rep.detail["errors"]),
        ))
        ops.append(Op(
            f"selberg_classical alpha={alpha}",
            lambda r, alpha=alpha: bcq.selberg_classical(alpha, 0, 1.0, 2),
            lambda v, r, alpha=alpha: check_value(v, ref.selberg_integral(alpha, 0, 1.0, 2), 1e-12),
        ))
    return ops


def control_limit(ops, results) -> dict:
    """A sweep whose errors stop decreasing must fail."""
    errors = list(results["limit_check_big(2, 1)"].detail["errors"])
    errors[3], errors[4] = errors[4], errors[3]
    return {"non_monotone": check_sweep(errors, LIMIT_TOL)["passed"]}


# -- grassmann_algebra -----------------------------------------------------------------

def check_branching(coeffs, lam) -> dict:
    """sum c^lambda_{mu,nu} dim(mu) dim(nu) = dim(lambda), all c positive."""
    total = sum(c * ref.weyl_dimension(mu) * ref.weyl_dimension(nu) for (mu, nu), c in coeffs.items())
    ok = total == ref.weyl_dimension(lam) and all(isinstance(c, int) and c > 0 for c in coeffs.values())
    return _result(ok, digits=_exact_digits(ok))


def _branching_weights(rng, n: int, count: int):
    out = []
    while len(out) < count:
        lam = tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))
        if lam[-1] < 0 and lam not in out:
            out.append(lam)
    return out


def grassmann_algebra(seed: int) -> list:
    rng = random.Random(f"grassmann_algebra:{seed}")
    q = F(1, 2)
    ops = []
    for n in (2, 3, 4, 5):
        ops.append(Op(f"qybe_check n={n}", lambda r, n=n: bcq.qybe_check(n, q),
                      lambda rep, r: check_report(rep)))
    for n in range(2, 7):
        for l in range(1, n // 2 + 1):
            for sigma in (0, 1):
                ops.append(Op(
                    f"reflection_check n={n} l={l} sigma={sigma}",
                    lambda r, n=n, l=l, s=sigma: bcq.reflection_check(bcq.j_sigma(n, l, s, q), n, q),
                    lambda rep, r: check_report(rep),
                ))
                ops.append(Op(
                    f"refalt_check n={n} l={l} sigma={sigma}",
                    lambda r, n=n, l=l, s=sigma: bcq.refalt_check(
                        bcq.j_tilde_sigma(n, l, s, q), bcq.j_sigma(n, l, s, q), n, q),
                    lambda rep, r: check_report(rep),
                ))
    shape = bcq.GrassmannShape(6, 3)
    for r_ in (1, 2, 3):
        for sigma in (0, 1):
            for tilde in (False, True):
                ops.append(Op(
                    f"intertwiner_check r={r_} sigma={sigma} tilde={tilde}",
                    lambda r, r_=r_, s=sigma, t=tilde: bcq.intertwiner_check(shape, r_, s, q, tilde=t),
                    lambda rep, r: check_report(rep),
                ))
                if r_ >= 2:
                    ops.append(Op(
                        f"theta_constant_check r={r_} sigma={sigma} tilde={tilde}",
                        lambda r, r_=r_, s=sigma, t=tilde: bcq.theta_constant_check(
                            shape, r_, s, q, tilde=t),
                        lambda rep, r: check_report(rep),
                    ))
    for n in range(2, 8):
        for l in range(1, n // 2 + 1):
            ops.append(Op(
                f"gelfand_check n={n} l={l}",
                lambda r, n=n, l=l: bcq.gelfand_check(bcq.GrassmannShape(n, l), 2),
                lambda rep, r, n=n: (lambda ok: _result(ok, digits=_exact_digits(ok)))(
                    rep.passed and rep.exact and rep.detail["checked"] == ref.dominant_count(n, 2)),
            ))
    for n, l in ((5, 2), (6, 3)):
        for lam in _branching_weights(rng, n, 2):
            ops.append(Op(
                f"branching_coeffs{lam} n={n} l={l}",
                lambda r, lam=lam, n=n, l=l: bcq.branching_coeffs(lam, bcq.GrassmannShape(n, l)),
                lambda c, r, lam=lam: check_branching(c, lam),
                info={"lambda": list(lam)},
            ))
    return ops


def control_grassmann(ops, results) -> dict:
    """A branching table with one multiplicity raised must fail."""
    op = next(op for op in ops if op.name.startswith("branching_coeffs"))
    coeffs = dict(results[op.name])
    coeffs[next(iter(coeffs))] += 1
    return {"wrong_multiplicity": check_branching(coeffs, tuple(op.info["lambda"]))["passed"]}


WORKLOADS = {
    "exact_koornwinder": (exact_koornwinder, control_exact),
    "measure_quadrature": (measure_quadrature, control_measure),
    "limit_sweeps": (limit_sweeps, control_limit),
    "grassmann_algebra": (grassmann_algebra, control_grassmann),
}

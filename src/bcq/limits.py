"""Limit transitions Koornwinder -> big/little q-Jacobi and classical checks.

The polynomial limits are verified in generator coordinates: write P^ for
the polynomial expressing a symmetric polynomial through the orbit-sum
generators y_r.  Substituting y_i -> s_eps^i y_i and scaling by
s_eps^{-|lambda|} in the Koornwinder P^ must converge coefficientwise to
the big/little q-Jacobi P^ along the epsilon sweep, where

    t_B(eps) = (eps^-1 (qc/d)^1/2, -eps^-1 (qd/c)^1/2,
                eps a (qd/c)^1/2,  -eps b (qc/d)^1/2),  s_eps = q^1/2/eps(cd)^1/2
    t_L(eps) = (eps^-1 q^1/2, -a q^1/2, eps b q^1/2, -q^1/2), s_eps = q^1/2/eps.

Norm limits rescale N_K by (eps (cd/q)^1/2)^{2|lambda|} (big) or
(eps q^-1/2)^{2|lambda|} (little).  The quantum-Grassmannian parameter maps
and the classical (q up to 1) Selberg comparisons also live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .awmeasure import norm_K
from .koornwinder import KoornwinderParams, koornwinder_poly
from .linalg import _is_exact
from .polyring import LaurentPoly, to_generator_coords
from .qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    big_jacobi_poly,
    closed_form_little_constant,
    jacobi_params_doc,
    little_jacobi_poly,
    norm_big,
    norm_little,
)
from .qseries import EXACT_BITS, NonConvergenceError, qgamma
from .report import VerificationReport, timed_report
from .weights import GrassmannShape


@dataclass(frozen=True)
class EpsilonSweep:
    """Strictly decreasing positive epsilon values."""

    values: tuple = tuple(map(Fraction, (
        "1/10", "3/100", "1/100", "3/1000", "1/1000", "3/10000", "1/10000")))

    def __post_init__(self) -> None:
        vals = self.values
        if not vals or any(v <= 0 for v in vals):
            raise ValueError("epsilon values must be positive, and at least one")
        if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("epsilon values must be strictly decreasing")


DEFAULT_SWEEP = EpsilonSweep()


def _sqrt_scalar(x):
    """Exact square root of a rational square, else a float."""
    if _is_exact(x):
        f = Fraction(x)
        num, den = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if num * num == f.numerator and den * den == f.denominator:
            return Fraction(num, den)
    return math.sqrt(float(x))


def t_B(eps, big: BigJacobiParams) -> KoornwinderParams:
    """The Koornwinder quadruple degenerating to big q-Jacobi."""
    q, a, b, c, d = big.q, big.a, big.b, big.c, big.d
    r1, r2 = _sqrt_scalar(q * c / d), _sqrt_scalar(q * d / c)
    return KoornwinderParams(r1 / eps, -r2 / eps, eps * a * r2, -eps * b * r1, q, big.k)


def t_L(eps, little: LittleJacobiParams) -> KoornwinderParams:
    """The Koornwinder quadruple degenerating to little q-Jacobi."""
    q, a, b = little.q, little.a, little.b
    r = _sqrt_scalar(q)
    return KoornwinderParams(r / eps, -a * r, eps * b * r, -r, q, little.k)


def s_eps_big(eps, big: BigJacobiParams):
    return _sqrt_scalar(big.q) / (eps * _sqrt_scalar(big.c * big.d))


def s_eps_little(eps, little: LittleJacobiParams):
    return _sqrt_scalar(little.q) / eps


def rescaled_generator_coeffs(lam, params: KoornwinderParams, s_eps) -> LaurentPoly:
    """s_eps^{-|lambda|} P^K_lambda-hat with y_i -> s_eps^i y_i applied."""
    lam = tuple(lam)
    l = len(lam)
    poly = koornwinder_poly(lam, params)
    phat = to_generator_coords(poly, "W")
    factors = [s_eps**i for i in range(1, l + 1)]
    scaled = phat.substitute_scaling(factors)
    return scaled.scale((1 / s_eps) ** sum(lam))


def _coeff_error(left: LaurentPoly, right: LaurentPoly) -> float:
    pairs = [(complex(left.terms.get(e, 0)), complex(right.terms.get(e, 0)))
             for e in left.terms | right.terms]
    return max([0.0, *(abs(a - b) / max(1.0, abs(b)) for a, b in pairs)])


def _sweep_report(identity, params_doc, lam, sweep, measure, tol, target=None):
    """Run ``measure(eps) -> (value, error)`` along the sweep.  A point whose
    construction raises ``ArithmeticError`` records NaN and counts as not
    constructed.  The check passes when every point was constructed, the
    errors strictly decrease (vacuous at lambda = 0) and the last error, the
    residual (None without one), is at most ``tol``.  A norm target adds the
    values and the target to the detail."""

    def body():
        errors, values, constructed = [], [], []
        for eps in sweep.values:
            try:
                value, error = measure(eps)
                constructed.append(True)
            except ArithmeticError:
                value = error = float("nan")
                constructed.append(False)
            values.append(value)
            errors.append(error)
        finite = [e for e in errors if not math.isnan(e)]
        decreasing = all(a > b for a, b in zip(finite, finite[1:])) or sum(lam) == 0
        final_err = finite[-1] if finite else None
        detail = {
            "epsilon": [float(e) for e in sweep.values],
            "values": values,
            "errors": errors,
            "target": target,
            "constructed": constructed,
        }
        if target is None:
            del detail["values"], detail["target"]
        passed = all(constructed) and decreasing and final_err is not None and final_err <= tol
        return passed, final_err, detail

    return timed_report(identity, params_doc, False, body)


def _family(params):
    """(name, t(eps), s_eps, c d) of the q-Jacobi family of ``params``; the
    norm rescaling is (eps^2 c d / q)^{|lambda|}, with c d = 1 for little."""
    if isinstance(params, BigJacobiParams):
        return "big", t_B, s_eps_big, float(params.c * params.d)
    return "little", t_L, s_eps_little, 1


def _limit_check(lam, params, target_poly, sweep) -> VerificationReport:
    lam = tuple(lam)
    name, t_map, s_map, _ = _family(params)
    target = to_generator_coords(target_poly, "S")

    def measure(eps):
        approx = rescaled_generator_coeffs(lam, t_map(eps, params), s_map(eps, params))
        return None, _coeff_error(approx, target)

    identity = f"limit-koornwinder-to-{name}"
    params_doc = {"lambda": list(lam), **jacobi_params_doc(params)}
    return _sweep_report(identity, params_doc, lam, sweep, measure, 1e-3)


def limit_check_big(
    lam, big: BigJacobiParams, sweep: EpsilonSweep = DEFAULT_SWEEP
) -> VerificationReport:
    """Coefficient convergence of rescaled Koornwinder to big q-Jacobi."""
    return _limit_check(lam, big, big_jacobi_poly(lam, big, len(lam)), sweep)


def limit_check_little(
    lam, little: LittleJacobiParams, sweep: EpsilonSweep = DEFAULT_SWEEP
) -> VerificationReport:
    """Coefficient convergence of rescaled Koornwinder to little q-Jacobi."""
    return _limit_check(lam, little, little_jacobi_poly(lam, little, len(lam)), sweep)


def norm_limit_check(lam, params, sweep: EpsilonSweep = DEFAULT_SWEEP) -> VerificationReport:
    """Rescaled N_K along t_B(eps) or t_L(eps) against N_B or N_L; the last
    relative error must be at most 1e-2."""
    lam = tuple(lam)
    name, t_map, _, cd = _family(params)
    target = (norm_big if name == "big" else norm_little)(lam, params)

    def measure(eps):
        value = (float(eps) ** 2 * cd / float(params.q)) ** sum(lam)
        value *= norm_K(lam, t_map(eps, params))
        return value, abs(value - target) / abs(target)

    identity = f"norm-limit-koornwinder-to-{name}"
    params_doc = {"lambda": list(lam), "q": str(params.q), "k": params.k}
    return _sweep_report(identity, params_doc, lam, sweep, measure, 1e-2, target)


def sweep_csv(report: VerificationReport) -> str:
    """CSV rendering of a sweep report: eps, max_coeff_err, norm_err,
    constructed_ok."""
    lines = ["epsilon,max_coeff_err,norm_err,constructed_ok"]
    detail = report.detail
    errors, blank = detail["errors"], [""] * len(detail["epsilon"])
    coeff, norm = (blank, errors) if "values" in detail else (errors, blank)
    for row in zip(detail["epsilon"], coeff, norm, detail["constructed"]):
        lines.append("{!r},{},{},{}".format(*row))
    return "\n".join(lines) + "\n"


# -- quantum-Grassmannian parameter maps ----------------------------------

def grassmann_koornwinder_params(
    shape: GrassmannShape, sigma, tau, q
) -> KoornwinderParams:
    """Koornwinder data in base q^2 with t = q^2 and quadruple
    (-q^{sigma+tau+1}, -q^{-sigma-tau+1}, q^{sigma-tau+1},
    q^{-sigma+tau+2(n-2l)+1})."""
    n, l = shape.n, shape.l
    t0 = -(q ** (sigma + tau + 1))
    t1 = -(q ** (-sigma - tau + 1))
    t2 = q ** (sigma - tau + 1)
    t3 = q ** (-sigma + tau + 2 * (n - 2 * l) + 1)
    return KoornwinderParams(t0, t1, t2, t3, q * q, 1)


def grassmann_big_params(shape: GrassmannShape, tau, q) -> BigJacobiParams:
    """(a,b,c,d) = (1, q^{2(n-2l)}, 1, q^{2 tau + 2(n-2l)}), base q^2, k=1."""
    n, l = shape.n, shape.l
    return BigJacobiParams(
        1, q ** (2 * (n - 2 * l)), 1, q ** (2 * tau + 2 * (n - 2 * l)), q * q, 1
    )


def grassmann_little_params(shape: GrassmannShape, q) -> LittleJacobiParams:
    """(a,b) = (q^{2(n-2l)}, 1), base q^2, k=1.

    At n = 2l the pair sits on the boundary a = 1 of V_L closure; the
    constructor accepts it since a = 1 < 1/q^2.
    """
    n, l = shape.n, shape.l
    return LittleJacobiParams(q ** (2 * (n - 2 * l)), 1, q * q, 1)


# -- classical Selberg comparisons ----------------------------------------

def selberg_classical(alpha: float, beta: float, tau: float, l: int) -> float:
    """Selberg's integral: prod_j Gamma(alpha+1+(j-1)tau) Gamma(beta+1+(j-1)tau)
    Gamma(1+j tau) / (Gamma(alpha+beta+2+(l+j-2)tau) Gamma(1+tau))."""
    if alpha <= -1 or beta <= -1 or tau <= 0:
        raise ValueError("need alpha, beta > -1 and tau > 0")
    if l < 1:
        raise ValueError("l must be >= 1")
    total = 0.0
    for j in range(1, l + 1):
        total += math.lgamma(alpha + 1 + (j - 1) * tau)
        total += math.lgamma(beta + 1 + (j - 1) * tau)
        total += math.lgamma(1 + j * tau)
        total -= math.lgamma(alpha + beta + 2 + (l + j - 2) * tau)
        total -= math.lgamma(1 + tau)
    return math.exp(total)


def q_to_1_check(alpha: float, beta: float, k: int, l: int) -> VerificationReport:
    """The little q-Jacobi mass at a = q^alpha, b = q^beta tends to Selberg's
    Gamma product as q -> 1, and Gamma_q(a) to Gamma(a), along q = 9/10,
    99/100, 999/1000.  Each q is exact (and so is the mass at integer alpha
    and beta) while q^(|alpha| + |beta| + 2kl) has at most EXACT_BITS bits."""
    target = selberg_classical(alpha, beta, float(k), l)
    if target == 0.0:
        raise ValueError(f"Selberg's integral underflows doubles at k = {k}, l = {l}")
    size = abs(alpha) + abs(beta) + 2 * k * l
    q_list = [q if size * (q.numerator.bit_length() + q.denominator.bit_length()) <= EXACT_BITS
              else float(q) for q in (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000))]

    def body():
        errors = []
        for q in q_list:
            a, b = q ** Fraction(alpha), q ** Fraction(beta)
            if 0 in (a, b):
                raise NonConvergenceError(f"q^alpha or q^beta underflows doubles at q = {q}")
            params = LittleJacobiParams(a, b, q, k)
            errors.append(abs(closed_form_little_constant(params, l) - target) / abs(target))
        gamma_runs = [[abs(qgamma(a, float(q)) - math.gamma(a)) / math.gamma(a) for q in q_list]
                      for a in (1.5, 2.5)]
        runs = (errors, *gamma_runs)
        final = max(run[-1] for run in runs)
        passed = final < 0.01 and all(a >= b for r in runs for a, b in zip(r, r[1:]))
        detail = {"q": list(map(float, q_list)), "errors": errors,
                  "gamma_errors": sum(gamma_runs, [])}
        return passed, final, detail

    params = {"alpha": alpha, "beta": beta, "k": k, "l": l}
    return timed_report("classical-selberg-limit", params, False, body)

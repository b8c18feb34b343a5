"""Acceptance suite.

Twelve criteria, one test each, each ending in a single printed
``CRITERION k ...: PASS`` line (a failed assertion marks the criterion
failed).  Exact criteria run in rational arithmetic; numeric criteria pin
their tolerances as constants here.
"""

import random
import time
from fractions import Fraction as F

from bcq.awmeasure import full_inner, gustafson_constant
from bcq.awmeasure import normalization_check as measure_normalization_check
from bcq.koornwinder import (
    KoornwinderParams,
    check_symmetries,
    dk_apply,
    eigenvalue,
    koornwinder_poly,
)
from bcq.limits import (
    EpsilonSweep,
    grassmann_koornwinder_params,
    limit_check_big,
    limit_check_little,
    norm_limit_check,
    q_to_1_check,
)
from bcq.polyring import LaurentPoly
from bcq.qgrass import (
    gelfand_check,
    intertwiner_check,
    j_sigma,
    j_tilde_sigma,
    qybe_check,
    refalt_check,
    reflection_check,
    theta_constant_check,
)
from bcq.qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    big_inner,
    big_jacobi_poly,
    little_inner,
    little_jacobi_poly,
)
from bcq.qjacobi import normalization_check as jacobi_normalization_check
from bcq.weights import GrassmannShape

MEASURE_TOL = 1e-8  # criterion 6
SELBERG_TOL = 1e-10  # criterion 7 constants
JACOBI_ORTHO_TOL = 1e-9  # criterion 7 orthogonality
LIMIT_TOL = 1e-3  # criterion 8, at epsilon = 1e-4
NORM_LIMIT_TOL = 1e-2  # criterion 9, at epsilon = 1e-2
CLASSICAL_TOL = 1e-2  # criterion 11, at q = 0.999

# rational parameter plan shared by the exact criteria: q = 1/4 has the
# exact square root 1/2, so every Koornwinder parameter stays rational
RATIONAL_KOORNWINDER = (F(1, 5), F(-1, 7), F(1, 3), F(-2, 7))
LITTLE = LittleJacobiParams(F(1, 2), F(1, 3), F(1, 4), 1)
BIG = BigJacobiParams(F(1, 20), F(1, 25), F(1, 1), F(4, 1), F(1, 4), 1)
FLOAT_KOORNWINDER = (0.3, -0.2, 0.15, -0.4)

NORM_SWEEP = EpsilonSweep((F(1, 10), F(3, 100), F(1, 100)))


def partitions_up_to(l, total):
    out = []

    def rec(prefix, remaining, cap):
        if len(prefix) == l:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), -1, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], total, total)
    return sorted(set(out), key=lambda p: (sum(p), p))


def test_criterion_01_reflection_equation():
    for q in (F(1, 2), F(2, 3)):
        for n in (2, 3, 4, 5):
            for l in range(1, n // 2 + 1):
                for sigma in (-1, 0, 1, 2):
                    start = time.perf_counter()
                    report = reflection_check(j_sigma(n, l, sigma, q), n, q)
                    elapsed = time.perf_counter() - start
                    assert report.passed and report.exact, (n, l, sigma, q)
                    assert elapsed < 1.0, (n, l, sigma, q, elapsed)
    rng = random.Random(11)
    x = [[F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
    x = [{j: v for j, v in enumerate(row) if v != 0} for row in x]  # the sparse form
    assert not reflection_check(x, 4, F(1, 2)).passed
    print("CRITERION 01 (reflection equation, exact): PASS")


def test_criterion_02_qybe_and_alternate_reflection():
    start = time.perf_counter()
    for n in (2, 3, 4):
        report = qybe_check(n, F(1, 2))
        assert report.passed and report.exact, n
    for n in (2, 3, 4, 5):
        for l in range(1, n // 2 + 1):
            for sigma in (0, 1):
                report = refalt_check(
                    j_tilde_sigma(n, l, sigma, F(1, 2)),
                    j_sigma(n, l, sigma, F(1, 2)),
                    n,
                    F(1, 2),
                )
                assert report.passed and report.exact, (n, l, sigma)
    assert time.perf_counter() - start < 5.0
    print("CRITERION 02 (quantum Yang-Baxter + alternate reflection, exact): PASS")


def test_criterion_03_intertwiner_principal_terms():
    q = F(1, 2)
    for n in range(2, 7):
        for l in range(1, min(3, n // 2) + 1):
            shape = GrassmannShape(n, l)
            for r in range(1, min(3, l) + 1):
                for sigma in (0, 1):
                    for tilde in (False, True):
                        start = time.perf_counter()
                        report = intertwiner_check(shape, r, sigma, q, tilde=tilde)
                        elapsed = time.perf_counter() - start
                        assert report.passed and report.exact, (n, l, r, sigma, tilde)
                        assert elapsed < 60.0
    print("CRITERION 03 (wedge intertwiner principal terms, exact): PASS")


def test_criterion_04_theta_constants():
    shape = GrassmannShape(6, 3)
    for r in (2, 3):
        for sigma in (0, 1):
            for tilde in (False, True):
                report = theta_constant_check(shape, r, sigma, F(1, 2), tilde=tilde)
                assert report.passed and report.exact, (r, sigma, tilde)
    print("CRITERION 04 (theta constants, exact): PASS")


def test_criterion_05_eigen_identity():
    t0, t1, t2, t3 = RATIONAL_KOORNWINDER
    assert 0 < t0 * t1 * t2 * t3 < 1
    for l in (1, 2):
        params = KoornwinderParams(t0, t1, t2, t3, F(1, 4), 1)
        for lam in partitions_up_to(l, 3):
            poly = koornwinder_poly(lam, params)
            assert dk_apply(poly, params) == poly.scale(eigenvalue(lam, params)), lam
            sym = check_symmetries(lam, params)
            assert sym.passed and sym.exact, lam
    print("CRITERION 05 (eigen-identity + parameter symmetries, exact): PASS")


def test_criterion_06_measure_agreement():
    t0, t1, t2, t3 = FLOAT_KOORNWINDER
    for l in (1, 2):
        for k in (1, 2):
            params = KoornwinderParams(t0, t1, t2, t3, 0.4, k)
            report = measure_normalization_check(l, params)
            assert report.passed and report.residual < MEASURE_TOL, (l, k)
    # pairwise orthogonality of the constructed family
    for l in (1, 2):
        params = KoornwinderParams(t0, t1, t2, t3, 0.4, 1)
        lams = partitions_up_to(l, 3)
        polys = {lam: koornwinder_poly(lam, params) for lam in lams}
        norms = {
            lam: full_inner(p, p, params).real for lam, p in polys.items()
        }
        for i, lam in enumerate(lams):
            for mu in lams[i + 1 :]:
                ip = full_inner(polys[lam], polys[mu], params)
                ratio = abs(ip) / (norms[lam] * norms[mu]) ** 0.5
                assert ratio < MEASURE_TOL, (l, lam, mu, ratio)
    print("CRITERION 06 (measure total mass + orthogonality): PASS")


def test_criterion_07_selberg_constants_and_jacobi_orthogonality():
    for l in (1, 2):
        for k in (1, 2):
            rl = jacobi_normalization_check(
                LittleJacobiParams(0.5, 1 / 3, 0.25, k), l
            )
            rb = jacobi_normalization_check(
                BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25, k), l
            )
            assert rl.passed and rl.residual < SELBERG_TOL, (l, k, "little")
            assert rb.passed and rb.residual < SELBERG_TOL, (l, k, "big")
    little = LittleJacobiParams(0.5, 1 / 3, 0.25, 1)
    big = BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25, 1)
    lams = partitions_up_to(2, 2)
    for inner, make, params in (
        (little_inner, lambda lam: little_jacobi_poly(lam, little, 2), little),
        (big_inner, lambda lam: big_jacobi_poly(lam, big, 2), big),
    ):
        polys = {lam: make(lam) for lam in lams}
        norms = {lam: inner(p, p, params) for lam, p in polys.items()}
        for i, lam in enumerate(lams):
            for mu in lams[i + 1 :]:
                ratio = abs(inner(polys[lam], polys[mu], params)) / (
                    norms[lam] * norms[mu]
                ) ** 0.5
                assert ratio < JACOBI_ORTHO_TOL, (lam, mu, ratio)
    print("CRITERION 07 (closed-form constants + Jacobi orthogonality): PASS")


def test_criterion_08_limit_transitions():
    for lam in ((1,), (2,), (1, 0), (1, 1), (2, 0)):
        for check, params in (
            (limit_check_little, LITTLE),
            (limit_check_big, BIG),
        ):
            report = check(lam, params)
            assert report.passed, (lam, report.identity, report.detail["errors"])
            errs = report.detail["errors"]
            assert all(a > b for a, b in zip(errs, errs[1:])), (lam, errs)
            assert report.residual <= LIMIT_TOL, (lam, report.residual)
    print("CRITERION 08 (polynomial limit transitions): PASS")


def test_criterion_09_norm_limits():
    cases = (
        ((1,), LittleJacobiParams(F(1, 1), F(-4, 1), F(1, 2), 1)),
        ((2,), LittleJacobiParams(F(4, 3), F(-13, 2), F(1, 2), 1)),
        ((1,), BIG),
        ((2,), BIG),
    )
    for lam, params in cases:
        report = norm_limit_check(lam, params, NORM_SWEEP)
        errs = report.detail["errors"]
        assert report.passed, (lam, report.identity, errs)
        assert all(a > b for a, b in zip(errs, errs[1:])), (lam, errs)
        assert report.residual <= NORM_LIMIT_TOL, (lam, report.residual)
    print("CRITERION 09 (quadratic norm limits): PASS")


def test_criterion_10_gelfand_property():
    for n in range(2, 7):
        for l in range(1, min(3, n // 2) + 1):
            report = gelfand_check(GrassmannShape(n, l), 2)
            assert report.passed and report.exact, (n, l)
            assert report.detail["failures"] == [], (n, l)
    print("CRITERION 10 (multiplicity-free branching / Gelfand property): PASS")


def test_criterion_11_classical_limit():
    for alpha in (0, 1):
        report = q_to_1_check(alpha, 0, 1, 2)
        assert report.passed, (alpha, report.detail)
        assert report.detail["errors"][-1] < CLASSICAL_TOL, report.detail
        assert report.detail["gamma_errors"][-1] < CLASSICAL_TOL, report.detail
    print("CRITERION 11 (classical Selberg limit): PASS")


def test_criterion_12_parameter_invariant():
    for q in (F(1, 2), F(1, 3)):
        for n in range(2, 9):
            for l in range(1, n // 2 + 1):
                for sigma in range(-2, 3):
                    for tau in range(-2, 3):
                        p = grassmann_koornwinder_params(
                            GrassmannShape(n, l), sigma, tau, q
                        )
                        prod = p.t0 * p.t1 * p.t2 * p.t3
                        assert prod == q ** (4 + 2 * (n - 2 * l))
                        assert 0 < prod < 1, (n, l, sigma, tau, q)
    print("CRITERION 12 (parameter-product invariant): PASS")

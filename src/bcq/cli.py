"""Command-line front end.

Three commands:

* ``poly``      — construct a polynomial (Koornwinder, big or little
                  q-Jacobi) and emit it as JSON.
* ``verify``    — run a named verification suite and emit one report per
                  case; exit code reflects the overall verdict.
* ``grassmann`` — print the parameter dictionary attached to a
                  Grassmannian shape (n, l): Koornwinder quadruple, big and
                  little parameters, fundamental spherical weights, Casimir
                  eigenvalues.

Rational inputs are given as "p/q" strings, floats as decimals; any float
input switches the computation to float mode.  Exit codes: 0 pass, 1
verification failure, 2 invalid input, 3 numerical non-convergence.  The
environment variable BCQ_PRECISION in {double, extended} selects the
quadrature/truncation tightness.  Output is byte-deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .awmeasure import QuadratureGrid
from .awmeasure import normalization_check as koornwinder_normalization_check
from .koornwinder import (
    EigenvalueCollisionError,
    KoornwinderParams,
    check_symmetries,
    koornwinder_poly,
)
from .limits import (
    grassmann_big_params,
    grassmann_koornwinder_params,
    grassmann_little_params,
    limit_check_big,
    limit_check_little,
    norm_limit_check,
    q_to_1_check,
    sweep_csv,
)
from .qgrass import (
    casimir_eigenvalue,
    gelfand_check,
    intertwiner_check,
    j_sigma,
    qybe_check,
    reflection_check,
    theta_constant_check,
)
from .qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    SumTruncation,
    big_jacobi_poly,
    jacobi_params_doc,
    little_jacobi_poly,
)
from .qjacobi import normalization_check as jacobi_normalization_check
from .weights import GrassmannShape, fundamental_spherical

# each poly family with the options it cannot run without
FAMILIES = {"koornwinder": ("t",), "big": ("a", "b", "c", "d"), "little": ("a", "b")}


def parse_scalar(text: str):
    """"p/q" or integer -> Fraction (exact mode); decimal -> float."""
    text = text.strip()
    try:
        if "." in text or "e" in text.lower():
            return float(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse scalar {text!r}") from exc


def parse_weight(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}") from exc


def _require(args, command: str, names) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{command} needs {' '.join(missing)}")


def _attach_negative_values(argv) -> list:
    """--b -13/2 -> --b=-13/2: argparse reads a token with a leading '-' as
    an option unless it is a plain number such as -13 or -0.5."""
    out = []
    for token in argv:
        if re.match(r"-\.?\d", token) and out and re.fullmatch(r"--\w+", out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _precision():
    mode = os.environ.get("BCQ_PRECISION", "double")
    if mode not in ("double", "extended"):
        raise ValueError("BCQ_PRECISION must be 'double' or 'extended'")
    if mode == "extended":
        return QuadratureGrid(rel_tol=1e-12), SumTruncation(n_max=400, tail_tol=1e-16)
    return QuadratureGrid(), SumTruncation()


def _koornwinder_params(args) -> KoornwinderParams:
    ts = [parse_scalar(part) for part in args.t.split(",")]
    if len(ts) != 4:
        raise ValueError("--t needs four comma-separated values")
    return KoornwinderParams(ts[0], ts[1], ts[2], ts[3], parse_scalar(args.q), args.k)


def _jacobi_params(args, family: str):
    """Big (--a --b --c --d) or little (--a --b) q-Jacobi parameters."""
    cls = BigJacobiParams if family == "big" else LittleJacobiParams
    values = [parse_scalar(getattr(args, name)) for name in FAMILIES[family]]
    return cls(*values, parse_scalar(args.q), args.k)


def cmd_poly(args) -> int:
    _require(args, f"poly --family {args.family}", FAMILIES[args.family])
    lam = parse_weight(getattr(args, "lam"))
    l = len(lam)
    _grid, trunc = _precision()
    if args.family == "koornwinder":
        params = _koornwinder_params(args)
        try:
            poly = koornwinder_poly(lam, params)
        except EigenvalueCollisionError:
            poly = koornwinder_poly(lam, params, mode="gram")
        basis = "signed-orbit-sums"
        params_doc = {"t": [str(t) for t in params.tuple4], "q": str(params.q), "k": params.k}
    else:
        params = _jacobi_params(args, args.family)
        jacobi_poly = big_jacobi_poly if args.family == "big" else little_jacobi_poly
        poly = jacobi_poly(lam, params, l, trunc)
        basis = "monomial-symmetric"
        params_doc = jacobi_params_doc(params)
    doc = {"family": args.family, "lambda": list(lam), "basis": basis,
           "params": params_doc, "polynomial": poly.to_json_dict()}
    print(json.dumps(doc, sort_keys=True))
    return 0


def _grassmann_q(args):
    """--q of the Grassmann suites and table, where R^-, beta and the
    Koornwinder quadruple need q^{-1}."""
    q = parse_scalar(args.q)
    if q == 0:
        raise ValueError("the Grassmann suites need a nonzero --q")
    return q


def _reflection_reports(args, _grid, _trunc) -> list:
    q = _grassmann_q(args)
    return [reflection_check(j_sigma(args.n, args.l, args.sigma, q), args.n, q)]


def _intertwiner_reports(args, _grid, _trunc) -> list:
    """Both intertwiner constants, and both Theta constants from r = 2 on,
    each plain and tilde."""
    q = _grassmann_q(args)
    shape = GrassmannShape(args.n, args.l)
    checks = [intertwiner_check] + [theta_constant_check] * (args.r >= 2)
    return [check(shape, args.r, args.sigma, q, tilde)
            for check in checks for tilde in (False, True)]


def _classical_reports(args, _grid, _trunc) -> list:
    alpha = float(parse_scalar(args.a)) if args.a is not None else 0.0
    beta = float(parse_scalar(args.b)) if args.b is not None else 0.0
    return [q_to_1_check(alpha, beta, args.k, 2 if args.l is None else args.l)]


# each suite: the options it cannot run without (--family big adds --c and
# --d to selberg-constants and norm-limit) and its reports, built from the
# arguments and the BCQ_PRECISION quadrature grid and Jackson truncation
SUITES = {
    "orthogonality": (("l", "t"), lambda a, grid, trunc: [
        koornwinder_normalization_check(a.l, _koornwinder_params(a), grid)]),
    "selberg-constants": (("l", "a", "b"), lambda a, grid, trunc: [
        jacobi_normalization_check(_jacobi_params(a, a.family), a.l, trunc)]),
    "reflection": (("n", "l"), _reflection_reports),
    "intertwiner": (("n", "l"), _intertwiner_reports),
    "branching": (("n", "l"), lambda a, grid, trunc: [
        gelfand_check(GrassmannShape(a.n, a.l), a.bound)]),
    "limit-big": (("a", "b", "c", "d"), lambda a, grid, trunc: [
        limit_check_big(parse_weight(a.lam), _jacobi_params(a, "big"))]),
    "limit-little": (("a", "b"), lambda a, grid, trunc: [
        limit_check_little(parse_weight(a.lam), _jacobi_params(a, "little"))]),
    "norm-limit": (("a", "b"), lambda a, grid, trunc: [
        norm_limit_check(parse_weight(a.lam), _jacobi_params(a, a.family))]),
    "symmetry": (("t",), lambda a, grid, trunc: [
        check_symmetries(parse_weight(a.lam), _koornwinder_params(a))]),
    "qybe": (("n",), lambda a, grid, trunc: [qybe_check(a.n, _grassmann_q(a))]),
    "classical": ((), _classical_reports),
}


def _verify_reports(args) -> list:
    required, build = SUITES[args.suite]
    if args.family == "big" and args.suite in ("selberg-constants", "norm-limit"):
        required += ("c", "d")
    _require(args, f"verify {args.suite}", required)
    grid, trunc = _precision()
    return build(args, grid, trunc)


def cmd_verify(args) -> int:
    reports = _verify_reports(args)
    for report in reports:
        if args.format == "csv" and "epsilon" in report.detail:
            sys.stdout.write(sweep_csv(report))
        else:
            print(report.to_json())
    return 0 if all(r.passed for r in reports) else 1


def _base_doc(params) -> dict:
    """jacobi_params_doc with q reported as "base"."""
    doc = jacobi_params_doc(params)
    doc["base"] = doc.pop("q")
    return doc


def cmd_grassmann(args) -> int:
    shape = GrassmannShape(args.n, args.l)
    q = _grassmann_q(args)
    doc = {"n": shape.n, "l": shape.l, "q": str(q)}
    if args.sigma != "inf" and args.tau != "inf":
        kp = grassmann_koornwinder_params(shape, int(args.sigma), int(args.tau), q)
        doc["koornwinder"] = {"t": [str(t) for t in kp.tuple4], "base": str(kp.q), "k": kp.k}
    if args.tau != "inf":
        doc["big"] = _base_doc(grassmann_big_params(shape, int(args.tau), q))
    doc["little"] = _base_doc(grassmann_little_params(shape, q))
    if shape.n == 2 * shape.l:
        doc["warning"] = "a = 1 sits on the boundary of the little parameter domain"
    doc["fundamental_spherical"] = [
        list(fundamental_spherical(r, shape).entries) for r in range(1, shape.l + 1)
    ]
    if getattr(args, "lam", None):
        lam = parse_weight(args.lam)
        doc["casimir"] = {
            ",".join(map(str, lam)): str(casimir_eigenvalue(lam, shape.n, q))
        }
    print(json.dumps(doc, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcq",
        description="BC-type multivariable q-orthogonal polynomials "
        "and quantum-Grassmannian identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no option abbreviations: "--l" must not be read as "--lambda"
    p_poly = sub.add_parser("poly", help="construct a polynomial", allow_abbrev=False)
    p_poly.add_argument(
        "--family", required=True, choices=("koornwinder", "big", "little")
    )
    p_poly.add_argument("--lambda", dest="lam", required=True, help="e.g. 2,1")
    p_poly.add_argument("--q", required=True)
    p_poly.add_argument("--k", type=int, default=1)
    p_poly.add_argument("--t", help="t0,t1,t2,t3 (koornwinder)")
    for name in "abcd":
        p_poly.add_argument(f"--{name}")
    p_poly.set_defaults(func=cmd_poly)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--l", type=int)
    p_verify.add_argument("--r", type=int, default=1)
    p_verify.add_argument("--sigma", type=int, default=0)
    p_verify.add_argument("--bound", type=int, default=1)
    p_verify.add_argument("--q", default="1/2")
    p_verify.add_argument("--k", type=int, default=1)
    for name in "tabcd":
        p_verify.add_argument(f"--{name}")
    p_verify.add_argument("--family", choices=("big", "little"), default="little")
    p_verify.add_argument("--lambda", dest="lam", default="1")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_grass = sub.add_parser("grassmann", help="parameter table for a shape")
    p_grass.add_argument("--n", type=int, required=True)
    p_grass.add_argument("--l", type=int, required=True)
    p_grass.add_argument("--sigma", default="0")
    p_grass.add_argument("--tau", default="0")
    p_grass.add_argument("--q", default="1/2")
    p_grass.add_argument("--lambda", dest="lam", default=None)
    p_grass.set_defaults(func=cmd_grassmann)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = parser.parse_args(_attach_negative_values(argv))
        return args.func(args)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NonConvergenceError among them
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

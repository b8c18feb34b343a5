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

Rational inputs are given as "p/q" strings, floats as decimals; the
Grassmann suites check a float exactly at its binary value (``exact:
false``).  Exit codes: 0 pass, 1 verification failure, 2 invalid input, 3
numerical non-convergence.  The environment variable BCQ_PRECISION in
{double, extended} selects the quadrature/truncation tightness.  Output is
byte-deterministic for a fixed configuration.
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
from .koornwinder import KoornwinderParams, check_symmetries, koornwinder_poly_or_gram
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

# each family: its parameter class, and the options it cannot run without,
# which give its parameters before q and k (--t gives the four t_i)
FAMILIES = {
    "koornwinder": (KoornwinderParams, ("t",)),
    "big": (BigJacobiParams, ("a", "b", "c", "d")),
    "little": (LittleJacobiParams, ("a", "b")),
}


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


def _require(args, command: str, names, optional=()) -> None:
    """Every option of names given, and no --t/--a/--b/--c/--d it ignores."""
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{command} needs {' '.join(missing)}")
    read = names + optional
    unread = [f"--{n}" for n in "tabcd" if n not in read and getattr(args, n) is not None]
    if unread:
        raise ValueError(f"{command} does not read {' '.join(unread)}")


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
        return QuadratureGrid(rel_tol=1e-12), SumTruncation(n_max=10_000)
    return QuadratureGrid(), SumTruncation()


def _params(args, family: str):
    """The parameters of a FAMILIES family from its options, --q and --k."""
    cls, names = FAMILIES[family]
    koornwinder = family == "koornwinder"
    texts = args.t.split(",") if koornwinder else [getattr(args, name) for name in names]
    values = [parse_scalar(text) for text in texts]
    if koornwinder and len(values) != 4:
        raise ValueError("--t needs four comma-separated values")
    return cls(*values, parse_scalar(args.q), args.k)


def _params_doc(params, q_key: str) -> dict:
    """jacobi_params_doc, with the Koornwinder t_i as one list "t" and q
    reported as q_key."""
    doc = jacobi_params_doc(params)
    if isinstance(params, KoornwinderParams):
        doc["t"] = [doc.pop(f"t{i}") for i in range(4)]
    doc[q_key] = doc.pop("q")
    return doc


def cmd_poly(args) -> int:
    _require(args, f"poly --family {args.family}", FAMILIES[args.family][1])
    lam = parse_weight(args.lam)
    params = _params(args, args.family)
    if args.family == "koornwinder":
        poly, basis = koornwinder_poly_or_gram(lam, params), "signed-orbit-sums"
    else:
        jacobi_poly = big_jacobi_poly if args.family == "big" else little_jacobi_poly
        poly, basis = jacobi_poly(lam, params, len(lam)), "monomial-symmetric"
    doc = {"family": args.family, "lambda": list(lam), "basis": basis,
           "params": _params_doc(params, "q"), "polynomial": poly.to_json_dict()}
    print(json.dumps(doc, sort_keys=True))
    return 0


def _grassmann_q(args):
    """--q of the Grassmann suites and table, where R^-, beta and the
    Koornwinder quadruple need q^{-1}."""
    q = parse_scalar(args.q)
    if q == 0 or abs(q) == float("inf"):  # a Fraction is never inf, however large
        raise ValueError("the Grassmann suites need a finite, nonzero --q")
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
# --d to selberg-constants and norm-limit), its reports, built from the
# arguments and the BCQ_PRECISION quadrature grid and Jackson truncation,
# and the options it reads when given
SUITES = {
    "orthogonality": (("l", "t"), lambda a, grid, trunc: [
        koornwinder_normalization_check(a.l, _params(a, "koornwinder"), grid)]),
    "selberg-constants": (("l", "a", "b"), lambda a, grid, trunc: [
        jacobi_normalization_check(_params(a, a.family), a.l, trunc)]),
    "reflection": (("n", "l"), _reflection_reports),
    "intertwiner": (("n", "l"), _intertwiner_reports),
    "branching": (("n", "l"), lambda a, grid, trunc: [
        gelfand_check(GrassmannShape(a.n, a.l), a.bound)]),
    "limit-big": (("a", "b", "c", "d"), lambda a, grid, trunc: [
        limit_check_big(parse_weight(a.lam), _params(a, "big"))]),
    "limit-little": (("a", "b"), lambda a, grid, trunc: [
        limit_check_little(parse_weight(a.lam), _params(a, "little"))]),
    "norm-limit": (("a", "b"), lambda a, grid, trunc: [
        norm_limit_check(parse_weight(a.lam), _params(a, a.family))]),
    "symmetry": (("t",), lambda a, grid, trunc: [
        check_symmetries(parse_weight(a.lam), _params(a, "koornwinder"))]),
    "qybe": (("n",), lambda a, grid, trunc: [qybe_check(a.n, _grassmann_q(a))]),
    "classical": ((), _classical_reports, ("a", "b")),
}


def _verify_reports(args) -> list:
    required, build, *optional = SUITES[args.suite]
    if args.family == "big" and args.suite in ("selberg-constants", "norm-limit"):
        required += ("c", "d")
    _require(args, f"verify {args.suite}", required, *optional)
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


def cmd_grassmann(args) -> int:
    shape = GrassmannShape(args.n, args.l)
    q = _grassmann_q(args)
    doc = {"n": shape.n, "l": shape.l, "q": str(q)}
    if args.sigma != "inf" and args.tau != "inf":
        kp = grassmann_koornwinder_params(shape, int(args.sigma), int(args.tau), q)
        doc["koornwinder"] = _params_doc(kp, "base")
    if args.tau != "inf":
        doc["big"] = _params_doc(grassmann_big_params(shape, int(args.tau), q), "base")
    doc["little"] = _params_doc(grassmann_little_params(shape, q), "base")
    if shape.n == 2 * shape.l:
        doc["warning"] = "a = 1 sits on the boundary of the little parameter domain"
    spherical = (fundamental_spherical(r, shape) for r in range(1, shape.l + 1))
    doc["fundamental_spherical"] = [list(w.entries) for w in spherical]
    if getattr(args, "lam", None):
        lam = parse_weight(args.lam)
        doc["casimir"] = {",".join(map(str, lam)): str(casimir_eigenvalue(lam, shape.n, q))}
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
    p_poly.add_argument("--family", required=True, choices=FAMILIES)
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

"""Tests for the bcq command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bcq
from bcq.cli import main, parse_scalar, parse_weight

from fractions import Fraction as F


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar():
    assert parse_scalar("1/3") == F(1, 3)
    assert parse_scalar("-2/7") == F(-2, 7)
    assert parse_scalar("4") == F(4)
    assert isinstance(parse_scalar("0.25"), float)
    assert isinstance(parse_scalar("1e-3"), float)
    with pytest.raises(ValueError):
        parse_scalar("abc")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_parse_weight():
    assert parse_weight("2,1") == (2, 1)
    assert parse_weight("1") == (1,)
    with pytest.raises(ValueError):
        parse_weight("1,x")


def test_poly_koornwinder_json(capsys):
    code, out, _ = run(
        capsys,
        "poly",
        "--family",
        "koornwinder",
        "--lambda",
        "1,0",
        "--t",
        "1/5,-1/7,1/3,-2/7",
        "--q",
        "1/4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "koornwinder"
    assert data["lambda"] == [1, 0]
    terms = {tuple(t["exp"]): t["coef"] for t in data["polynomial"]["terms"]}
    assert terms[(1, 0)] == "1"
    assert terms[(0, 0)] == "-1565/11758"


def test_poly_koornwinder_eigenvalue_collision(capsys):
    # E_(2,0) = E_(1,1) here, so the polynomial comes from the Gram route
    code, out, _ = run(
        capsys,
        "poly",
        "--family",
        "koornwinder",
        "--lambda",
        "2,0",
        "--t=-48,1/3,1/2,1/2",
        "--q",
        "1/2",
    )
    assert code == 0
    assert json.loads(out)["polynomial"]["domain"] == "complex"


def test_poly_little(capsys):
    code, out, _ = run(
        capsys,
        "poly",
        "--family",
        "little",
        "--lambda",
        "1",
        "--a",
        "0.5",
        "--b",
        "0.3",
        "--q",
        "0.25",
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "little"


def test_verify_qybe_pass(capsys):
    code, out, _ = run(capsys, "verify", "qybe", "--n", "3", "--q", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["identity"] == "quantum-yang-baxter"
    assert report["exact"] is True


def test_verify_reflection_pass(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "reflection",
        "--n",
        "4",
        "--l",
        "2",
        "--sigma",
        "1",
        "--q",
        "1/2",
    )
    assert code == 0


def test_verify_limit_csv(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "limit-little",
        "--lambda",
        "1",
        "--a",
        "1/2",
        "--b",
        "1/3",
        "--q",
        "1/4",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,max_coeff_err,norm_err,constructed_ok"
    assert len(lines) == 8  # header + default sweep


def test_verify_classical(capsys):
    code, out, _ = run(capsys, "verify", "classical", "--l", "2", "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report["identity"] == "classical-selberg-limit"


def test_verify_classical_l_default_only_when_absent(capsys):
    # the default l = 2 applies only without --l; l = 0 is invalid input
    code, out, err = run(capsys, "verify", "classical", "--l", "0")
    assert code == 2
    assert out == ""
    assert "l must be >= 1" in err
    code, out, _ = run(capsys, "verify", "classical")
    assert code == 0
    assert json.loads(out)["params"]["l"] == 2


def test_grassmann_output(capsys):
    code, out, _ = run(
        capsys,
        "grassmann",
        "--n",
        "4",
        "--l",
        "1",
        "--sigma",
        "0",
        "--tau",
        "1",
        "--q",
        "1/2",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) >= {"koornwinder", "big", "little", "fundamental_spherical"}
    assert data["koornwinder"]["base"] == "1/4"


def test_invalid_input_exit_code(capsys):
    code, _, err = run(
        capsys,
        "poly",
        "--family",
        "koornwinder",
        "--lambda",
        "1,0",
        "--t",
        "1/5,-1/7,1/3",  # only three entries
        "--q",
        "1/4",
    )
    assert code == 2
    assert err


def test_bad_scalar_exit_code(capsys):
    code, _, _ = run(
        capsys,
        "poly",
        "--family",
        "little",
        "--lambda",
        "1",
        "--a",
        "zzz",
        "--b",
        "0.3",
        "--q",
        "0.25",
    )
    assert code == 2


def test_output_deterministic(capsys):
    # runtime_ms is wall-clock time; every other byte must repeat
    args = ("verify", "qybe", "--n", "2", "--q", "1/2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    for out in (out1, out2):
        runtime = json.loads(out)["runtime_ms"]
        assert isinstance(runtime, int) and runtime >= 0
    mask = re.compile(r'"runtime_ms": \d+')
    assert mask.sub('"runtime_ms": 0', out1) == mask.sub('"runtime_ms": 0', out2)


def test_float_output_independent_of_hash_seed():
    src = str(Path(bcq.__file__).resolve().parent.parent)
    command = [
        sys.executable,
        "-c",
        "import sys; from bcq.cli import main; sys.exit(main(sys.argv[1:]))",
        "poly",
        "--family",
        "koornwinder",
        "--lambda",
        "2,1",
        "--t",
        "0.3,-0.2,0.15,-0.4",
        "--q",
        "0.4",
    ]
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        # poly --l was parsed and never read; it must not become --lambda either
        ("poly", "--family", "little", "--lambda", "2", "--a", "1/2", "--b", "1/3",
         "--q", "1/4", "--l", "1"),
        # --format pretty was accepted and printed json
        ("verify", "qybe", "--n", "2", "--format", "pretty"),
    ],
)
def test_removed_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "orthogonality", "--t", "1/5,-1/7,1/3,-2/7", "--q", "1/4"), "--l"),
        (("verify", "reflection", "--n", "4", "--q", "1/2"), "--l"),
        (("verify", "selberg-constants", "--a", "1/2", "--b", "1/3", "--q", "1/4"), "--l"),
        (("verify", "qybe", "--q", "1/2"), "--n"),
        (("verify", "intertwiner", "--l", "2", "--q", "1/2"), "--n"),
        (("poly", "--family", "little", "--lambda", "2", "--q", "1/4"), "--a --b"),
        (("poly", "--family", "koornwinder", "--lambda", "2", "--q", "1/4"), "--t"),
    ],
)
def test_missing_option_is_named(capsys, argv, flag):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert flag in err
    assert "NoneType" not in err


def test_negative_value_as_separate_argument(capsys):
    base = ("poly", "--family", "little", "--lambda", "2", "--a", "1")
    code, separate, _ = run(capsys, *base, "--b", "-13/2", "--q", "1/2")
    assert code == 0
    assert run(capsys, *base, "--b=-13/2", "--q", "1/2") == (0, separate, "")


SELBERG = ("verify", "selberg-constants", "--l", "2", "--a", "0.5", "--b", "0.3",
           "--q", "0.25")


def test_precision_extended(capsys, monkeypatch):
    monkeypatch.setenv("BCQ_PRECISION", "extended")
    code, out, _ = run(capsys, *SELBERG)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-10


def test_precision_unknown_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("BCQ_PRECISION", "quad")
    code, out, err = run(capsys, *SELBERG)
    assert code == 2
    assert out == ""
    assert "BCQ_PRECISION must be 'double' or 'extended'" in err


def test_support_past_cap_exit_3(capsys):
    code, out, err = run(capsys, "verify", "orthogonality", "--l", "1",
                         "--t", "1000,1e-4,2e-4,-1e-4", "--q", "0.9")
    assert code == 3
    assert out == ""
    assert "non-convergence" in err


def test_float_limit_at_l3_reports(capsys):
    # the float Koornwinder polynomial at l = 3 was rejected as not
    # invariant by the generator-coordinate elimination (exit 2)
    code, out, _ = run(capsys, "verify", "limit-little", "--lambda", "3,2,1",
                       "--a", "0.5", "--b", "0.3", "--q", "0.25")
    assert code in (0, 1)
    assert len(out.splitlines()) == 1
    assert json.loads(out)["identity"] == "limit-koornwinder-to-little"


def test_overflowing_residue_mass_exit_3(capsys):
    code, out, err = run(capsys, "verify", "orthogonality", "--l", "1",
                         "--t", "3e7,1e-12,2e-12,-1e-12", "--q", "0.5")
    assert code == 3
    assert out == ""
    assert "non-convergence" in err


def test_negative_branching_bound_exit_2(capsys):
    # a negative bound checked no weight and exited 0 with "checked": 0
    code, out, err = run(capsys, "verify", "branching", "--n", "5", "--l", "2",
                         "--bound", "-1")
    assert code == 2
    assert out == ""
    assert "degree_bound must be >= 0" in err


@pytest.mark.parametrize(
    "suite", [("qybe", "--n", "3"), ("reflection", "--n", "4", "--l", "2"),
              ("intertwiner", "--n", "4", "--l", "2", "--r", "2")],
)
def test_grassmann_suites_reject_q_zero(capsys, suite):
    # q = 0 divided by zero in R^- and beta and exited 3 as non-convergence
    code, out, err = run(capsys, "verify", *suite, "--q", "0")
    assert code == 2
    assert out == ""
    assert "nonzero --q" in err


@pytest.mark.parametrize("q", ["1", "-1"])
def test_intertwiner_classical_limit_exits_0(capsys, q):
    # the closed-form constants divided by q^2 - 1 and exited 3 at q = 1
    code, out, _ = run(capsys, "verify", "intertwiner", "--n", "4", "--l", "2", "--r", "2",
                       "--sigma", "1", "--q", q)
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 4 and all(r["exact"] for r in reports)


def test_python_dash_m_runs_the_cli():
    src = str(Path(bcq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "bcq", "verify", "qybe", "--n", "2", "--q", "1/2"]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["identity"] == "quantum-yang-baxter"


def test_import_loads_only_the_standard_library():
    # numpy and mpmath are often installed, so an accidental import of
    # either would pass every other test; site hooks may load modules at
    # start-up, so only the modules new after the import count
    src = str(Path(bcq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bcq, bcq.cli\n"
        "new = set(sys.modules) - before\n"
        "print('\\n'.join(sorted(new)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    new = proc.stdout.split()
    assert "bcq.cli" in new
    foreign = [
        name for name in new
        if name.split(".")[0] != "bcq" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign, foreign

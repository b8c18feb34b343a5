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


GRASSMANN_N4_L2 = (
    '{"big": {"a": "1", "b": "1", "base": "1/4", "c": "1", "d": "1", "k": 1}, '
    '"casimir": {"1,0,0,-1": "1105/256"}, '
    '"fundamental_spherical": [[1, 0, 0, -1], [1, 1, -1, -1]], '
    '"koornwinder": {"base": "1/4", "k": 1, "t": ["-1/2", "-1/2", "1/2", "1/2"]}, '
    '"l": 2, "little": {"a": "1", "b": "1", "base": "1/4", "k": 1}, "n": 4, "q": "1/2", '
    '"warning": "a = 1 sits on the boundary of the little parameter domain"}\n'
)


def test_grassmann_casimir_and_boundary_warning(capsys):
    code, out, _ = run(capsys, "grassmann", "--n", "4", "--l", "2", "--lambda", "1,0,0,-1")
    assert code == 0
    assert out == GRASSMANN_N4_L2


def test_grassmann_lambda_of_wrong_length_exits_2(capsys):
    code, out, err = run(capsys, "grassmann", "--n", "4", "--l", "2", "--lambda", "1,0,-1")
    assert code == 2
    assert out == ""
    assert "weight length must be n" in err


def test_python_dash_m_prints_what_main_prints(capsys):
    argv = ("grassmann", "--n", "4", "--l", "2", "--lambda", "1,0,0,-1")
    src = str(Path(bcq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bcq", *argv], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == run(capsys, *argv)[1] == GRASSMANN_N4_L2


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


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("poly", "--family", "little", "--lambda", "2", "--a", "1/2", "--b", "1/3", "--q", "1/4",
          "--t", "1,2"), "--t"),
        (("poly", "--family", "little", "--lambda", "2", "--a", "1/2", "--b", "1/3", "--q", "1/4",
          "--c", "1", "--d", "4"), "--c --d"),
        (("poly", "--family", "koornwinder", "--lambda", "1", "--t", "1/5,-1/7,1/3,-2/7",
          "--q", "1/4", "--a", "1/2"), "--a"),
        (("verify", "selberg-constants", "--l", "1", "--a", "1/2", "--b", "1/3", "--c", "1",
          "--q", "1/4"), "--c"),
        (("verify", "qybe", "--n", "3", "--t", "1,2"), "--t"),
        (("verify", "classical", "--l", "2", "--c", "1"), "--c"),
        (("verify", "orthogonality", "--l", "1", "--t", "1/5,-1/7,1/3,-2/7", "--a", "1/2"),
         "--a"),
    ],
)
def test_unread_parameter_option_exits_2(capsys, argv, unread):
    # --t given to the little family was ignored, and the command exited 0
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"does not read {unread}" in err


def test_classical_reads_a_and_b(capsys):
    code, out, _ = run(capsys, "verify", "classical", "--l", "2", "--a", "1", "--b", "0")
    assert code == 0
    assert json.loads(out)["params"]["alpha"] == 1.0


def test_classical_at_large_alpha_is_quick(capsys):
    # pairing each base with the first q-power of it built (q;q)_1000 exactly at
    # q = 999/1000 and did not finish in 60 s; the residual is the Gamma_q route's
    code, out, _ = run(capsys, "verify", "classical", "--l", "2", "--a", "1000")
    report = json.loads(out)
    assert code == 1
    assert report["residual"] == pytest.approx(1.3056907490750655, rel=1e-11)
    assert report["runtime_ms"] < 1000
    # q^alpha below the doubles at q = 9/10, past the exact size bound
    code, out, err = run(capsys, "verify", "classical", "--l", "2", "--a", "100000")
    assert (code, out) == (3, "")
    assert "q^alpha or q^beta underflows doubles at q = 0.9" in err


def test_classical_with_an_underflowing_target_exits_2(capsys):
    # exited 3 with "non-convergence: float division by zero"
    code, out, err = run(capsys, "verify", "classical", "--l", "3", "--k", "500")
    assert (code, out) == (2, "")
    assert "Selberg's integral underflows doubles at k = 500, l = 3" in err


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


@pytest.mark.parametrize("argv", [
    ("--a", "1/2", "--b", "-1/3"),
    ("--family", "big", "--a", "-1/20", "--b", "1/25", "--c", "1", "--d", "4"),
])
def test_selberg_constants_at_nonpositive_a_or_b(capsys, argv):
    # the constants are products in a and b themselves, which exist at
    # a, b <= 0; through a = q^alpha, b = q^beta these sets exited 2
    code, out, err = run(capsys, "verify", "selberg-constants", "--l", "1", *argv, "--q", "1/4")
    assert code == 0
    assert err == ""
    assert json.loads(out)["residual"] < 1e-10


def test_orthogonality_at_zero_t(capsys):
    # every t_i = 0: the degeneracy test meets z = 0 in (z; q)_inf
    code, out, _ = run(capsys, "verify", "orthogonality", "--l", "1", "--t", "0,0,0,0",
                       "--q", "1/2")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-15


def test_negative_branching_bound_exit_2(capsys):
    # a negative bound checked no weight and exited 0 with "checked": 0
    code, out, err = run(capsys, "verify", "branching", "--n", "5", "--l", "2",
                         "--bound", "-1")
    assert code == 2
    assert out == ""
    assert "degree_bound must be >= 0" in err


@pytest.mark.parametrize(
    "suite", [("verify", "qybe", "--n", "3"),
              ("verify", "reflection", "--n", "4", "--l", "2"),
              ("verify", "intertwiner", "--n", "4", "--l", "2", "--r", "2"),
              ("grassmann", "--n", "4", "--l", "1", "--sigma", "1", "--tau", "1")],
)
def test_grassmann_suites_reject_q_zero(capsys, suite):
    # q = 0 divided by zero in R^- and beta, and in q^(-sigma-tau+1) of the
    # grassmann table, and exited 3 as non-convergence
    code, out, err = run(capsys, *suite, "--q", "0")
    assert code == 2
    assert out == ""
    assert "nonzero --q" in err


@pytest.mark.parametrize("q", ["1e400", "-1e400"])
@pytest.mark.parametrize(
    "suite", [("verify", "qybe", "--n", "2"),
              ("verify", "reflection", "--n", "4", "--l", "2"),
              ("verify", "intertwiner", "--n", "4", "--l", "2", "--r", "2"),
              ("grassmann", "--n", "4", "--l", "1", "--sigma", "1", "--tau", "1")],
)
def test_grassmann_suites_reject_a_non_finite_q(capsys, suite, q):
    # a float inf reached the float path and printed "residual": NaN, which
    # is not JSON, and exited 1; its binary value does not exist
    code, out, err = run(capsys, *suite, "--q", q)
    assert code == 2
    assert out == ""
    assert "finite, nonzero --q" in err


def test_float_q_intertwiner_runs_at_the_binary_value(capsys):
    # the float path read 4.66e-10 on the tilde theta constant here and
    # exited 1; every constant holds exactly at the binary value of 1.7
    code, out, _ = run(capsys, "verify", "intertwiner", "--n", "7", "--l", "3", "--r", "3",
                       "--sigma", "2", "--q", "1.7")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 4
    assert all(doc["exact"] is False and doc["residual"] == 0.0 for doc in docs)


@pytest.mark.parametrize(
    "argv, weight", [(("poly", "--family", "koornwinder", "--lambda", "1,2"), "(1, 2)"),
                     (("verify", "symmetry", "--lambda", "1,-1"), "(1, -1)")],
)
def test_non_dominant_lambda_exits_2(capsys, argv, weight):
    # the KeyError of the missing lambda exited 2 as "invalid input: (1, 2)"
    code, out, err = run(capsys, *argv, "--t", "1/2,1/3,1/5,1/7", "--q", "1/2")
    assert code == 2
    assert out == ""
    assert f"weight {weight} is not dominant" in err


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


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (("verify", "qybe", "--n", "1"), 2, "n must be >= 2"),
        (("verify", "orthogonality", "--l", "1", "--t", "1000,1e-4,2e-4,-1e-4", "--q", "0.9"),
         3, "non-convergence"),
    ],
)
def test_python_dash_m_exit_codes(argv, code, err):
    # the status the process exits with, through __main__'s sys.exit(main());
    # exit 0 is test_python_dash_m_runs_the_cli
    src = str(Path(bcq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "bcq", *argv]
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert err in proc.stderr


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

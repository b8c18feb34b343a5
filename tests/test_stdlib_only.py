"""bcq runs on the standard library alone, and its tests check it against
standard-library oracles (``decimal``, ``fractions``), not numeric packages."""

import ast
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
NUMERIC = {"mpmath", "numpy", "scipy", "sympy"}

# -S skips site-packages, whose .pth hooks load modules of their own
PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import bcq.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = bcq.cli.main(["verify", "classical", "--l", "2", "--k", "1"])
print(code, sorted({name.partition(".")[0] for name in sys.modules}))
"""


def test_bcq_loads_only_stdlib_modules():
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(TESTS.parent / "src")],
        capture_output=True, text=True, check=True,
    ).stdout.split(" ", 1)
    assert out[0] == "0"
    loaded = ast.literal_eval(out[1])
    assert "bcq" in loaded
    foreign = [m for m in loaded if m not in sys.stdlib_module_names | {"bcq", "__main__"}]
    assert foreign == []


def test_tests_import_no_numeric_packages():
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {n.partition(".")[0] for n in names} & NUMERIC, path.name

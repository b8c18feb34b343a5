"""The stdout of every ``bcq`` command in README.md, pinned byte for byte.

Each command runs in-process through ``bcq.cli.main``; ``runtime_ms`` is
wall-clock time and is masked.  To regenerate the golden file after an
intended output change, run

    PYTHONPATH=src python tests/test_readme_golden.py > tests/data/readme_stdout.txt
"""

import contextlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

from bcq.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "readme_stdout.txt"
RUNTIME = re.compile(r'"runtime_ms": \d+')


def readme_commands() -> list:
    """Every line of a ``sh`` block in README.md that runs ``bcq``."""
    commands = []
    in_sh = False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
        elif in_sh and line.startswith("bcq "):
            commands.append(line)
    return commands


def render() -> str:
    """``$ command``, its masked stdout, then its exit code, per command."""
    blocks = []
    for command in readme_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(shlex.split(command)[1:])
        stdout = RUNTIME.sub('"runtime_ms": 0', out.getvalue())
        blocks.append(f"$ {command}\n{stdout}[exit {code}]\n")
    return "".join(blocks)


def test_readme_commands_found():
    commands = readme_commands()
    assert len(commands) >= 9
    subcommands = {command.split()[1] for command in commands}
    assert subcommands == {"poly", "verify", "grassmann"}


def test_readme_stdout_matches_golden(monkeypatch):
    monkeypatch.delenv("BCQ_PRECISION", raising=False)
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    os.environ.pop("BCQ_PRECISION", None)
    sys.stdout.write(render())

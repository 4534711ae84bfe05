"""Run every command of the README "Command line" block; exit 1 if any fails.

Each ``cavqed ...`` line (backslash continuations joined) runs as
``python -m cavqed.cli ...`` in one working directory, in README order, so a
recipe can read the files an earlier one wrote.

    python scripts/readme_recipes.py

The files go to a temporary directory removed afterwards.  The package is
imported from this checkout's ``src``.  Finding no command is a failure too,
so a change to the block's format cannot turn the check into a no-op.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """Argument lists of the ``cavqed`` commands in the README command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cavqed ")]


def run_all(commands: list[list[str]], workdir: Path) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    failed = 0
    for args in commands:
        code = subprocess.run([sys.executable, "-m", "cavqed.cli", *args],
                              cwd=workdir, env=env).returncode
        print(f"exit {code}: cavqed {shlex.join(args)}", flush=True)
        failed += code != 0
    return failed


def main() -> int:
    commands = readme_commands()
    if not commands:
        print("no cavqed command found in the README command-line block",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        failed = run_all(commands, Path(tmp))
    if failed:
        print(f"{failed} README command(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

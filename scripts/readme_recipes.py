"""Run every command of the README "Command line" block and its "Library
example"; exit 1 if any fails.  Warnings are errors, as they are under pytest.

Each ``cavqed ...`` line (backslash continuations joined) runs as
``python -m cavqed.cli ...`` in one working directory, in README order, so a
recipe can read the files an earlier one wrote.  The library example then
runs as one ``python -c`` script in the same directory.  Each run prints
its exit code and wall time, so the log is an end-to-end timing of the
recipes.

    python scripts/readme_recipes.py [--keep DIR]

The files go to a temporary directory removed afterwards, or with ``--keep``
to DIR, which must be empty or new, so that the outputs of two checkouts can
be compared with ``diff -r``.  The package is imported from this checkout's
``src``.  Finding no command, or no library
example, is a failure too, so a change to the README's format cannot turn
the check into a no-op.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """Argument lists of the ``cavqed`` commands in the README command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cavqed ")]


def library_example() -> str:
    """Source of the Python block under the README "Library example" heading."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```", 2)[1]
    return block.removeprefix("python").strip()


def run_all(commands: list[list[str]], example: str, workdir: Path) -> int:
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    runs = [([sys.executable, "-m", "cavqed.cli", *args], f"cavqed {shlex.join(args)}")
            for args in commands]
    runs.append(([sys.executable, "-c", example], "README library example"))
    failed = 0
    for argv, label in runs:
        start = time.perf_counter()
        code = subprocess.run(argv, cwd=workdir, env=env).returncode
        print(f"exit {code} in {time.perf_counter() - start:.2f} s: {label}", flush=True)
        failed += code != 0
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="run in DIR, empty or new, and keep the files")
    args = parser.parse_args(argv)
    commands, example = readme_commands(), library_example()
    if not commands or not example:
        print("no cavqed command in the README command-line block, or no "
              "README library example", file=sys.stderr)
        return 1
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        if any(args.keep.iterdir()):
            parser.error(f"--keep directory {args.keep} is not empty")
        failed = run_all(commands, example, args.keep.resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            failed = run_all(commands, example, Path(tmp))
    if failed:
        print(f"{failed} README recipe(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

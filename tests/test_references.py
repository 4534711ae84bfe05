"""Every library name has a caller outside the tests.

The scan reads ``src/cavqed`` with ``ast`` for its top-level names, the
methods of its classes and their annotated fields, and looks each one up
among the names, attributes and keyword arguments that ``src/``,
``perfbench/``, ``scripts/`` and the README's Python blocks use.  A name
that only tests reach is dead code to delete, with its tests, or a
deliberate reference to add to ``TEST_ONLY``.

A second scan finds the exception classes that ``src/cavqed`` defines:
only ``NumericalError`` and ``WeakCouplingError``, the types whose exit
codes ``cli.main`` knows (3, and 2 as a ``ValueError``).
"""

import ast
import builtins
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Deliberate references that only tests call: the density-matrix propagator
# and the trajectory ensemble average are what the other layers are checked
# against, acceptance test 4 fits with fit_damped_modes, the Poisson stream
# is the uncorrelated-light input and acceptance test 1 cross-checks the
# energy conversion.
TEST_ONLY = {"evolve", "ensemble_populations", "fit_damped_modes", "poisson_stream",
             "energy_to_frequency"}


def _defined(tree):
    """Top-level names, methods and class-body annotated fields of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id


def _referenced(tree):
    """Names read, attributes used and keyword arguments passed anywhere in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg


def test_every_library_name_has_a_caller_outside_the_tests():
    users = [ast.parse(path.read_text()) for folder in ("src", "perfbench", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks, "the README has no Python block to scan"
    users += [ast.parse(block) for block in blocks]
    used = {name for tree in users for name in _referenced(tree)}
    modules = sorted((ROOT / "src" / "cavqed").glob("*.py"))
    unused = {f"{path.stem}.{name}" for path in modules
              for name in _defined(ast.parse(path.read_text()))
              if not (name.startswith("__") and name.endswith("__")) and name not in used}
    assert {name.split(".")[1] for name in unused} == TEST_ONLY, sorted(unused)


def _base_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def test_the_package_defines_only_the_exceptions_main_maps_to_exit_codes():
    # An exception class has a builtin exception, a name ending in "Error" or
    # an exception class found earlier among its bases.
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    defined = set()
    for path in sorted((ROOT / "src" / "cavqed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    name in known or name.endswith("Error")
                    for name in map(_base_name, node.bases)):
                known.add(node.name)
                defined.add(f"{path.stem}.{node.name}")
    assert defined == {"dynamics.NumericalError", "polariton.WeakCouplingError"}

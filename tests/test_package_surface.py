"""No test-only code in the package.

Every top-level function and class of ``src/superbracket`` and every method
must be reached from outside its own definition: named by other package
code, by the benchmark harness in ``perfbench/``, or, as public API, inside
backticks in the README.  A re-export in ``__init__.py`` reaches nothing: a
name that only the package's ``__init__`` imports is still test-only.  A
closed form that only the tests call belongs in ``tests/`` (see
``tests/paper_forms.py``).  Dunder methods are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "superbracket").glob("*.py"))


def identifiers(paths) -> set:
    """Every name that the code of the files reads, calls or imports."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def definitions():
    """(module, qualified name, name) of each top-level def and class and each method."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def readme_names() -> set:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {word for span in re.findall(r"`([^`]+)`", text) for word in re.findall(r"\w+", span)}


def test_every_package_name_has_a_caller_outside_the_tests():
    modules = [path for path in PACKAGE if path.name != "__init__.py"]
    reached = (identifiers(modules) | identifiers(sorted((ROOT / "perfbench").glob("*.py")))
               | readme_names())
    unreached = [f"{module}.{qualified}" for module, qualified, name in definitions()
                 if not (name.startswith("__") and name.endswith("__")) and name not in reached]
    assert not unreached, f"only tests reach these; move them to tests/: {unreached}"


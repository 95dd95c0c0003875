"""The third-party packages the package and its tests import are exactly the
declared ones: `src/screenkit` needs numpy alone, and the tests need numpy
plus the `test` extra.

Reads `pyproject.toml` and parses the sources with `ast`; it imports and
compiles nothing, so it writes no bytecode.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _names(specs) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in specs}


def declared_dependencies(extra: str | None = None) -> set:
    """The package's dependencies, or those of the optional `extra`."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return _names(project["dependencies"] if extra is None
                  else project["optional-dependencies"][extra])


def imported_packages(paths) -> set:
    """Top-level names of every absolute import, at any depth of the code,
    and of every `pytest.importorskip` with a literal name."""
    names = set()
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip" and node.args
                  and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "screenkit"}


def test_imports_match_declared_dependencies():
    imported = imported_packages((ROOT / "src" / "screenkit").glob("*.py"))
    assert imported == declared_dependencies() == {"numpy"}


def test_test_imports_match_the_test_extra():
    # the tests' own modules (helpers, shared generators) are not packages
    local = {path.stem for path in TESTS.glob("*.py")}
    imported = imported_packages(TESTS.glob("*.py")) - local
    assert imported - declared_dependencies() == declared_dependencies("test")

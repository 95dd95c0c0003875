"""The third-party packages `src/screenkit` imports are exactly the declared ones.

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


def declared_dependencies() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in project["dependencies"]}


def imported_packages() -> set:
    """Top-level names of every absolute import, at any depth of the code."""
    names = set()
    for path in sorted((ROOT / "src" / "screenkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "screenkit"}


def test_imports_match_declared_dependencies():
    assert imported_packages() == declared_dependencies() == {"numpy"}

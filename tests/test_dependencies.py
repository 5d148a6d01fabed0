"""The package and the demos import only the standard library, trotterlab and
the dependencies that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "trotterlab").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _declared_dependencies():
    """The names in ``[project].dependencies``, without their version specifiers."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def _top_level_imports(path):
    """The top-level module of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"trotterlab"} | _declared_dependencies()
    imported = {(path.relative_to(ROOT).as_posix(), module)
                for path in SOURCES for module in _top_level_imports(path)}
    assert {module for _, module in imported} >= {"numpy", "scipy", "trotterlab"}
    assert sorted(pair for pair in imported if pair[1] not in allowed) == []

"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "riordan").glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names bound by the module's imports (bar __future__ ones) that no expression loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_the_scan_sees_the_package():
    assert {p.name for p in MODULES} >= {"amatrix.py", "cli.py", "core.py", "hankel.py", "series.py", "verify.py"}


def test_the_scan_flags_an_unread_name():
    assert unread_imports("from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd(os)") == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []

"""Every module reads each name it imports.

The scan covers src/, tests/, tools/, perfbench/ and the root conftest.py.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py")),
                  *(ROOT / "perfbench").glob("*.py"), ROOT / "conftest.py"])


def unused_imports(source: str) -> list:
    """Names an import binds that the module never reads; __all__ entries count as read."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*"}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted(imported - read)


def test_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os\nimport sys\n"
              "from json import dumps, loads as parse\n__all__ = ['dumps']\nsys.exit()\n")
    assert unused_imports(source) == ["os", "parse"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []

"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crchains"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue  # a compiler directive, not a name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    # `import a.b` binds a; `from m import a as b` binds b
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport a.b\nfrom m import x, y as z\nprint(a, z)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

"""Every name a product module imports is read in that module.

An import is used when the module reads the name: in code, in an
annotation (also one written as a string) or in ``__all__`` (a
package's re-export). An import whose statement carries
``# noqa: F401`` is kept for its side effect (the lint rules register
themselves on import). Like the shipped-callers check, this reads the
source with :mod:`ast` and imports nothing.
"""

import ast
from pathlib import Path

from tests.test_shipped_callers import ROOT, _parse, _product_modules


def _names_read(tree: ast.Module):
    """Every identifier ``tree`` reads, string annotations included."""
    names = set()

    def annotation(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    annotation(ast.parse(sub.value, mode="eval"))
                except SyntaxError:
                    pass

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for field in ("annotation", "returns"):
            value = getattr(node, field, None)
            if value is not None:
                annotation(value)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    names.add(item.value)
    return names


def unused_imports(path: Path):
    """``["line: name", ...]`` for each name ``path`` imports and never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = _parse(path)
    read = _names_read(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_product_modules_read_every_import():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in _product_modules().values()
        if (unused := unused_imports(path))
    }
    assert found == {}, f"unused imports: {found}"


def test_check_flags_only_unused_imports(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Dict, List, Optional\n"
        "from . import registered  # noqa: F401\n"
        "from .sub import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [os.sep]\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["2: sys", "3: Dict"]

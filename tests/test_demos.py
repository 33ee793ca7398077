"""Every name a demo imports from fractalips exists.

The demos are parsed, not run, so deleting public API a demo still uses
fails here without the cost of running the demos.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _fractalips_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        module = node.module if isinstance(node, ast.ImportFrom) else None
        if module and module.split(".")[0] == "fractalips":
            for alias in node.names:
                yield module, alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = [
        f"{module}.{name}"
        for module, name in _fractalips_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names fractalips lacks: {missing}"

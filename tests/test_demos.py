"""The demos import only names the package still defines.

No test runs the demos (they train models and write images), so this
parses each one and resolves its ``from gaxkit... import`` lines.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _gaxkit_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "gaxkit" or node.module.startswith("gaxkit.")):
            for alias in node.names:
                yield node.module, alias.name


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(_gaxkit_imports(path))
    assert imports, f"{path.name} imports nothing from gaxkit"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name}: unresolved imports {missing}"

"""The demos and README.md import only names the package still defines.

No test runs the demos (they train models and write images) or the README's
python blocks, so this parses each one and resolves its
``from gaxkit... import`` lines.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _gaxkit_imports(source, filename):
    tree = ast.parse(source, filename=filename)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "gaxkit" or node.module.startswith("gaxkit.")):
            for alias in node.names:
                yield node.module, alias.name


def _unresolved(imports):
    return [f"{module}.{name}" for module, name in imports
            if not hasattr(importlib.import_module(module), name)]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(_gaxkit_imports(path.read_text(encoding="utf-8"),
                                   str(path)))
    assert imports, f"{path.name} imports nothing from gaxkit"
    missing = _unresolved(imports)
    assert not missing, f"{path.name}: unresolved imports {missing}"


def test_readme_imports_resolve():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(
        encoding="utf-8"), flags=re.MULTILINE | re.DOTALL)
    imports = [imp for block in blocks
               for imp in _gaxkit_imports(block, str(README))]
    assert imports, "README.md has no python block importing from gaxkit"
    missing = _unresolved(imports)
    assert not missing, f"README.md: unresolved imports {missing}"

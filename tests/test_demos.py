"""Every name a demo imports from sparseps exists.

The demos run outside the suite, so deleting or renaming a public name
would break them unnoticed.  They are parsed here, never executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def sparseps_imports(path):
    """(module, name) for each `from sparseps... import name` in a file, and
    (module, None) for each `import sparseps...`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "sparseps"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "sparseps")


def test_every_demo_is_checked():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(path):
    imports = list(sparseps_imports(path))
    assert imports, f"{path.name} imports nothing from sparseps"
    for module, name in imports:
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), f"{path.name}: {module}.{name}"

"""Every name a helmhdg module imports is used in that module, and the
package's `__all__` lists exactly what `__init__.py` imports.

No linter runs in CI, so this test is the check for dead imports.
`__init__.py` is skipped by the unused-import check: it re-exports its
imports through `__all__`, which the second check keeps in step, so a
deleted API cannot stay behind in `__all__` and break `import *`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "helmhdg"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_detected():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "line 1: os", "line 2: tau",
    ]


def _all_mismatch(source: str) -> set[str]:
    """Names in `__all__` but not imported (or `__version__`), and names
    imported but not in `__all__`."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = next(
        set(ast.literal_eval(node.value))
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
    )
    return exported ^ (imported | {"__version__"})


def test_all_matches_package_imports():
    assert _all_mismatch((SRC / "__init__.py").read_text(encoding="utf-8")) == set()


def test_all_mismatch_is_detected():
    source = (
        '__version__ = "0"\nfrom .a import kept, dropped\n'
        '__all__ = ["__version__", "kept", "stale"]\n'
    )
    assert _all_mismatch(source) == {"dropped", "stale"}

"""Every name a helmhdg module imports is used in that module, no module
imports another's private (underscore-prefixed) names, the package's
`__all__` lists exactly what `__init__.py` imports, every function
that the benchmark's span tracer wraps still exists, and every public
function, class and method of the package has a caller in `src/` or
`demos/`, so code that only tests use lives with the tests.  The `hdg`
parser and `RunConfig` name the same settings: every flag of a command
sets a field, and every field is set by some command's flag, so no flag
(a settings file, say) feeds `RunConfig` by a second route.  Only the
monolithic oracle imports SciPy's linalg and sparse stacks.

No linter runs in CI, so this test is the check for dead imports.
`__init__.py` is skipped by the unused-import check: it re-exports its
imports through `__all__`, which the second check keeps in step, so a
deleted API cannot stay behind in `__all__` and break `import *`.
"""

import argparse
import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from helmhdg.cli import RunConfig, build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "helmhdg"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"


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


def _private_imports(source: str) -> list[str]:
    """Underscore-prefixed names (dunders aside) imported from helmhdg
    modules, by relative or absolute import."""
    tree = ast.parse(source)
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "helmhdg")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_no_private_name(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_is_detected():
    source = (
        "from . import __version__\nfrom .skeleton import Solution, _batches\n"
        "from helmhdg.mesh import _finish_mesh\nfrom numpy import _private\n"
    )
    assert _private_imports(source) == ["line 2: _batches", "line 3: _finish_mesh"]


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


def _span_targets(source: str) -> list[tuple[str, str, str]]:
    """(span name, module, attribute path) of each `TARGETS` entry (span
    name, module, attribute path, hook); read with `ast`, so the tracer is
    neither imported nor installed."""
    tree = ast.parse(source)
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    )
    return [tuple(ast.literal_eval(elt) for elt in entry.elts[:3]) for entry in targets.elts]


def _absent_targets(source: str) -> set[str]:
    """Span names of the `TARGETS` entries whose module or attribute no
    longer resolves."""
    absent = set()
    for name, module, path in _span_targets(source):
        try:
            owner = importlib.import_module(module)
            for part in path.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            absent.add(name)
    return absent


def test_benchmark_span_targets_resolve():
    # A refactor that renames or deletes a wrapped function silently
    # detaches its benchmark metrics; only the functions removed on
    # purpose may be missing: skeleton.volume_loads, the two that only
    # tests called and that moved to tests/reference.py, and
    # mesh.mesh_entities, deleted with the per-element geometry object.
    removed = {
        "skeleton.volume_loads", "analytic.l2_project", "hdg_local.local_solve", "mesh.mesh_entities",
    }
    assert _absent_targets(SPANS.read_text(encoding="utf-8")) <= removed


def test_absent_span_target_is_detected():
    source = (
        "TARGETS = [\n"
        '    ("mesh.build", "helmhdg.mesh", "build_structured_mesh", None),\n'
        '    ("mesh.gone", "helmhdg.mesh", "Mesh.gone", _hook),\n'
        '    ("nowhere.f", "helmhdg.nowhere", "f", None),\n'
        "]\n"
    )
    assert _absent_targets(source) == {"mesh.gone", "nowhere.f"}


def _uncalled_definitions(defining: dict[str, str], using: list[str], exempt: set[str]) -> list[str]:
    """Public module-level functions and classes, and public methods of
    module-level classes, of the `defining` sources (name -> source) whose
    name appears in no `using` source as a variable or attribute name and
    is not in `exempt`."""
    used = set()
    for source in using:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    known = used | exempt
    kinds = (ast.FunctionDef, ast.ClassDef)
    uncalled = []
    for label, source in defining.items():
        for node in ast.parse(source).body:
            if not isinstance(node, kinds):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            uncalled += [
                f"{label}:{defn.lineno} {qualname}"
                for qualname, defn in members
                if not defn.name.startswith("_") and defn.name not in known
            ]
    return uncalled


def test_every_public_definition_has_a_caller():
    # The span tracer's targets are exempt: the benchmark wraps them, so
    # they stay until the benchmark drops them.
    exempt = {path.split(".")[-1] for _, _, path in _span_targets(SPANS.read_text(encoding="utf-8"))}
    defining = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    using = list(defining.values()) + [path.read_text(encoding="utf-8") for path in DEMOS]
    assert _uncalled_definitions(defining, using, exempt) == []


def test_uncalled_definition_is_detected():
    defining = {"mod.py": (
        "def used():\n    pass\n"
        "def unused():\n    pass\n"
        "class Kept:\n"
        "    def method(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
        "class Dead:\n    pass\n"
        "def _helper():\n    pass\n"
        "def traced():\n    pass\n"
    )}
    using = ["from mod import used\nused()\nobj = Kept()\nobj.method()\n"]
    assert _uncalled_definitions(defining, using, exempt={"traced"}) == [
        "mod.py:3 unused", "mod.py:10 Kept.dead", "mod.py:12 Dead",
    ]


#: SciPy subpackages that cost about 10 MB of resident memory to import;
#: only the oracle, `skeleton.monolithic_solve`, may load them.
HEAVY_SCIPY = ("scipy.linalg", "scipy.sparse")


def _heavy_imports(source: str) -> list[str]:
    """Imports of a `HEAVY_SCIPY` package or its submodules outside the
    body of a function named `monolithic_solve`."""
    tree = ast.parse(source)
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "monolithic_solve"
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == pkg or name.startswith(pkg + ".") for name in names for pkg in HEAVY_SCIPY):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_the_oracle_imports_scipy_linalg_or_sparse(path):
    assert _heavy_imports(path.read_text(encoding="utf-8")) == []


def test_heavy_import_is_detected():
    source = (
        "import scipy.special\nimport scipy.linalg as sla\nfrom scipy import sparse\n"
        "def monolithic_solve():\n    import scipy.sparse.linalg as spla\n"
        "def helper():\n    from scipy.sparse.linalg import splu\n"
        "from scipy.linalg.blas import zgemm\n"
    )
    assert _heavy_imports(source) == ["line 2", "line 3", "line 7", "line 8"]


def _setting_mismatch(parser: argparse.ArgumentParser, fields: set[str]) -> set[str]:
    """Flag dests of the subcommands that name no field, and fields but
    `command` that no subcommand's flag sets; `help` is not a setting."""
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for cmd in commands.values() for action in cmd._actions}
    return (dests - {"help"}) ^ (fields - {"command"})


def test_parser_and_config_name_the_same_settings():
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert _setting_mismatch(build_parser(), fields) == set()


def test_setting_mismatch_is_detected():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run")
    run.add_argument("--kappa", dest="kappas")
    run.add_argument("--n")
    run.add_argument("--settings")
    sub.add_parser("check").add_argument("--only")
    assert _setting_mismatch(parser, {"command", "kappas", "only", "sizes"}) == {
        "n", "settings", "sizes",
    }

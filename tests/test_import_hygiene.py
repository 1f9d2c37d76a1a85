"""Import hygiene: one public surface, and no hidden import cycles.

``repro.api`` is the package's stability boundary; everything else may
be refactored freely between releases.  The examples and benchmarks are
the in-repo consumers that demonstrate the supported import surface, so
they must not reach into ``repro.codec``/``repro.sim`` (or any other
internal module) directly — a deep import that creeps in here is
exactly the kind that later breaks downstream users.

``repro.api`` is also the only module that gathers names from
elsewhere: every subpackage ``__init__`` is a docstring and nothing
else, so inside the package each import names its defining module.
Package code imports ``repro`` modules at module level only — a
function-local import or a ``TYPE_CHECKING`` guard is how an import
cycle hides until some other module happens to be imported first.

The checks parse every file with :mod:`ast` (catching imports nested
inside functions too, which grep-style lint misses) and fail with a
file:line listing of the offenders.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Directories that must import only through the facade.
FACADE_ONLY_DIRS = ("examples", "benchmarks")

#: The only allowed module from the ``repro`` namespace.
ALLOWED = {"repro.api"}

SRC_REPRO = REPO_ROOT / "src" / "repro"


def _facade_only_files() -> list[Path]:
    files = []
    for dirname in FACADE_ONLY_DIRS:
        files.extend(sorted((REPO_ROOT / dirname).glob("*.py")))
    assert files, "expected example/benchmark scripts to exist"
    return files


def _repro_imports(path: Path) -> list[tuple[int, str]]:
    """All ``repro``-namespace modules imported by ``path``, with lines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative import; not the repro namespace
                continue
            if module == "repro" or module.startswith("repro."):
                found.append((node.lineno, module))
    return found


@pytest.mark.parametrize(
    "path", _facade_only_files(), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_scripts_import_only_the_facade(path: Path):
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {module}"
        for line, module in _repro_imports(path)
        if module not in ALLOWED
    ]
    assert not offenders, (
        "deep repro imports outside the facade (use repro.api instead):\n"
        + "\n".join(offenders)
    )


def test_the_checker_sees_nested_imports(tmp_path):
    """Guard the guard: function-local deep imports must be caught."""
    script = tmp_path / "sneaky.py"
    script.write_text(
        "def f():\n"
        "    from repro.codec.encoder import Encoder\n"
        "    import repro.sim.pipeline\n"
        "    return Encoder\n"
    )
    modules = {module for _, module in _repro_imports(script)}
    assert modules == {"repro.codec.encoder", "repro.sim.pipeline"}


@pytest.mark.parametrize(
    "path",
    sorted(SRC_REPRO.glob("*/__init__.py")),
    ids=lambda p: f"repro.{p.parent.name}",
)
def test_subpackage_init_is_docstring_only(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert ast.get_docstring(tree), (
        f"{path.relative_to(REPO_ROOT)} lost its package docstring"
    )
    assert len(tree.body) == 1, (
        f"{path.relative_to(REPO_ROOT)} must hold only its docstring; import "
        "names from their defining module (or from repro.api) instead"
    )


def test_package_imports_repro_at_module_level_only():
    offenders = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
                offenders.append((path, node.lineno, "TYPE_CHECKING"))
            if id(node) in top_level:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name == "repro" or name.startswith("repro."):
                    offenders.append((path, node.lineno, name))
    assert not offenders, "deferred repro imports:\n" + "\n".join(
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for path, line, name in offenders
    )


#: The only modules that may import the scalar oracles.
ORACLE = "repro.codec.reference"
ORACLE_IMPORTERS = {"repro.api", ORACLE}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC_REPRO.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_production_never_imports_the_oracles():
    """``repro.codec.reference`` holds the scalar forms only oracles,
    tests and benchmarks use; production modules keep one path each."""
    offenders = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        if _module_name(path) in ORACLE_IMPORTERS:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if ORACLE in names:
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not offenders, (
        f"production modules importing {ORACLE}:\n" + "\n".join(offenders)
    )

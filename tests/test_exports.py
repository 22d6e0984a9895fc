"""Every public name of every package module has a user, no module
imports a name it never uses, and README's library example runs and does
what its comments say."""

import ast
import re
from pathlib import Path

import understanding_sat

PACKAGE = Path(understanding_sat.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent


def _public_names(tree: ast.Module) -> set[str]:
    # The names a module defines at its top level, not the ones it imports.
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _names_used_in(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _unused_imports(tree: ast.Module) -> set[str]:
    # The names an import binds (``import a.b`` binds ``a``) that the
    # module never reads; ``__future__`` imports bind nothing.
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_package_root_exports_nothing():
    assert not hasattr(understanding_sat, "__all__")
    assert not ast.parse((PACKAGE / "__init__.py").read_text()).body[1:]


def test_every_export_is_used_by_the_package_or_the_library_example():
    # A module-level name counts as used when package code loads or
    # imports it, or when README's library example or ``bench/`` names it.
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    used = set(re.findall(r"\w+", _library_example()))
    for path in (ROOT / "bench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text()))
    for tree in trees.values():
        used |= _names_used_in(tree)
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in sorted(_public_names(tree) - used)
    ]
    assert not unused


def test_no_module_imports_a_name_it_never_uses():
    # Every module of the package and of the tests, ``__init__`` and
    # ``conftest`` included.
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {
        f"{path.parent.name}/{path.name}": sorted(names)
        for path in paths
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}


def test_library_example_runs_as_its_comments_say():
    scope = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    assert (scope["outcome"].kind, scope["outcome"].failing_clause) == ("unsat", 3)
    assert scope["truth"].sat
    assert scope["row"].bin == "FalseUnsat"
    assert scope["again"] == scope["row"].bin
    assert scope["core"].kind == "FalseUnsat" and scope["core"].minimized
    assert scope["last"]["kind"] == "VERDICT"

"""Every name the package exports has a user."""

import ast
import re
from pathlib import Path

import understanding_sat

PACKAGE = Path(understanding_sat.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _names_used_in(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_export_is_used_by_the_package_or_the_library_example():
    # A name counts as used when a package module other than
    # ``__init__`` loads or imports it, or when README's library example
    # names it.
    used = set(re.findall(r"\w+", _library_example()))
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used_in(path)
    assert not sorted(set(understanding_sat.__all__) - used)

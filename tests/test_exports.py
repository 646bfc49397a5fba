"""Every exported name is used: each name in the ``__all__`` of the package
and of each of its modules appears as a name or an attribute in the package
source or in the acceptance tests, so a public function that no command and
no acceptance check calls shows up here."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pairscreen").glob("*.py"))


def used_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_is_used():
    used = set().union(*map(used_names, SOURCES + [ROOT / "tests" / "test_acceptance.py"]))
    unused = []
    for path in SOURCES:
        module = "pairscreen" if path.stem == "__init__" else f"pairscreen.{path.stem}"
        exports = importlib.import_module(module).__all__
        unused += [f"{module}.{name}" for name in exports if name not in used]
    assert unused == []

"""Every exported name is used: each name in ``pairscreen.__all__`` appears
as a name or an attribute in the package source or in the acceptance tests,
so a public function that no command and no acceptance check calls shows up
here."""

import ast
from pathlib import Path

import pairscreen

ROOT = Path(__file__).resolve().parent.parent


def used_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_is_used():
    paths = sorted((ROOT / "src" / "pairscreen").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*(used_names(path) for path in paths))
    assert [name for name in pairscreen.__all__ if name not in used] == []

"""README.md names the public surface: every name the package exports,
and in its module map, each module's ``__all__``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pairscreen

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# module-map rows: | `pairscreen.<module>` | `name`, `name`, ... | contents |
MODULE_MAP = {
    module: re.findall(r"`(\w+)`", names)
    for module, names in re.findall(r"^\| `(pairscreen\.\w+)` \| ([^|]*) \|", README, re.M)
}


def test_every_exported_name_is_in_the_readme():
    assert [name for name in pairscreen.__all__ if f"`{name}`" not in README] == []


def test_module_map_has_a_row_per_module():
    modules = {f"pairscreen.{info.name}" for info in pkgutil.iter_modules(pairscreen.__path__)}
    assert set(MODULE_MAP) == modules


@pytest.mark.parametrize("module_name", sorted(MODULE_MAP))
def test_module_map_names_resolve_and_are_the_module_all(module_name):
    module = importlib.import_module(module_name)
    names = MODULE_MAP[module_name]
    assert [name for name in names if not hasattr(module, name)] == []
    assert sorted(names) == sorted(module.__all__)

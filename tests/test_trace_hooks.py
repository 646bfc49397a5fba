"""The benchmark's trace hooks must keep finding what they wrap.

``perfbench/spans.py`` replaces each function named in its ``TARGETS`` by a
span-recording wrapper at the module attribute where the caller looks it
up.  A renamed or deleted attribute breaks every traced benchmark call, and
the benchmark's own tests are not part of this suite, so this test reads
the table and checks each name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize(
    "module_name, func_name",
    [(module, name) for module, funcs in TARGETS.items() for name in funcs],
)
def test_traced_function_is_a_module_attribute(module_name, func_name):
    module = importlib.import_module(f"pairscreen.{module_name}")
    assert callable(getattr(module, func_name, None)), f"pairscreen.{module_name}.{func_name}"

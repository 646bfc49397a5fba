"""The benchmark's trace hooks must keep finding what they wrap.

``perfbench/spans.py`` replaces each function named in its ``TARGETS`` by a
span-recording wrapper at the module attribute where the caller looks it
up.  A renamed or deleted attribute breaks every traced benchmark call, and
the benchmark's own tests are not part of this suite, so this test reads
the table and checks each name against the package.  The benchmark also
counts calls: its stage-1 counts need one ``fit_glm`` call per column.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import pairscreen.pipeline
from pairscreen import LOGISTIC, Dataset, stage1_screen

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


def test_stage1_calls_the_traced_functions_once_per_column(monkeypatch):
    # 0/1 logistic columns: the ones that stage 1 fits from cell counts
    rng = np.random.default_rng(5)
    x = (rng.random((200, 6)) < 0.3).astype(float)
    y = (rng.random(200) < 0.4).astype(float)
    calls = []
    for name in ("build_stage1_design", "fit_glm", "wald_statistic"):
        real = getattr(pairscreen.pipeline, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pairscreen.pipeline, name, counted)
    stage1_screen(Dataset(x=x, y=y, family=LOGISTIC), 0.0)
    assert calls.count("fit_glm") == calls.count("wald_statistic") == x.shape[1]
    assert "build_stage1_design" in calls

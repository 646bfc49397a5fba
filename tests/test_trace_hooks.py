"""The benchmark's trace hooks must keep finding what they wrap.

``perfbench/spans.py`` replaces each function named in its ``TARGETS`` by a
span-recording wrapper at the module attribute where the caller looks it
up.  A renamed or deleted attribute breaks every traced benchmark call, and
the benchmark's own tests are not part of this suite, so this test reads
the table and checks each name against the package.  The benchmark also
counts calls: its stage-1 counts need one ``fit_glm`` call per distinct
0/1 count vector, and each run must call ``build_stage2_design``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import pairscreen.pipeline
from pairscreen import LOGISTIC, Dataset, stage1_screen, stage2_tests
from pairscreen.pipeline import ScreenResult

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


def count_calls(monkeypatch, names) -> list:
    """Wrap the ``pipeline`` attributes ``names`` as the tracer does; the
    returned list gets ``(name, args)`` per call."""
    calls = []
    for name in names:
        real = getattr(pairscreen.pipeline, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, args))
            return _real(*args, **kwargs)

        monkeypatch.setattr(pairscreen.pipeline, name, counted)
    return calls


def test_stage1_calls_the_traced_functions_once_per_count_vector(monkeypatch):
    # 0/1 logistic columns: the ones that stage 1 fits from cell counts;
    # column 6 copies column 2, so it has the same counts and no fit of its own
    rng = np.random.default_rng(5)
    x = (rng.random((200, 6)) < 0.3).astype(float)
    x = np.column_stack([x, x[:, 2]])
    y = (rng.random(200) < 0.4).astype(float)
    calls = count_calls(monkeypatch, ("build_stage1_design", "fit_glm", "wald_statistic"))
    stage1_screen(Dataset(x=x, y=y, family=LOGISTIC), 0.0)
    calls = [name for name, _ in calls]
    assert calls.count("fit_glm") == calls.count("wald_statistic") == 6
    assert "build_stage1_design" in calls


def test_stage2_builds_a_design_per_block_and_fits_only_pairs_it_hands_back(monkeypatch):
    # 0/1 logistic columns, stage 2 in closed form from cell counts; every
    # carrier of column 5 is a case, so its pairs have a pure cell
    rng = np.random.default_rng(6)
    x = (rng.random((300, 6)) < 0.3).astype(float)
    y = (rng.random(300) < 0.4).astype(float)
    y[x[:, 5] == 1.0] = 1.0
    cells = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    live = [
        (j, k)
        for j in range(6)
        for k in range(j + 1, 6)
        if all(((x[:, j] == a) & (x[:, k] == b) & (y == c)).any() for a, b, c in cells)
    ]
    assert len(live) == 10
    monkeypatch.setattr(pairscreen.pipeline, "_BLOCK_ROWS", 8 * 4)  # 4 pairs a block
    calls = count_calls(monkeypatch, ("build_stage2_design", "fit_glm"))
    screen = ScreenResult(t_stats=np.zeros(6), passing=tuple(range(6)))
    result = stage2_tests(Dataset(x=x, y=y, family=LOGISTIC), screen)
    fitted = [args[0].values[:, 1:3].T.tolist() for name, args in calls if name == "fit_glm"]
    pairs = zip(result.j.tolist(), result.k.tolist())
    assert fitted == [[x[:, j].tolist(), x[:, k].tolist()] for j, k in pairs if (j, k) not in live]
    blocks = [args for name, args in calls if name == "build_stage2_design" and len(args[0]) == 4]
    assert len(blocks) == 4  # 15 pairs

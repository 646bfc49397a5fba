"""Spans recorded from outside the program, and the per-layer metrics
computed from them.

A :class:`Tracer` replaces each traced function by a wrapper at the module
attribute where its caller looks it up (``pipeline.fit_glm`` is what
``pipeline`` calls, ``simulate.fit_glm`` is what ``simulate`` calls).  Each
wrapper records one span: call id, span id, parent span id, name, start,
end, and an outcome (the error code it raised, or a small note about its
result).  Spans stay in memory until :meth:`Tracer.write` runs at the end of
the benchmark.  Untraced calls run with the wrappers removed.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = "main"  # the span of one whole call of pairscreen.cli.main


def _cells(result, args):
    return int(result[0].size)


def _report_bytes(result, args):
    return Path(args[2]).stat().st_size + Path(result).stat().st_size


def _stage1(result, args):
    return len(result.failed)


def _cutoff(result, args):
    return (len(args[0]), int(args[1]))  # statistics searched, M


def _fit(result, args):
    return (int(result.iterations), bool(result.converged))


# module -> {function name: (layer, note taken from (result, args) or None)}
TARGETS = {
    "cli": {
        "load_csv_matrix": ("csvio", _cells),
        "dominant_encode": ("csvio", None),
        "write_report": ("report", _report_bytes),
    },
    "pipeline": {
        "stage1_screen": ("pipeline", _stage1),
        "stage2_tests": ("pipeline", None),
        "fdr_cutoff": ("pipeline", _cutoff),
        "fit_glm": ("glm", _fit),
        "wald_statistic": ("glm", None),
        "build_stage1_design": ("glm", None),
        "build_stage2_design": ("glm", None),
        "gauss_two_sided_tail": ("normal", None),
        "gauss_tail_inverse": ("normal", None),
    },
    "simulate": {
        "stage1_screen": ("pipeline", _stage1),
        "fdr_cutoff": ("pipeline", _cutoff),
        "fit_glm": ("glm", _fit),
        "wald_statistic": ("glm", None),
        "build_stage2_design": ("glm", None),
        "gen_truth": ("simulate", None),
        "gen_design": ("simulate", None),
        "gen_response": ("simulate", None),
        "gen_pair_response": ("simulate", None),
    },
}
LAYER_OF = {name: layer for funcs in TARGETS.values() for name, (layer, _) in funcs.items()}
LAYER_OF[ROOT] = "cli"
LAYERS = ("csvio", "pipeline", "glm", "normal", "simulate", "report", "cli")

SKIP_CODES = ("SINGULAR_DESIGN", "SEPARATION", "DEGENERATE_VARIANCE", "NOT_CONVERGED")
RAISE_CODES = ("SINGULAR_DESIGN", "SEPARATION")
GEN = ("gen_truth", "gen_design", "gen_response", "gen_pair_response")

# metric -> the traced functions it is computed from.  A metric whose
# functions a workload does not call is reported as 0; one whose functions
# the workload should call but did not is reported missing.
NEEDS = {
    "csvio.load_s": ("load_csv_matrix",),
    "csvio.dominant_s": ("dominant_encode",),
    "csvio.cells": ("load_csv_matrix",),
    "csvio.mcells_per_s": ("load_csv_matrix",),
    "pipeline.stage1_s": ("stage1_screen",),
    "pipeline.stage1_fits": ("stage1_screen", "fit_glm"),
    "pipeline.stage1_failed": ("stage1_screen",),
    "pipeline.stage2_s": ("stage2_tests",),
    "pipeline.stage2_pairs": ("fdr_cutoff",),
    **{f"pipeline.stage2_skipped.{code}": ("fit_glm",) for code in SKIP_CODES},
    "pipeline.stage2_ok_frac": ("fdr_cutoff",),
    "pipeline.p1": ("fdr_cutoff",),
    "pipeline.cutoff_s": ("fdr_cutoff",),
    "pipeline.cutoff_stats": ("fdr_cutoff",),
    "glm.fit_calls": ("fit_glm",),
    "glm.fit_s": ("fit_glm",),
    "glm.fit_us_p50": ("fit_glm",),
    "glm.fit_us_p99": ("fit_glm",),
    "glm.newton_iters": ("fit_glm",),
    "glm.newton_iters_per_fit": ("fit_glm",),
    **{f"glm.fit_raised.{code}": ("fit_glm",) for code in RAISE_CODES},
    "glm.not_converged": ("fit_glm",),
    "glm.wald_s": ("wald_statistic",),
    "glm.design_s": ("build_stage2_design",),
    "normal.tail_calls": ("gauss_two_sided_tail",),
    "simulate.gen_s": GEN,
    "simulate.gen_pair_s": ("gen_pair_response",),
    "simulate.pair_responses": ("gen_pair_response",),
    "simulate.reuse_ratio": ("gen_pair_response", "fdr_cutoff", "fit_glm"),
    "report.write_s": ("write_report",),
    "report.bytes": ("write_report",),
    **{
        f"{layer}.self_s": tuple(
            sorted(n for n, lay in LAYER_OF.items() if lay == layer and n != ROOT)
        )
        for layer in LAYERS
    },
}
UNITS = {
    "csvio.cells": "count",
    "csvio.mcells_per_s": "Mcells/s",
    "pipeline.stage1_fits": "count",
    "pipeline.stage1_failed": "count",
    "pipeline.stage2_pairs": "count",
    "pipeline.stage2_ok_frac": "fraction",
    "pipeline.p1": "count",
    "pipeline.cutoff_stats": "count",
    "glm.fit_calls": "count",
    "glm.fit_us_p50": "us",
    "glm.fit_us_p99": "us",
    "glm.newton_iters": "count",
    "glm.newton_iters_per_fit": "count",
    "glm.not_converged": "count",
    "normal.tail_calls": "count",
    "simulate.pair_responses": "count",
    "simulate.reuse_ratio": "ratio",
    "report.bytes": "bytes",
    **{f"pipeline.stage2_skipped.{code}": "count" for code in SKIP_CODES},
    **{f"glm.fit_raised.{code}": "count" for code in RAISE_CODES},
}
OVERHEAD = "trace.overhead_frac"
PER_LAYER = tuple(NEEDS) + (OVERHEAD,)


def unit(metric: str) -> str:
    if metric == OVERHEAD:
        return "fraction"
    return UNITS.get(metric, "s")


class Tracer:
    """Installs span-recording wrappers around the traced functions."""

    def __init__(self, modules: dict):
        self._modules = modules  # short name -> imported pairscreen module
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._call_id = 0

    def _wrap(self, func, name: str, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                code = getattr(exc, "code", type(exc).__name__)
                spans.append((self._call_id, span_id, parent, name, start, end, code))
                raise
            end = clock()
            stack.pop()
            outcome = note(result, args) if note is not None else None
            spans.append((self._call_id, span_id, parent, name, start, end, outcome))
            return result

        return wrapper

    @contextmanager
    def call(self, call_id: int):
        """Trace one call: wrappers are installed only inside this block,
        and the block itself is the root span."""
        originals = []
        for mod_name, funcs in TARGETS.items():
            module = self._modules[mod_name]
            for name, (_, note) in funcs.items():
                func = getattr(module, name)
                originals.append((module, name, func))
                setattr(module, name, self._wrap(func, name, note))
        self._call_id = call_id
        root = self._next_id
        self._next_id += 1
        self._stack[:] = [root]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append((call_id, root, -1, ROOT, start, end, None))
            self._stack.clear()
            for module, name, func in originals:
                setattr(module, name, func)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call,span,parent,name,start_s,end_s,outcome\n")
            for call_id, span_id, parent, name, start, end, outcome in self.spans:
                fh.write(f"{call_id},{span_id},{parent},{name},{start!r},{end!r},\"{outcome}\"\n")


def layer_metrics(spans: list[tuple], expects: frozenset) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced call, and the traced functions the
    workload should have called but did not."""
    dur = {}
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        dur[span[1]] = span[5] - span[4]
        by_name.setdefault(span[3], []).append(span)
    child_time: dict[int, float] = {}
    for span in spans:
        child_time[span[2]] = child_time.get(span[2], 0.0) + dur[span[1]]

    def total(*names):
        return sum(dur[s[1]] for n in names for s in by_name.get(n, ()))

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def notes(name):  # outcomes of the calls that returned; raised ones hold a code
        return [s[6] for s in by_name.get(name, ()) if not isinstance(s[6], str)]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        self_s[LAYER_OF[span[3]]] += dur[span[1]] - child_time.get(span[1], 0.0)

    stage1_ids = {s[1] for s in by_name.get("stage1_screen", ())}
    fits = by_name.get("fit_glm", [])
    pair_fits = [s for s in fits if s[2] not in stage1_ids]
    done = notes("fit_glm")
    # A pair is skipped at the first step that raised, or at a fit that did
    # not converge; later steps for that pair are never called.
    pair_events = [
        s[6]
        for name in ("build_stage2_design", "fit_glm", "wald_statistic")
        for s in by_name.get(name, ())
        if s[2] not in stage1_ids and isinstance(s[6], str)
    ]
    pair_events += [
        "NOT_CONVERGED" for s in pair_fits if isinstance(s[6], tuple) and not s[6][1]
    ]
    cutoffs = notes("fdr_cutoff")
    m_total = sum(m for _, m in cutoffs)
    stats_total = sum(k for k, _ in cutoffs)
    fit_us = np.array([dur[s[1]] for s in fits]) * 1e6
    cells = sum(notes("load_csv_matrix"))

    values = {
        "csvio.load_s": total("load_csv_matrix"),
        "csvio.dominant_s": total("dominant_encode"),
        "csvio.cells": cells,
        "csvio.mcells_per_s": cells / max(total("load_csv_matrix"), 1e-12) / 1e6,
        "pipeline.stage1_s": total("stage1_screen"),
        "pipeline.stage1_fits": len(fits) - len(pair_fits),
        "pipeline.stage1_failed": sum(notes("stage1_screen")),
        "pipeline.stage2_s": total("stage2_tests"),
        "pipeline.stage2_pairs": m_total,
        **{f"pipeline.stage2_skipped.{c}": pair_events.count(c) for c in SKIP_CODES},
        "pipeline.stage2_ok_frac": stats_total / m_total if m_total else 1.0,
        "pipeline.p1": (
            sum((1 + math.sqrt(1 + 8 * m)) / 2 for _, m in cutoffs) / len(cutoffs)
            if cutoffs else 0.0
        ),
        "pipeline.cutoff_s": total("fdr_cutoff"),
        "pipeline.cutoff_stats": stats_total,
        "glm.fit_calls": len(fits),
        "glm.fit_s": total("fit_glm"),
        "glm.fit_us_p50": float(np.percentile(fit_us, 50)) if fits else 0.0,
        "glm.fit_us_p99": float(np.percentile(fit_us, 99)) if fits else 0.0,
        "glm.newton_iters": sum(it for it, _ in done),
        "glm.newton_iters_per_fit": sum(it for it, _ in done) / max(len(done), 1),
        **{f"glm.fit_raised.{c}": sum(s[6] == c for s in fits) for c in RAISE_CODES},
        "glm.not_converged": sum(1 for _, ok in done if not ok),
        "glm.wald_s": total("wald_statistic"),
        "glm.design_s": total("build_stage1_design", "build_stage2_design"),
        "normal.tail_calls": count("gauss_two_sided_tail", "gauss_tail_inverse"),
        "simulate.gen_s": total(*GEN),
        "simulate.gen_pair_s": total("gen_pair_response"),
        "simulate.pair_responses": count("gen_pair_response"),
        "simulate.reuse_ratio": m_total / max(len(pair_fits), 1),
        "report.write_s": total("write_report"),
        "report.bytes": sum(notes("write_report")),
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
    }
    missing = sorted(n for n in expects if n not in by_name)
    metrics = {}
    for metric, needs in NEEDS.items():
        if metric.endswith(".self_s"):
            applies = not needs or any(n in expects for n in needs)
        else:
            applies = all(n in expects for n in needs)
        if not applies:
            metrics[metric] = 0
        elif not any(n in missing for n in needs):
            metrics[metric] = values[metric]
    return metrics, missing

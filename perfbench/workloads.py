"""The benchmark's workloads and their seeded input generator.

Each workload is one ``pairscreen`` job.  The two ``analyze`` workloads read
CSV files that :func:`write_inputs` draws from the benchmark seed; the
``simulate`` workload receives the seed itself through ``--seed``.  The same
seed always gives byte-identical input files, and generating them is never
timed.

Why these three:

* ``analyze-logistic-continuous`` is the baseline size (n=1000, p=100) with
  ``alpha1 = 0``, so all 4,950 pairs get a logistic Newton fit.  Stage-2
  fits dominate; CSV parsing and stage 1 are a few percent.
* ``analyze-dominant-wide`` is wide (p=1000) genotype data recoded to carrier
  indicators and screened at ``alpha1 = 0.5``.  CSV parsing, stage 1 and
  stage 2 each take a large share, and peak memory comes from parsing.
* ``simulate-gaussian-misspecified`` is the paper's misspecified linear
  experiment: tiny n, one response per pair, closed-form gaussian fits, and
  no CSV or report I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# Traced functions (see spans.py) that each kind of job must call.
_FITS = ("stage1_screen", "fdr_cutoff", "fit_glm", "wald_statistic",
         "build_stage1_design", "build_stage2_design", "gauss_two_sided_tail")
_ANALYZE = frozenset(_FITS + ("load_csv_matrix", "stage2_tests", "write_report"))
_SIMULATE = frozenset(_FITS + ("gen_truth", "gen_design", "gen_response", "gen_pair_response"))


@dataclass(frozen=True)
class Workload:
    """A named job; ``full`` and ``tiny`` are its two input sizes."""

    name: str
    command: str  # "analyze" or "simulate"
    options: tuple[str, ...]
    full: dict
    tiny: dict
    expects: frozenset
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-logistic-continuous",
            command="analyze",
            options=("--family", "logistic", "--alpha1", "0", "--eta", "0.05"),
            full={"n": 1000, "p": 100},
            tiny={"n": 200, "p": 12},
            expects=_ANALYZE,
            why="BH over all 4,950 pairs: stage-2 logistic Newton fits dominate",
        ),
        Workload(
            name="analyze-dominant-wide",
            command="analyze",
            options=(
                "--family", "logistic", "--dominant", "--alpha1", "0.5", "--eta", "0.05",
            ),
            full={"n": 2000, "p": 1000},
            tiny={"n": 300, "p": 40},
            expects=_ANALYZE | {"dominant_encode"},
            why="wide genotype CSV with real screening: CSV parsing, stage 1 and stage 2",
        ),
        Workload(
            name="simulate-gaussian-misspecified",
            command="simulate",
            options=(
                "--family", "gaussian", "--misspecified", "--b", "0.4",
                "--alpha1", "0,0.1,0.5", "--eta", "0.05",
            ),
            full={"n": 50, "p": 100, "reps": 3},
            tiny={"n": 30, "p": 12, "reps": 2},
            expects=_SIMULATE,
            why="misspecified linear experiment: per-pair responses, tiny gaussian fits",
        ),
    )
}


def write_inputs(workload: Workload, seed: int, size: dict, work_dir: Path) -> dict:
    """Write the workload's input files under ``work_dir``.

    Returns the paths by role (``x``, ``y``); empty for ``simulate``.
    """
    if workload.name == "analyze-logistic-continuous":
        x, y = _logistic_continuous(seed, **size)
        x_text = _float_csv(x)
    elif workload.name == "analyze-dominant-wide":
        x, y = _dominant_wide(seed, **size)
        x_text = _digit_csv(x)
    else:
        return {}
    paths = {"x": work_dir / "x.csv", "y": work_dir / "y.csv"}
    paths["x"].write_bytes(x_text)
    paths["y"].write_bytes(b"y\n" + b"".join(b"%d\n" % v for v in y))
    return paths


def job_argv(workload: Workload, seed: int, size: dict, inputs: dict, out: str) -> list[str]:
    """Arguments for ``pairscreen.cli.main`` for one call of the workload."""
    argv = [workload.command, *workload.options, "--workers", "1", "--out", out]
    if workload.command == "analyze":
        return argv + ["--x", str(inputs["x"]), "--y", str(inputs["y"])]
    return argv + [
        "--n", str(size["n"]), "--p", str(size["p"]),
        "--reps", str(size["reps"]), "--seed", str(seed),
    ]


def _sigmoid_draw(rng: np.random.Generator, theta: np.ndarray) -> np.ndarray:
    return (rng.random(theta.size) < 1.0 / (1.0 + np.exp(-theta))).astype(np.int64)


def _logistic_continuous(seed: int, n: int, p: int):
    """N(0, 1) covariates rounded to 6 decimals; five planted interactions
    among the first ten columns, each of which also has a main effect."""
    rng = np.random.default_rng([seed, 101])
    x = np.round(rng.standard_normal((n, p)), 6)
    theta = -0.5 + 0.3 * x[:, :10].sum(axis=1)
    for j in range(0, 10, 2):
        theta += 0.45 * x[:, j] * x[:, j + 1]
    return x, _sigmoid_draw(rng, theta)


def _dominant_wide(seed: int, n: int, p: int):
    """Genotype counts {0, 1, 2}, minor-allele frequencies spread over
    [0.05, 0.5], in three kinds of column:

    * 8 causal columns, paired into 4 carrier x carrier interactions, each
      with a carrier main effect; the response is drawn from these alone;
    * about 6% proxy columns whose carrier rate is higher in cases than in
      controls by a fixed log-odds ratio of 0.5, so they pass stage 1;
    * null columns whose carriers are frequency-matched between cases and
      controls, so they do not pass stage 1.

    Proxy and null carriers are drawn given the response, independently per
    column, so no pair except the planted ones has an interaction.  Fixing
    which columns pass stage 1 fixes p1 near 70, and with it the amount of
    stage-2 work, for every seed.
    """
    rng = np.random.default_rng([seed, 202])
    order = rng.permutation(p)
    causal, proxy = order[:8], order[8 : 8 + round(0.062 * p)]
    maf = rng.uniform(0.05, 0.5, size=p)
    maf[causal] = rng.uniform(0.25, 0.4, size=causal.size)
    maf[proxy] = rng.uniform(0.2, 0.5, size=proxy.size)
    g = np.zeros((n, p), dtype=np.int64)
    g[:, causal] = rng.binomial(2, maf[causal], size=(n, causal.size))
    carrier = (g[:, causal] > 0).astype(float)
    theta = -1.5 + 0.5 * carrier.sum(axis=1)
    for a in range(0, 8, 2):
        theta += 1.4 * carrier[:, a] * carrier[:, a + 1]
    y = _sigmoid_draw(rng, theta)

    rest = order[8:]
    rate = 1.0 - (1.0 - maf[rest]) ** 2  # carrier frequency
    shift = np.where(np.isin(rest, proxy), 0.25, 0.0)
    logit = np.log(rate / (1.0 - rate))
    carriers = np.zeros((n, rest.size), dtype=bool)
    for rows, sign in ((y == 1, 1.0), (y == 0, -1.0)):
        group_rate = 1.0 / (1.0 + np.exp(-(logit + sign * shift)))
        count = np.round(group_rate * rows.sum())
        # the `count` rows with the smallest keys in each column are carriers
        rank = rng.random((int(rows.sum()), rest.size)).argsort(axis=0).argsort(axis=0)
        carriers[rows] = rank < count
    homozygous = rng.random((n, rest.size)) < maf[rest] / (2.0 - maf[rest])
    g[:, rest] = carriers * (1 + homozygous)
    return g, y


def _header(p: int) -> bytes:
    return (",".join(f"v{j + 1}" for j in range(p)) + "\n").encode()


def _float_csv(x: np.ndarray) -> bytes:
    rows = (",".join(map(repr, row)) for row in x.tolist())
    return _header(x.shape[1]) + ("\n".join(rows) + "\n").encode()


def _digit_csv(g: np.ndarray) -> bytes:
    """Single-digit cells, laid out as bytes without a per-cell loop."""
    n, p = g.shape
    cells = np.empty((n, 2 * p), dtype=np.uint8)
    cells[:, 0::2] = g + ord("0")
    cells[:, 1::2] = ord(",")
    cells[:, -1] = ord("\n")
    return _header(p) + cells.tobytes()

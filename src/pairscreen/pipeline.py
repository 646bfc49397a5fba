"""Two-stage interaction testing with a data-dependent FDR cutoff.

Stage 1 screens variables by marginal Wald statistics at a threshold
``alpha = sqrt(alpha1 * log p)``.  Stage 2 fits the four-parameter working
model for every pair of surviving variables and computes the interaction
Wald statistic.  The rejection cutoff ``t_hat`` is the infimum of

    { 0 <= t <= sqrt(2 log p) :  G(t) * M / max(R(t), 1) <= eta }

where ``M`` counts pairs that passed stage 1, ``R(t)`` counts pair
statistics with ``|T| >= t`` and ``G`` is the two-sided normal tail.  With
``alpha1 = 0`` every variable passes stage 1 and the procedure reduces to
the classical BH cutoff applied to all p(p-1)/2 pairs.

``stage2_tests`` is the only code that fits stage-2 pairs, for ``analyze``
and ``simulate`` alike.  Logistic pairs of 0/1 columns are decided by
their cell counts in one pass.  Other pairs go in blocks of at most
``_BLOCK_ROWS`` design rows, and the worker pool maps runs of consecutive
blocks, one run per worker: each block is one batched kernel call plus a
full ``fit_glm`` fit for every pair handed back.  ``simulate`` passes its
per-pair responses through ``pair_response``.

Boundary conventions:

* Rejection uses ``|T| >= t_hat`` by default, matching the FDP definition;
  ``strict=True`` switches to ``>``.
* ``M`` includes pairs whose stage-2 fit failed; they stay in the cutoff
  denominator but can never be rejected.
* A variable whose stage-1 fit fails never passes screening.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AllFitsFailed, DegenerateVariance, Separation, SingularDesign
from .glm import (
    LOGISTIC,
    Family,
    _batched_wald,
    _cell_codes,
    _saturated_wald,
    build_stage1_design,
    build_stage2_design,
    fit_glm,
    wald_statistic,
)
from .metrics import efficiency_omega
from .normal import gauss_tail_inverse, gauss_two_sided_tail

__all__ = [
    "Dataset",
    "PairTestResult",
    "FdrReport",
    "stage1_screen",
    "stage2_tests",
    "fdr_cutoff",
    "run_two_stage",
]

INTERACTION_INDEX = 3  # column of x_j * x_k in the stage-2 design
_BLOCK_ROWS = 1 << 16  # design rows per block of batched stage-2 fits
_JUMP_MARGIN = 1e-9  # how far short of G^-1(q) the cutoff search's jumps stop


@dataclass(frozen=True)
class Dataset:
    """One analysis problem: covariates, response, family, optional adjusters."""

    x: np.ndarray
    y: np.ndarray
    family: Family
    adjust: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2:
            raise ValueError("x must be an n x p matrix")
        n, p = x.shape
        if p < 2:
            raise ValueError(f"need p >= 2, got p={p}")
        if y.shape != (n,):
            raise ValueError(f"y must have length {n}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        self.family.validate_response(y)
        if self.adjust is not None:
            adj = np.asarray(self.adjust, dtype=float)
            if adj.ndim == 1:
                adj = adj[:, None]
            if adj.shape[0] != n or not np.isfinite(adj).all():
                raise ValueError("adjust must be a finite n x q matrix")
            object.__setattr__(self, "adjust", adj)
        d = 4 if self.adjust is None else 4 + self.adjust.shape[1]
        if n <= d:
            raise ValueError(f"need n > {d}, the columns of a stage-2 design, got n={n}")
        if self.labels is not None and len(self.labels) != p:
            raise ValueError("labels must match the number of columns")
        try:  # the report writes them as UTF-8
            "".join(self.labels or ()).encode("utf-8")
        except (TypeError, UnicodeEncodeError):
            raise ValueError("labels must be strings that encode as UTF-8") from None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def label(self, j: int) -> str:
        return self.labels[j] if self.labels is not None else f"x{j + 1}"


@dataclass(frozen=True)
class ScreenResult:
    """Marginal Wald statistics and the surviving index set."""

    t_stats: np.ndarray  # NaN where the fit failed
    passing: tuple[int, ...]
    failed: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PairTestResult:
    """Stage-2 outcome per pair, as parallel arrays in lexicographic (j < k)
    order: ``t`` is the interaction T, NaN where the fit failed; ``status``
    is ``""`` for a fitted pair and the failure code otherwise."""

    j: np.ndarray
    k: np.ndarray
    t: np.ndarray
    status: np.ndarray


@dataclass(frozen=True)
class FdrReport:
    """Outcome of one full two-stage run."""

    t_hat: float
    eta: float
    alpha: float
    alpha1: float
    m_tested: int  # pairs passing stage 1, including skipped stage-2 fits
    p1: int
    p: int
    n: int
    omega: float
    pairs: PairTestResult
    rejected: np.ndarray  # boolean mask aligned with ``pairs``
    stage1_failed: dict[int, str]
    strict: bool

    @property
    def rejections(self) -> int:
        return int(self.rejected.sum())


def alpha_from_rate(alpha1: float, p: int) -> float:
    """Stage-1 threshold alpha = sqrt(alpha1 * log p) (natural log)."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    rate = alpha1 * math.log(p)  # log p > 0: rate >= 0 exactly when alpha1 >= 0
    if not 0.0 <= rate < math.inf:  # NaN too; an infinite alpha would pass no variable
        raise ValueError(f"need alpha1 >= 0 with alpha1 * log p finite, got alpha1={alpha1}, p={p}")
    return math.sqrt(rate)


def _fit_outcome(design, y, family: Family, coef_index: int, weights=None) -> tuple[float, str]:
    """Fit the working GLM, with optional row ``weights`` (counts), and return
    ``(T, "")`` for coefficient ``coef_index``, or ``(nan, code)`` when the
    fit failed or did not converge."""
    try:
        fit = fit_glm(design, y, family, weights)
        if not fit.converged:
            return math.nan, "NOT_CONVERGED"
        return wald_statistic(fit, coef_index), ""
    except (SingularDesign, Separation, DegenerateVariance) as exc:
        return math.nan, exc.code


_WORKER_TASK: tuple = ()  # (func, shared), set in each forked worker


def _init_worker(func, shared) -> None:
    global _WORKER_TASK
    _WORKER_TASK = (func, shared)


def _run_task(item):
    func, shared = _WORKER_TASK
    return func(*shared, item)


def _map_items(func, shared: tuple, items, workers: int) -> list:
    """``[func(*shared, item) for item in items]``, in order.  With ``workers > 1``
    the items go to a fork pool of at most one process per item and per CPU
    this process may run on (its affinity mask, where the platform has one);
    ``shared`` reaches the workers unpickled."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(items), cpus or 1)
    if workers <= 1:
        return [func(*shared, item) for item in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_init_worker, initargs=(func, shared)) as pool:
        return pool.map(_run_task, items)


def stage1_screen(data: Dataset, alpha: float, adjust_in_stage1: bool = False) -> ScreenResult:
    """Fit the marginal model per column; pass indices with |T_j| >= alpha.

    Logistic 0/1 columns without stage-1 adjusters are fitted on 4 rows:
    the cells x = 0, 1 with y = 1 and with y = 0, weighted by their counts
    (0/1 sums from ``x.sum(0)``, ``y @ x`` and ``y.sum()``, exact in
    float64).  The fit depends on the counts alone, so each distinct count
    vector is fitted once, in order of its first column, and its outcome
    goes to every column that has it.  An empty cell (a constant column) is
    SINGULAR_DESIGN and a pure cell (only cases or only controls) is
    SEPARATION, without a fit.  Failed fits are recorded with a status code
    and never pass.  Raises AllFitsFailed when no column could be fitted.
    """
    if not alpha >= 0.0:  # NaN too
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    p = data.p
    adjust = data.adjust if adjust_in_stage1 else None
    if data.family is LOGISTIC and adjust is None and ((data.x == 0.0) | (data.x == 1.0)).all():
        cells, y_cells = build_stage1_design(np.tile([0.0, 1.0], 2)), np.repeat([1.0, 0.0], 2)
        n1, s1 = data.x.sum(axis=0), data.y @ data.x
        counts = np.column_stack([data.n - n1, n1])
        sums = np.column_stack([data.y.sum() - s1, s1])
        keys, first, inverse = np.unique(
            np.hstack([sums, counts - sums]), axis=0, return_index=True, return_inverse=True
        )
        codes, by_key = _cell_codes(keys[:, :2], keys[:, 2:]).tolist(), {}
        for u in np.argsort(first).tolist():
            if codes[u]:
                by_key[u] = (math.nan, codes[u])
            else:
                by_key[u] = _fit_outcome(cells, y_cells, data.family, 1, keys[u])
        outcomes = [by_key[u] for u in inverse.ravel().tolist()]
    else:
        outcomes = [
            _fit_outcome(build_stage1_design(data.x[:, j], adjust), data.y, data.family, 1)
            for j in range(p)
        ]
    t_stats = np.array([t for t, _ in outcomes], dtype=float)
    failed = {j: code for j, (_, code) in enumerate(outcomes) if code}
    if len(failed) == p:
        raise AllFitsFailed("every stage-1 marginal fit failed")
    passing = tuple(j for j in range(p) if j not in failed and abs(t_stats[j]) >= alpha)
    return ScreenResult(t_stats=t_stats, passing=passing, failed=failed)


def _fit_pairs(data: Dataset, idx, pair_response, step: int, pairs) -> tuple:
    """``(t, status)`` for the pairs ``(idx[jj], idx[kk])``, in blocks of ``step``.

    The batched kernel fits a block on one stage-2 design over the block's
    columns laid end to end (``adjust`` repeated per pair), and each pair it
    hands back gets a full fit on its own design.
    """
    jj_all, kk_all = pairs
    t, status = np.full(jj_all.size, np.nan), np.full(jj_all.size, "", dtype=object)
    for lo in range(0, jj_all.size, step):
        jj, kk = jj_all[lo : lo + step], kk_all[lo : lo + step]
        j, k = idx[jj], idx[kk]
        y = pair_response(j, k) if pair_response else np.broadcast_to(data.y, (j.size, data.n))
        adj = None if data.adjust is None else np.tile(data.adjust, (j.size, 1))
        design = build_stage2_design(data.x.T[j].ravel(), data.x.T[k].ravel(), adj).values
        fits = design.reshape(j.size, data.n, -1)
        t[lo : lo + j.size] = _batched_wald(fits, y, data.family, INTERACTION_INDEX)
        for i in np.flatnonzero(np.isnan(t[lo : lo + step])).tolist():
            design = build_stage2_design(data.x[:, j[i]], data.x[:, k[i]], data.adjust)
            t[lo + i], status[lo + i] = _fit_outcome(design, y[i], data.family, INTERACTION_INDEX)
    return t, status


def stage2_tests(
    data: Dataset, screen: ScreenResult, workers: int = 1, pair_response=None
) -> PairTestResult:
    """Interaction Wald statistics for every pair of passing variables.

    Pairs are enumerated lexicographically (j < k).  Logistic pairs of 0/1
    columns without adjusters are decided by their cells (x_j, x_k) = 00,
    10, 01, 11 in one pass, with no fit on rows: ``_cell_codes`` codes a
    pair with an empty or pure cell, and ``_saturated_wald`` gives every
    other pair the T of the exact MLE, within about 1e-8 of the Newton fit.
    Other pairs are fitted in blocks of at most ``_BLOCK_ROWS`` design rows;
    the worker pool maps runs of whole blocks, one run per worker, and the
    result is identical for any worker count and block split.  A failed fit
    leaves T = NaN and its status code.  ``pair_response(j, k)``, if given,
    returns the response rows of a block's pairs (B x n), for ``data.y``.
    """
    _check_workers(workers)
    idx = np.asarray(screen.passing, dtype=int)
    jj, kk = np.triu_indices(idx.size, 1)
    if pair_response is None and data.family is LOGISTIC and data.adjust is None:
        cols = data.x[:, idx]
        if ((cols == 0.0) | (cols == 1.0)).all():
            def cell_sums(gram, total):  # per pair, over its cells 00, 10, 01, 11: 0/1
                # sums (exact in float64), (1, 1) from the Gram matrix, the rest by subtraction
                n11, na, nb = gram[jj, kk], gram[jj, jj], gram[kk, kk]
                return np.column_stack([total - na - nb + n11, na - n11, nb - n11, n11])

            cases = cell_sums((cols * data.y[:, None]).T @ cols, data.y.sum())
            controls = cell_sums(cols.T @ cols, data.n) - cases
            status = _cell_codes(cases, controls)
            t, live = np.full(jj.size, np.nan), status == ""
            cases, controls = cases[live], controls[live]  # frees the full count arrays
            cells = build_stage2_design(np.tile([0.0, 1.0], 2), np.repeat([0.0, 1.0], 2)).values
            t[live] = _saturated_wald(cells, cases, controls, INTERACTION_INDEX)
            return PairTestResult(j=idx[jj], k=idx[kk], t=t, status=status)
    step = max(1, _BLOCK_ROWS // data.n)
    # One run of whole blocks per worker (one empty run if there are no pairs).
    # Looping over its blocks, a worker frees a block's arrays only after it
    # built the next block's, so malloc keeps the pages instead of freeing them.
    run = step * max(1, math.ceil(jj.size / (step * workers)))
    runs = [(jj[lo : lo + run], kk[lo : lo + run]) for lo in range(0, max(jj.size, 1), run)]
    fitted = _map_items(_fit_pairs, (data, idx, pair_response, step), runs, workers)
    t, status = (np.concatenate(parts) for parts in zip(*fitted))
    return PairTestResult(j=idx[jj], k=idx[kk], t=t, status=status)


def _eta_ok(eta) -> bool:  # the range of a target FDR level; NaN is outside it
    return 0.0 < eta < 1.0


def _check_eta(eta) -> None:
    if not _eta_ok(eta):
        raise ValueError(f"eta must be in (0, 1), got {eta}")


def _check_workers(workers) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def fdr_cutoff(pair_stats, m_tested: int, p: int, eta: float) -> float:
    """Exact infimum of the cutoff condition over t in [0, sqrt(2 log p)].

    ``m_tested`` is M, an integer count of at least the number of statistics.
    ``R(t)`` is piecewise constant between order statistics of the absolute
    pair statistics, so each interval is solved in closed form through the
    tail inverse; the first feasible interval yields the infimum.  Levels
    q = eta * max(R, 1) / M <= eta only fall along the search, so past an
    infeasible interval it jumps to the first one ending at or above
    ``G^-1(q) - _JUMP_MARGIN``: a margin far above the inverse's error
    (1.25e-12 in t), which keeps G at a skipped end 8e-10 relative above q,
    far above erfc rounding.  Returns sqrt(2 log p) when the condition is
    nowhere satisfied (including the M = 0 case, which has empty-rejection
    semantics).  So t_hat is never 0, and at least min(G^-1(eta),
    sqrt(2 log p)) up to the inverse's error.  A NaN statistic marks a
    failed fit: it counts in M and never in R(t).
    """
    _check_eta(eta)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    stats = np.abs(np.asarray(pair_stats, dtype=float))
    if not isinstance(m_tested, numbers.Integral) or m_tested < stats.size:
        raise ValueError(f"m_tested={m_tested} must be an integer >= the {stats.size} statistics")
    ranked = np.sort(stats[~np.isnan(stats)])
    t_max = math.sqrt(2.0 * math.log(p))
    if m_tested == 0:
        return t_max
    interior = ranked[(ranked > 0.0) & (ranked < t_max)]
    interior = interior[np.diff(interior, prepend=0.0) > 0.0]  # distinct values
    lowers = np.concatenate(([0.0], interior))
    uppers = np.concatenate((interior, [t_max]))
    above = ranked.size - np.searchsorted(ranked, lowers, side="right")  # |T| > lo
    i = 0
    while i < uppers.size:
        lo, hi, q = float(lowers[i]), float(uppers[i]), eta * max(int(above[i]), 1) / m_tested
        if gauss_two_sided_tail(hi) <= q:
            return max(lo, min(gauss_tail_inverse(q), hi))
        t_skip = gauss_tail_inverse(max(q, 1e-300)) - _JUMP_MARGIN  # 1e-300: its accuracy floor
        i = max(i + 1, int(np.searchsorted(uppers, t_skip)))
    return t_max


def _cutoff_and_reject(t1, alpha: float, pairs: PairTestResult, p: int, eta: float, strict=False):
    """The decision step after the fits: returns ``(p1, t_hat, rejected)``.

    Variables with stage-1 ``|T1| >= alpha`` pass (NaN never does); their
    pairs are tested, ``M = p1 (p1 - 1) / 2``, and ``t_hat`` is the cutoff
    over the tested pairs (a failed fit's NaN T counts in M alone).
    ``rejected`` masks ``pairs``, which may include untested pairs: tested
    and ``|T| >= t_hat`` (``>`` when strict).
    """
    passes = np.abs(t1) >= alpha
    p1 = int(np.count_nonzero(passes))
    tested = passes[pairs.j] & passes[pairs.k]
    abs_t = np.abs(pairs.t)
    t_hat = fdr_cutoff(abs_t[tested], p1 * (p1 - 1) // 2, p, eta)
    return p1, t_hat, tested & (abs_t > t_hat if strict else abs_t >= t_hat)


def run_two_stage(
    data: Dataset,
    alpha1: float,
    eta: float,
    strict_cutoff: bool = False,
    adjust_in_stage1: bool = False,
    workers: int = 1,
) -> FdrReport:
    """Full procedure: screen, pairwise tests, cutoff, rejections.

    ``alpha1 = 0`` is the BH special case (every fitted variable passes).
    """
    alpha = alpha_from_rate(alpha1, data.p)
    _check_eta(eta)  # fdr_cutoff checks it too, but only after every fit
    _check_workers(workers)
    screen = stage1_screen(data, alpha, adjust_in_stage1=adjust_in_stage1)
    pairs = stage2_tests(data, screen, workers=workers)
    p1, t_hat, rejected = _cutoff_and_reject(
        screen.t_stats, alpha, pairs, data.p, eta, strict_cutoff
    )
    return FdrReport(
        t_hat=t_hat,
        eta=float(eta),
        alpha=alpha,
        alpha1=float(alpha1),
        m_tested=p1 * (p1 - 1) // 2,
        p1=p1,
        p=data.p,
        n=data.n,
        omega=efficiency_omega(data.p, p1),
        pairs=pairs,
        rejected=rejected,
        stage1_failed=dict(screen.failed),
        strict=bool(strict_cutoff),
    )

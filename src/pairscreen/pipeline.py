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
from dataclasses import dataclass, field

import numpy as np

from .errors import AllFitsFailed, DegenerateVariance, Separation, SingularDesign
from .glm import (
    LOGISTIC,
    Family,
    _logistic_cell_wald,
    build_stage1_design,
    build_stage2_design,
    fit_glm,
    wald_statistic,
)
from .metrics import efficiency_omega
from .normal import gauss_tail_inverse, gauss_two_sided_tail

__all__ = [
    "Dataset",
    "ScreenResult",
    "PairTestResult",
    "FdrReport",
    "alpha_from_rate",
    "stage1_screen",
    "stage2_tests",
    "fdr_cutoff",
    "run_two_stage",
    "theoretical_cstar",
]

INTERACTION_INDEX = 3  # column of x_j * x_k in the stage-2 design
_PAIR_BLOCK = 8192  # pairs per cell-count block in stage 2


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
        if n < 5 or p < 2:
            raise ValueError(f"need n >= 5 and p >= 2, got n={n}, p={p}")
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
        if self.labels is not None and len(self.labels) != p:
            raise ValueError("labels must match the number of columns")

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
    alpha: float
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
    if alpha1 < 0:
        raise ValueError(f"alpha1 must be >= 0, got {alpha1}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return math.sqrt(alpha1 * math.log(p))


def _fit_outcome(design, y, family: Family, coef_index: int) -> tuple[float, str]:
    """Fit the working GLM and return ``(T, "")`` for coefficient
    ``coef_index``, or ``(nan, code)`` when the fit failed or did not converge."""
    try:
        fit = fit_glm(design, y, family)
        if not fit.converged:
            return math.nan, "NOT_CONVERGED"
        return wald_statistic(fit, coef_index).value, ""
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
    the items go to a fork pool; ``shared`` reaches the workers unpickled."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [func(*shared, item) for item in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_init_worker, initargs=(func, shared)) as pool:
        return pool.map(_run_task, items)


def stage1_screen(data: Dataset, alpha: float, adjust_in_stage1: bool = False) -> ScreenResult:
    """Fit the marginal model per column; pass indices with |T_j| >= alpha.

    Failed fits are recorded with a status code and never pass.  Raises
    AllFitsFailed when no column could be fitted.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    p = data.p
    adjust = data.adjust if adjust_in_stage1 else None
    t_stats = np.full(p, np.nan)
    failed: dict[int, str] = {}
    for j in range(p):
        design = build_stage1_design(data.x[:, j], adjust)
        t_stats[j], code = _fit_outcome(design, data.y, data.family, 1)
        if code:
            failed[j] = code
    if len(failed) == p:
        raise AllFitsFailed("every stage-1 marginal fit failed")
    passing = tuple(j for j in range(p) if j not in failed and abs(t_stats[j]) >= alpha)
    return ScreenResult(t_stats=t_stats, alpha=float(alpha), passing=passing, failed=failed)


def _test_one_pair(x, y, family, adjust, pair):
    j, k = pair
    design = build_stage2_design(x[:, j], x[:, k], adjust)
    return _fit_outcome(design, y, family, INTERACTION_INDEX)


def _cell_pair_stats(data: Dataset, cols: np.ndarray, jj, kk) -> np.ndarray:
    """Interaction T for the pairs (jj, kk) of the 0/1 columns ``cols``,
    fitted from cell counts; NaN where the pair needs a full fit.

    Counts and response sums of the (1, 1) cells come from Gram matrices
    (0/1 sums, exact in float64); the other three cells follow by
    subtraction.  The pairs run in blocks of ``_PAIR_BLOCK``.
    """
    # the stage-2 design of the cells (a, b) = 00, 10, 01, 11
    cells = build_stage2_design(np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    gram = cols.T @ cols
    y_gram = (cols * data.y[:, None]).T @ cols
    n, y_sum = data.n, data.y.sum()
    stats = np.empty(jj.size)
    for lo in range(0, jj.size, _PAIR_BLOCK):
        j, k = jj[lo : lo + _PAIR_BLOCK], kk[lo : lo + _PAIR_BLOCK]
        n11, na, nb = gram[j, k], gram[j, j], gram[k, k]
        s11, sa, sb = y_gram[j, k], y_gram[j, j], y_gram[k, k]
        counts = np.column_stack([n - na - nb + n11, na - n11, nb - n11, n11])
        sums = np.column_stack([y_sum - sa - sb + s11, sa - s11, sb - s11, s11])
        stats[lo : lo + _PAIR_BLOCK] = _logistic_cell_wald(
            counts, sums, cells.values, INTERACTION_INDEX
        )
    return stats


def stage2_tests(data: Dataset, screen: ScreenResult, workers: int = 1) -> PairTestResult:
    """Interaction Wald statistics for every pair of passing variables.

    Pairs are enumerated lexicographically (j < k) and the result is
    identical for any worker count; a failed fit leaves T = NaN and its
    status code.  Logistic pairs of 0/1 columns without adjusters are
    fitted from cell counts; the pairs among them that need a full fit, and
    all other pairs, go to the worker pool.
    """
    idx = np.asarray(screen.passing, dtype=int)
    jj, kk = np.triu_indices(idx.size, 1)
    cols = data.x[:, idx]
    t = np.full(jj.size, np.nan)
    if data.family is LOGISTIC and data.adjust is None and ((cols == 0.0) | (cols == 1.0)).all():
        t = _cell_pair_stats(data, cols, jj, kk)
    status = np.full(jj.size, "", dtype=object)
    todo = np.flatnonzero(np.isnan(t))
    pair_j, pair_k = idx[jj], idx[kk]
    items = list(zip(pair_j[todo].tolist(), pair_k[todo].tolist()))
    shared = (data.x, data.y, data.family, data.adjust)
    fitted = _map_items(_test_one_pair, shared, items, workers)
    for i, (stat, code) in zip(todo.tolist(), fitted):
        t[i], status[i] = stat, code
    return PairTestResult(j=pair_j, k=pair_k, t=t, status=status)


def fdr_cutoff(pair_stats, m_tested: int, p: int, eta: float) -> float:
    """Exact infimum of the cutoff condition over t in [0, sqrt(2 log p)].

    ``R(t)`` is piecewise constant between order statistics of the absolute
    pair statistics, so each interval is solved in closed form through the
    tail inverse; the first feasible interval yields the infimum.  Returns
    sqrt(2 log p) when the condition is nowhere satisfied (including the
    M = 0 case, which has empty-rejection semantics).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    stats = np.abs(np.asarray(pair_stats, dtype=float))
    if m_tested < stats.size:
        raise ValueError(f"m_tested={m_tested} smaller than the number of statistics {stats.size}")
    t_max = math.sqrt(2.0 * math.log(p))
    if m_tested == 0:
        return t_max
    # t = 0 candidate: G(0) = 1 and R(0) counts every statistic.
    if m_tested <= eta * max(stats.size, 1):
        return 0.0
    interior = np.unique(stats)
    interior = interior[(interior > 0.0) & (interior < t_max)]
    lowers = np.concatenate(([0.0], interior))
    uppers = np.concatenate((interior, [t_max]))
    sorted_stats = np.sort(stats)
    for lo, hi in zip(lowers, uppers):
        r = stats.size - int(np.searchsorted(sorted_stats, lo, side="right"))  # |T| > lo
        q = eta * max(r, 1) / m_tested
        if q >= 1.0:
            return float(lo)
        if gauss_two_sided_tail(hi) <= q:
            t_star = gauss_tail_inverse(q)
            return float(max(lo, min(t_star, hi)))
    return t_max


def _cutoff_and_reject(t1, alpha: float, pairs: PairTestResult, p: int, eta: float, strict=False):
    """The decision step after the fits: returns ``(p1, t_hat, rejected)``.

    Variables with stage-1 ``|T1| >= alpha`` pass (NaN never does); their
    pairs are tested, ``M = p1 (p1 - 1) / 2``, and ``t_hat`` is the cutoff
    over the tested pairs whose fits succeeded.  ``rejected`` masks
    ``pairs``, which may include untested pairs: tested and ``|T| >= t_hat``
    (``>`` when strict).
    """
    passes = np.abs(t1) >= alpha
    p1 = int(np.count_nonzero(passes))
    tested = passes[pairs.j] & passes[pairs.k]
    abs_t = np.abs(pairs.t)
    t_hat = fdr_cutoff(abs_t[tested & (pairs.status == "")], p1 * (p1 - 1) // 2, p, eta)
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


def theoretical_cstar(eta: float, a1: int, m_tested: int, p: int) -> float:
    """Power-analysis threshold G^-1(eta * a1 / M) / sqrt(log p)."""
    if a1 <= 0:
        raise ValueError(f"a1 must be positive, got {a1}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    q = eta * a1 / m_tested
    if not 0.0 < q <= 1.0:
        raise ValueError(f"eta * a1 / M must be in (0, 1], got {q}")
    return gauss_tail_inverse(q) / math.sqrt(math.log(p))

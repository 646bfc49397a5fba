"""Seeded data generators and the replicated experiment driver.

One replicate draws a covariate matrix (independent columns or an AR(1)
dependence with rho = 0.5) and a ground truth: per-variable main effects
``beta1[j]`` drawn from {0, b} with probability 1/2, and for each pair of
active mains an interaction coefficient drawn from {0, b} with probability
3/4 of b (hierarchical rule: an interaction requires both mains active).

Responses follow the pairwise construction of the reference experiments:

* the screening stage tests each variable against a response generated
  from the main-effects model ``theta = beta0 + sum_j beta1[j] x_j``;
* each tested pair (j, k) gets its own response drawn from
  ``theta_jk = beta0 + beta1[j] x_j + beta1[k] x_k + beta3[jk] x_j x_k``,
  plus, in the misspecified variant, a foreign main effect
  ``beta4[jk] x_l`` and a foreign product ``beta5[jk] x_u x_v`` with
  l, u, v drawn outside {j, k} and beta4, beta5 from {0, b}.

Randomness comes from Philox (counter-based, 64-bit) streams keyed by
``(seed, substream)``; normal variates use NumPy's ziggurat sampler.
Replicate r of a run with base seed s uses seed s + r.  Each pair response
has its own substream: one Philox, re-keyed per pair, fills the pair's row
of a block's raw draws, which ``_draw_response`` maps to responses at once
(as it does the screening response); results do not depend on the worker
count, the block split or the pair order.  Each replicate screens once, at
the smallest alpha1; ``pipeline.stage2_tests`` fits its passing pairs, asking
``gen_pair_response`` for one block at a time, and every alpha1 masks those fits.
Replicate outcomes and per-cell means are ``MetricsRow``s, one per line of
the metrics CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PairscreenError
from .glm import GAUSSIAN, Family, family_from_name
from .metrics import efficiency_omega, empirical_fdp, empirical_power, mean_and_se
from .pipeline import Dataset, _check_eta, _check_workers, _cutoff_and_reject, _map_items
from .pipeline import alpha_from_rate, stage2_tests
# the benchmark's trace hooks patch these names here
from .glm import build_stage2_design, fit_glm, wald_statistic  # noqa: F401
from .pipeline import fdr_cutoff, stage1_screen  # noqa: F401

__all__ = [
    "SimConfig",
    "SimTruth",
    "MetricsRow",
    "gen_design",
    "gen_truth",
    "gen_response",
    "gen_pair_response",
    "run_replicates",
    "aggregate_rows",
]

_SEED_MASK = (1 << 64) - 1
_STREAM_TRUTH = 0
_STREAM_DESIGN = 1
_STREAM_RESPONSE = 2
_STREAM_PAIR_BASE = 1 << 32  # pair (j, k) uses substream base + j*p + k

_LOGIT_CLAMP = 35.0  # |theta| beyond this saturates the sigmoid numerically
_RHO = 0.5  # AR(1) correlation of neighbouring columns
_NOISE_SD = 1.0  # gaussian response noise
_MAIN_PROB = 0.5  # chance that a candidate variable has a main effect
_INTERACTION_PROB = 0.75  # chance that a pair of active mains interacts


@dataclass(frozen=True)
class SimConfig:
    """One experiment cell; seeds fully determine every generated array."""

    n: int
    p: int
    family: str  # "gaussian" or "logistic"
    b: float
    seed: int
    misspecified: bool = False
    cov_kind: str = "identity"  # or "ar1"
    beta0: float | None = None  # default: -1 gaussian, -2 logistic
    active_limit: int | None = None  # optional cap on the main-effect candidate pool

    def __post_init__(self):
        if self.n < 5 or self.p < 2:
            raise ValueError(f"need n >= 5 and p >= 2, got n={self.n}, p={self.p}")
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ValueError(f"b must be a finite number >= 0, got {self.b}")
        if self.beta0 is not None and not math.isfinite(self.beta0):
            raise ValueError(f"beta0 must be finite, got {self.beta0}")
        if self.cov_kind not in ("identity", "ar1"):
            raise ValueError(f"cov_kind must be 'identity' or 'ar1', got {self.cov_kind!r}")
        if self.misspecified and self.p < 3:
            raise ValueError("misspecified runs need p >= 3 (foreign variables l, u, v)")
        if self.active_limit is not None and self.active_limit < 0:
            raise ValueError(f"active_limit must be >= 0, got {self.active_limit}")
        family_from_name(self.family)  # raises on unknown names

    @property
    def intercept(self) -> float:
        if self.beta0 is not None:
            return self.beta0
        return -1.0 if family_from_name(self.family) is GAUSSIAN else -2.0


@dataclass(frozen=True)
class SimTruth:
    """Ground truth for one replicate.  The pair fields are p x p arrays
    indexed by ``(j, k)`` with ``j < k``; entries with ``j >= k`` are zero.

    ``beta3`` holds the drawn interaction coefficients (zero unless both
    mains are active) and ``h1`` marks the pairs where it is nonzero.
    ``extra_vars[j, k]`` are the foreign variables (l, u, v) and
    ``extra_coef[j, k]`` the coefficients (beta4, beta5) of the
    misspecified variant; ``extra_coef`` is zero otherwise.
    """

    beta1: np.ndarray  # entries in {0, b}
    beta3: np.ndarray  # (p, p)
    h1: np.ndarray  # (p, p) bool
    extra_vars: np.ndarray  # (p, p, 3) int
    extra_coef: np.ndarray  # (p, p, 2)
    candidates: tuple[int, ...]


def _stream(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, tag & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gen_design(config: SimConfig) -> np.ndarray:
    """n x p draws: i.i.d. N(0, I) columns, or the exact AR(1) recursion
    X_1 = Z_1, X_j = rho X_{j-1} + sqrt(1 - rho^2) Z_j (unit variances,
    corr(X_j, X_k) = rho^|j-k|)."""
    rng = _stream(config.seed, _STREAM_DESIGN)
    z = rng.standard_normal((config.n, config.p))
    if config.cov_kind == "identity":
        return z
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - _RHO**2)
    for j in range(1, config.p):
        x[:, j] = _RHO * x[:, j - 1] + scale * z[:, j]
    return x


def gen_truth(config: SimConfig) -> SimTruth:
    """Draw main effects (b with probability 1/2 over the candidate pool,
    else 0), hierarchical interactions among pairs of active mains (b with
    probability 3/4), and misspecification extras."""
    rng = _stream(config.seed, _STREAM_TRUTH)
    p, b = config.p, config.b
    limit = config.active_limit
    if limit is not None and limit < p:
        candidates = tuple(sorted(int(i) for i in rng.permutation(p)[:limit]))
    else:
        candidates = tuple(range(p))
    active_flags = rng.random(len(candidates)) < _MAIN_PROB
    actives = np.array(candidates, dtype=int)[active_flags]
    beta1 = np.zeros(p)
    beta1[actives] = b

    beta3 = np.zeros((p, p))
    for a, j in enumerate(actives):
        draws = rng.random(actives.size - a - 1) < _INTERACTION_PROB
        beta3[j, actives[a + 1 :]] = np.where(draws, b, 0.0)

    extra_vars = np.zeros((p, p, 3), dtype=int)
    extra_coef = np.zeros((p, p, 2))
    if config.misspecified:
        for j in range(p - 1):
            k = np.arange(j + 1, p)
            luv = rng.integers(0, p - 2, size=3 * k.size).reshape(-1, 3)
            coef_draws = rng.random(2 * k.size).reshape(-1, 2) < 0.5
            # shift past j and k to land outside the tested pair
            luv = luv + (luv >= j)
            extra_vars[j, j + 1 :] = luv + (luv >= k[:, None])
            extra_coef[j, j + 1 :] = np.where(coef_draws, b, 0.0)

    return SimTruth(
        beta1=beta1,
        beta3=beta3,
        h1=beta3 != 0.0,
        extra_vars=extra_vars,
        extra_coef=extra_coef,
        candidates=candidates,
    )


def _draw_response(theta: np.ndarray, family: Family, rngs) -> np.ndarray:
    """Responses for the rows of ``theta`` (B x n), row i drawn from the i-th of
    ``rngs``: theta + sd * z for z ~ N(0, 1), or u < sigmoid(theta) for u ~ U[0, 1)."""
    draw = np.random.Generator.standard_normal if family is GAUSSIAN else np.random.Generator.random
    z = np.empty_like(theta)
    for row, rng in zip(z, rngs):
        draw(rng, out=row)
    if family is GAUSSIAN:
        return theta + _NOISE_SD * z
    return (z < 1.0 / (1.0 + np.exp(-np.clip(theta, -_LOGIT_CLAMP, _LOGIT_CLAMP)))).astype(float)


def gen_response(design: np.ndarray, truth: SimTruth, config: SimConfig) -> np.ndarray:
    """Screening-stage response from the main-effects model
    theta = beta0 + X @ beta1 (gaussian noise or Bernoulli draw)."""
    rng = _stream(config.seed, _STREAM_RESPONSE)
    theta = config.intercept + design @ truth.beta1
    return _draw_response(theta[None], family_from_name(config.family), [rng])[0]


def gen_pair_response(design: np.ndarray, truth: SimTruth, config: SimConfig, j, k) -> np.ndarray:
    """Responses from theta_jk, extras included, for the pairs ``(j[i], k[i])``
    of the index arrays j, k: one row per pair, each from its own substream
    through one Philox re-keyed per pair, so a row does not depend on the block;
    the draws fill one B x n array, mapped to responses at once."""
    jj, kk = np.asarray(j), np.asarray(k)
    if jj.shape != kk.shape or jj.ndim != 1 or not ((0 <= jj) & (jj < kk) & (kk < config.p)).all():
        raise ValueError(f"pairs must be index vectors with 0 <= j < k < p = {config.p}")
    x = design.T
    theta = (config.intercept + truth.beta1[jj, None] * x[jj]) + truth.beta1[kk, None] * x[kk]
    theta = theta + truth.beta3[jj, kk, None] * x[jj] * x[kk]
    (l, u, v), (b4, b5) = truth.extra_vars[jj, kk].T, truth.extra_coef[jj, kk].T[..., None]
    theta = np.where(b4 != 0.0, theta + b4 * x[l], theta)  # bitwise as if skipped
    theta = np.where(b5 != 0.0, theta + b5 * x[u] * x[v], theta)

    key = np.array([config.seed & _SEED_MASK, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key}, "buffer": zero,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}  # counter 0, empty buffer
    rng = np.random.Generator(np.random.Philox(key=key))

    def rekeyed():
        for tag in (_STREAM_PAIR_BASE + jj * config.p + kk).tolist():
            key[1] = tag & _SEED_MASK
            rng.bit_generator.state = state  # the setter copies: a fresh stream per pair
            yield rng
    return _draw_response(theta, family_from_name(config.family), rekeyed())


@dataclass(frozen=True, kw_only=True)
class MetricsRow:
    """One line of the metrics CSV; the fields are its columns, in their order.

    A replicate row has ``rep = r`` and that replicate's seed; a failed
    replicate has None metrics and its ``error`` code, and ``power`` is None
    when H1 was empty.  A mean row has ``rep = "mean"`` and the base seed, and
    holds the means and Monte-Carlo SEs over the successful replicates of one
    (b, alpha1) cell; its metrics are None when every replicate failed.  The
    SE and count fields are None on replicate rows.
    """

    alpha1: float
    b: float
    rep: int | str
    fdp: float | None = None
    power: float | None = None
    omega: float | None = None
    p1: float | None = None
    t_hat: float | None = None
    rejections: float | None = None
    seed: int
    error: str | None = None
    fdp_se: float | None = None
    power_se: float | None = None
    power_reps: int | None = None
    failed_reps: int | None = None


def _run_one_replicate(config: SimConfig, alphas: dict, eta: float, rep: int) -> list[MetricsRow]:
    cfg = replace(config, seed=config.seed + rep)
    family = family_from_name(cfg.family)
    truth = gen_truth(cfg)
    design = gen_design(cfg)
    y_screen = gen_response(design, truth, cfg)
    data = Dataset(x=design, y=y_screen, family=family)
    # Pair statistics do not depend on alpha1 (each pair response has its
    # own substream), so one screen at the smallest alpha passes the widest
    # set, whose pairs are fitted once and masked for every alpha1.
    try:
        screen = stage1_screen(data, min(alphas.values()))
    except PairscreenError as exc:
        return [
            MetricsRow(alpha1=a1, b=cfg.b, rep=rep, seed=cfg.seed, error=exc.code)
            for a1 in alphas
        ]

    pairs = stage2_tests(
        data, screen, pair_response=lambda j, k: gen_pair_response(design, truth, cfg, j, k)
    )
    rows: list[MetricsRow] = []
    for alpha1, alpha in alphas.items():
        p1, t_hat, hit = _cutoff_and_reject(screen.t_stats, alpha, pairs, cfg.p, eta)
        rejected = np.zeros_like(truth.h1)
        rejected[pairs.j[hit], pairs.k[hit]] = True
        rows.append(
            MetricsRow(
                alpha1=alpha1,
                b=cfg.b,
                rep=rep,
                seed=cfg.seed,
                fdp=empirical_fdp(rejected, truth.h1),
                power=empirical_power(rejected, truth.h1) if truth.h1.any() else None,
                omega=efficiency_omega(cfg.p, p1),
                p1=p1,
                t_hat=t_hat,
                rejections=int(np.count_nonzero(hit)),
            )
        )
    return rows


def run_replicates(
    config: SimConfig,
    alpha1_list,
    eta: float,
    reps: int,
    workers: int = 1,
) -> list[MetricsRow]:
    """Run ``reps`` seeded replicates, analyzing each at every alpha1.

    Replicate r uses seed config.seed + r, so output is identical for any
    worker count.  alpha1 = 0 in the list is the BH baseline; the rates must
    be distinct.  Rows come back ordered by (rep, alpha1 position).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    alpha1_list = list(alpha1_list)
    alphas = {alpha1: alpha_from_rate(alpha1, config.p) for alpha1 in alpha1_list}
    if not alphas or len(alphas) < len(alpha1_list):  # a repeated alpha1 would merge its cells
        raise ValueError(f"alpha1_list must be nonempty and distinct, got {alpha1_list}")
    _check_eta(eta)
    _check_workers(workers)
    per_rep = _map_items(_run_one_replicate, (config, alphas, eta), range(reps), workers)
    return [row for rep_rows in per_rep for row in rep_rows]


def aggregate_rows(rows: list[MetricsRow]) -> list[MetricsRow]:
    """Summarize per-(b, alpha1) means and Monte-Carlo SEs, in order of
    first appearance.

    Replicates whose analysis failed are excluded and counted; replicates
    with empty H1 contribute to everything except the power mean.  A cell
    whose replicates all failed gets a row of None metrics.
    """
    cells: dict[tuple[float, float], list[MetricsRow]] = {}
    for row in rows:
        cells.setdefault((row.b, row.alpha1), []).append(row)

    out = []
    for (b, alpha1), cell in cells.items():
        good = [r for r in cell if r.error is None]
        fdp, fdp_se = mean_and_se([r.fdp for r in good])
        powers = [r.power for r in good if r.power is not None]
        power, power_se = mean_and_se(powers)
        out.append(
            MetricsRow(
                alpha1=alpha1,
                b=b,
                rep="mean",
                seed=cell[0].seed - cell[0].rep,  # replicate r runs at seed + r
                fdp=fdp,
                fdp_se=fdp_se,
                power=power,
                power_se=power_se,
                power_reps=len(powers),
                omega=mean_and_se([r.omega for r in good])[0],
                p1=mean_and_se([r.p1 for r in good])[0],
                t_hat=mean_and_se([r.t_hat for r in good])[0],
                rejections=mean_and_se([r.rejections for r in good])[0],
                failed_reps=len(cell) - len(good),
            )
        )
    return out

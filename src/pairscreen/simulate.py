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
Replicate r of a run with base seed s uses seed s + r, and every pair
response has its own substream, which makes results independent of worker
scheduling and of the order in which pairs are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PairscreenError
from .glm import GAUSSIAN, family_from_name
from .metrics import ReplicateMetrics, efficiency_omega, empirical_fdp, empirical_power, mean_and_se
from .pipeline import Dataset, PairTestResult, _cutoff_and_reject, _map_items, _test_one_pair
from .pipeline import alpha_from_rate
# the benchmark's trace hooks patch these names here
from .glm import build_stage2_design, fit_glm, wald_statistic  # noqa: F401
from .pipeline import fdr_cutoff, stage1_screen  # noqa: F401

__all__ = [
    "SimConfig",
    "SimTruth",
    "ReplicateRow",
    "AggregateRow",
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
        if self.b < 0:
            raise ValueError(f"b must be >= 0, got {self.b}")
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


def _draw_response(theta: np.ndarray, config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    if family_from_name(config.family) is GAUSSIAN:
        return theta + _NOISE_SD * rng.standard_normal(theta.size)
    clipped = np.clip(theta, -_LOGIT_CLAMP, _LOGIT_CLAMP)
    prob = 1.0 / (1.0 + np.exp(-clipped))
    return (rng.random(theta.size) < prob).astype(float)


def gen_response(design: np.ndarray, truth: SimTruth, config: SimConfig) -> np.ndarray:
    """Screening-stage response from the main-effects model
    theta = beta0 + X @ beta1 (gaussian noise or Bernoulli draw)."""
    rng = _stream(config.seed, _STREAM_RESPONSE)
    theta = config.intercept + design @ truth.beta1
    return _draw_response(theta, config, rng)


def pair_predictor(design: np.ndarray, truth: SimTruth, config: SimConfig, j: int, k: int):
    """theta_jk for one tested pair, including misspecification extras."""
    if not j < k:
        raise ValueError(f"pair must satisfy j < k, got ({j}, {k})")
    theta = (
        config.intercept
        + truth.beta1[j] * design[:, j]
        + truth.beta1[k] * design[:, k]
        + truth.beta3[j, k] * design[:, j] * design[:, k]
    )
    (l, u, v), (b4, b5) = truth.extra_vars[j, k], truth.extra_coef[j, k]
    if b4 != 0.0:
        theta = theta + b4 * design[:, l]
    if b5 != 0.0:
        theta = theta + b5 * design[:, u] * design[:, v]
    return theta


def gen_pair_response(
    design: np.ndarray, truth: SimTruth, config: SimConfig, j: int, k: int
) -> np.ndarray:
    """Response for the pair (j, k) from its own substream; identical for
    any evaluation order or worker schedule."""
    rng = _stream(config.seed, _STREAM_PAIR_BASE + j * config.p + k)
    return _draw_response(pair_predictor(design, truth, config, j, k), config, rng)


@dataclass(frozen=True)
class ReplicateRow:
    """One (alpha1, replicate) outcome; ``error`` is set when the run failed."""

    alpha1: float
    rep: int
    seed: int
    metrics: ReplicateMetrics | None
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    """Mean/SE summary over the successful replicates of one alpha1 cell."""

    alpha1: float
    reps: int
    failed: int
    fdp_mean: float
    fdp_se: float
    power_mean: float | None
    power_se: float | None
    power_reps: int
    omega_mean: float
    p1_mean: float
    t_hat_mean: float
    rejections_mean: float


def _run_one_replicate(config: SimConfig, alpha1_list, eta: float, rep: int) -> list[ReplicateRow]:
    cfg = replace(config, seed=config.seed + rep)
    family = family_from_name(cfg.family)
    truth = gen_truth(cfg)
    design = gen_design(cfg)
    y_screen = gen_response(design, truth, cfg)
    try:
        screen = stage1_screen(Dataset(x=design, y=y_screen, family=family), 0.0)
    except PairscreenError as exc:
        return [
            ReplicateRow(alpha1=a1, rep=rep, seed=cfg.seed, metrics=None, error=exc.code)
            for a1 in alpha1_list
        ]

    # Pair statistics do not depend on alpha1 (each pair response has its
    # own substream), so the pairs of the widest passing set, the one at the
    # smallest alpha1, are fitted once and masked for every alpha1.
    alphas = [alpha_from_rate(alpha1, cfg.p) for alpha1 in alpha1_list]
    wide = np.flatnonzero(np.abs(screen.t_stats) >= min(alphas))
    jj, kk = np.triu_indices(wide.size, 1)
    pairs = PairTestResult(
        j=wide[jj], k=wide[kk], t=np.full(jj.size, np.nan), status=np.full(jj.size, "", object)
    )
    for i, (j, k) in enumerate(zip(pairs.j.tolist(), pairs.k.tolist())):
        y_jk = gen_pair_response(design, truth, cfg, j, k)
        pairs.t[i], pairs.status[i] = _test_one_pair(design, y_jk, family, None, (j, k))
    rows: list[ReplicateRow] = []
    for alpha1, alpha in zip(alpha1_list, alphas):
        p1, t_hat, hit = _cutoff_and_reject(screen.t_stats, alpha, pairs, cfg.p, eta)
        rejected = np.zeros_like(truth.h1)
        rejected[pairs.j[hit], pairs.k[hit]] = True
        metrics = ReplicateMetrics(
            fdp=empirical_fdp(rejected, truth.h1),
            power=empirical_power(rejected, truth.h1) if truth.h1.any() else None,
            omega=efficiency_omega(cfg.p, p1),
            p1=p1,
            t_hat=t_hat,
            rejections=int(np.count_nonzero(hit)),
        )
        rows.append(ReplicateRow(alpha1=alpha1, rep=rep, seed=cfg.seed, metrics=metrics))
    return rows


def run_replicates(
    config: SimConfig,
    alpha1_list,
    eta: float,
    reps: int,
    workers: int = 1,
) -> list[ReplicateRow]:
    """Run ``reps`` seeded replicates, analyzing each at every alpha1.

    Replicate r uses seed config.seed + r, so output is identical for any
    worker count.  alpha1 = 0 in the list is the BH baseline.  Rows come
    back ordered by (rep, alpha1 position).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    alpha1_list = list(alpha1_list)
    if not alpha1_list:
        raise ValueError("alpha1_list must be nonempty")
    per_rep = _map_items(_run_one_replicate, (config, alpha1_list, eta), range(reps), workers)
    return [row for rep_rows in per_rep for row in rep_rows]


def aggregate_rows(rows: list[ReplicateRow]) -> list[AggregateRow]:
    """Summarize per-alpha1 means and Monte-Carlo SEs.

    Replicates whose analysis failed are excluded and counted; replicates
    with empty H1 contribute to everything except the power mean.
    """
    by_alpha: dict[float, list[ReplicateRow]] = {}
    order: list[float] = []
    for row in rows:
        if row.alpha1 not in by_alpha:
            by_alpha[row.alpha1] = []
            order.append(row.alpha1)
        by_alpha[row.alpha1].append(row)

    out = []
    for alpha1 in order:
        cell = by_alpha[alpha1]
        good = [r.metrics for r in cell if r.metrics is not None]
        failed = len(cell) - len(good)
        if not good:
            raise PairscreenError(f"all replicates failed for alpha1={alpha1}")
        fdp_mean, fdp_se = mean_and_se([m.fdp for m in good])
        powers = [m.power for m in good if m.power is not None]
        power_mean, power_se = mean_and_se(powers) if powers else (None, None)
        out.append(
            AggregateRow(
                alpha1=alpha1,
                reps=len(good),
                failed=failed,
                fdp_mean=fdp_mean,
                fdp_se=fdp_se,
                power_mean=power_mean,
                power_se=power_se,
                power_reps=len(powers),
                omega_mean=mean_and_se([m.omega for m in good])[0],
                p1_mean=mean_and_se([m.p1 for m in good])[0],
                t_hat_mean=mean_and_se([m.t_hat for m in good])[0],
                rejections_mean=mean_and_se([m.rejections for m in good])[0],
            )
        )
    return out

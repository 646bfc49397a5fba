"""Small-dimension working GLMs with robust sandwich covariance.

Fits the one- and two-variable working models by maximum likelihood under a
canonical link, computes the misspecification-robust sandwich covariance
A^-1 B A^-1 (A the averaged Hessian, B the averaged squared score), and
turns a designated coefficient into a sqrt(n)-scaled Wald statistic.

Only the two families used by the testing procedure are provided:
gaussian with identity link and Bernoulli with logit link.  The gaussian
dispersion never needs to be estimated because the B matrix uses raw
squared residuals, so it cancels from every Wald statistic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, Separation, SingularDesign

__all__ = [
    "GAUSSIAN",
    "LOGISTIC",
    "build_stage1_design",
    "build_stage2_design",
    "fit_glm",
    "wald_statistic",
]

_RANK_TOL = 1e-10  # singular-value ratio below which a design is singular
_SEPARATION_BOUND = 30.0  # |beta| beyond this means fitted probs are 0/1
# The convergence contract is a score norm <= 1e-8; iteration targets two
# more digits so Wald statistics stay stable under covariate rescaling.
_SCORE_CONTRACT = 1e-8
_SCORE_TARGET = 1e-10
_MAX_ITER = 100
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class Family:
    """Canonical-link exponential-family pieces b, b', b''.

    ``variance_from_mean`` gives b'' in terms of the mean; ``binary``
    restricts responses to {0, 1}.  The two instances GAUSSIAN and LOGISTIC
    are the only families, so code tests them by identity.
    """

    name: str
    short_name: str
    cumulant: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    variance_from_mean: Callable[[np.ndarray], np.ndarray]
    binary: bool

    def validate_response(self, y: np.ndarray) -> None:
        if self.binary and not np.isin(y, (0.0, 1.0)).all():
            raise ValueError(f"{self.name} requires responses in {{0, 1}}")

    def __reduce__(self):
        # unpickle to the same instance, so identity tests keep working
        return family_from_name, (self.name,)


GAUSSIAN = Family(
    name="gaussian_identity",
    short_name="gaussian",
    cumulant=lambda theta: 0.5 * theta * theta,
    mean=lambda theta: theta,
    variance_from_mean=np.ones_like,
    binary=False,
)
LOGISTIC = Family(
    name="bernoulli_logit",
    short_name="logistic",
    cumulant=lambda theta: np.logaddexp(0.0, theta),  # log(1 + e^theta), overflow-safe
    # sigmoid(x) = (1 + tanh(x/2)) / 2: saturates cleanly at both ends
    mean=lambda theta: 0.5 * (1.0 + np.tanh(0.5 * theta)),
    variance_from_mean=lambda mu: mu * (1.0 - mu),
    binary=True,
)


def family_from_name(name: str) -> Family:
    for family in (GAUSSIAN, LOGISTIC):
        if name in (family.name, family.short_name):
            return family
    raise ValueError(f"unknown family {name!r}; expected gaussian or logistic")


@dataclass(frozen=True)
class DesignMatrix:
    """Dense, finite, nonempty n x d design; first column is the intercept
    when built by the stage builders."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[1] < 1 or v.shape[0] < 1:
            raise ValueError(f"design must be a nonempty n x d matrix, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("design entries must be finite")


@dataclass(frozen=True)
class GlmFit:
    """Fitted working model: coefficients, sandwich covariance, diagnostics.

    ``model_cov`` is the unit-dispersion model-based covariance A^-1; the
    ratio sandwich/model diagonal is scale free and exposes numerically
    perfect fits (zero-residual B matrices).
    """

    beta_hat: np.ndarray
    sandwich_cov: np.ndarray
    model_cov: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    n: int


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")
    return arr


def _design(cols: list, adjust) -> DesignMatrix:
    """Stack the columns, then append the columns of ``adjust`` (n or n x q)."""
    if adjust is not None:
        n = cols[0].size
        adj = np.asarray(adjust, dtype=float)
        if adj.ndim == 1:
            adj = adj[:, None]
        if adj.shape[0] != n:
            raise ValueError(f"adjust rows {adj.shape[0]} do not match n={n}")
        if not np.isfinite(adj).all():
            raise ValueError("adjust entries must be finite")
        cols = cols + list(adj.T)
    return DesignMatrix(np.column_stack(cols))


def build_stage1_design(x_col, adjust=None) -> DesignMatrix:
    """Design (1, x, adjust...) for the marginal main-effect model."""
    x = _as_vector(x_col, "x_col")
    if x.size < 2:
        raise ValueError("stage-1 design needs at least 2 observations")
    return _design([np.ones(x.size), x], adjust)


def build_stage2_design(x_j, x_k, adjust=None) -> DesignMatrix:
    """Design (1, x_j, x_k, x_j*x_k, adjust...); interaction is column 3."""
    xj = _as_vector(x_j, "x_j")
    xk = _as_vector(x_k, "x_k")
    if xj.size != xk.size:
        raise ValueError(f"length mismatch: {xj.size} vs {xk.size}")
    return _design([np.ones(xj.size), xj, xk, xj * xk], adjust)


def _check_rank(values: np.ndarray) -> None:
    sv = np.linalg.svd(values, compute_uv=False)
    if sv[0] <= 0.0 or sv[-1] / sv[0] < _RANK_TOL:
        raise SingularDesign(
            f"rank-deficient design (singular-value ratio {sv[-1] / max(sv[0], 1e-300):.2e})"
        )


def _chol_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs via Cholesky; SingularDesign if not PD."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise SingularDesign("Cholesky factorization failed") from None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def _working_loglik(family: Family, theta: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(y * theta - family.cumulant(theta)))


def fit_glm(design: DesignMatrix, y, family: Family) -> GlmFit:
    """Maximize the working log-likelihood sum(y*theta - b(theta)) over beta.

    Gaussian-identity fits are the closed-form normal-equations solution;
    logistic fits use Newton-Raphson with step-halving from beta = 0.  The
    returned fit carries the sandwich covariance.

    Raises SingularDesign for rank-deficient designs and Separation when a
    logistic iterate leaves the |beta| <= 30 box or the converged fit
    classifies every observation to within 1e-6 (the score criterion fires
    around |theta| ~ 19 on separated unit-scale data, before the box
    bound, and the Wald statistic is equally meaningless there).
    """
    X = design.values
    yv = _as_vector(y, "y")
    n, d = X.shape
    if yv.size != n:
        raise ValueError(f"response length {yv.size} does not match n={n}")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    family.validate_response(yv)
    _check_rank(X)

    if family is GAUSSIAN:
        beta = _chol_solve(X.T @ X, X.T @ yv)
        mu = X @ beta
        resid = yv - mu
        score = X.T @ resid / n
        fit_iters, converged = 0, True
    else:
        beta = np.zeros(d)
        theta = X @ beta
        ll = _working_loglik(family, theta, yv)
        mu = family.mean(theta)
        resid = yv - mu
        score = X.T @ resid / n
        fit_iters = 0
        while np.max(np.abs(score)) > _SCORE_TARGET and fit_iters < _MAX_ITER:
            w = family.variance_from_mean(mu)
            hess = (X.T * w) @ X / n
            step = _chol_solve(hess, score)
            # Halve until the working log-likelihood does not decrease
            # (allowing float-noise-level wiggle so steps near the optimum,
            # where ll changes fall below machine precision, still land).
            # After _MAX_HALVINGS rejected tries the next halving is taken as is.
            noise = 1e-12 * (1.0 + abs(ll))
            scale = 1.0
            for halving in range(_MAX_HALVINGS + 1):
                cand = beta + scale * step
                theta = X @ cand
                cand_ll = _working_loglik(family, theta, yv)
                if cand_ll >= ll - noise or halving == _MAX_HALVINGS:
                    break
                scale *= 0.5
            beta, ll = cand, cand_ll
            if np.max(np.abs(beta)) > _SEPARATION_BOUND:
                raise Separation(
                    f"|beta| exceeded {_SEPARATION_BOUND} during iteration "
                    "(fitted probabilities numerically 0/1)"
                )
            mu = family.mean(theta)
            resid = yv - mu
            score = X.T @ resid / n
            fit_iters += 1
        converged = bool(np.max(np.abs(score)) <= _SCORE_CONTRACT)
        if converged and np.max(np.abs(resid)) < 1e-6:
            raise Separation("fit classifies every observation to within 1e-6")

    cov, model_cov = _sandwich_and_model_cov(X, resid, family.variance_from_mean(mu))
    return GlmFit(
        beta_hat=beta,
        sandwich_cov=cov,
        model_cov=model_cov,
        converged=converged,
        iterations=fit_iters,
        grad_norm=float(np.max(np.abs(score))),
        n=n,
    )


def _sandwich_and_model_cov(X, resid, w):
    """A^-1 B A^-1 and A^-1, with A = mean(w x x^T) for the variance weights
    ``w = b''(theta)`` and B = mean(resid^2 x x^T)."""
    n = X.shape[0]
    a_mat = (X.T * w) @ X / n
    b_mat = (X.T * resid**2) @ X / n
    try:
        chol = np.linalg.cholesky(a_mat)
    except np.linalg.LinAlgError:
        raise SingularDesign("averaged Hessian is not positive definite") from None
    a_inv = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(X.shape[1])))
    cov = a_inv @ b_mat @ a_inv
    return (cov + cov.T) / 2.0, (a_inv + a_inv.T) / 2.0


def wald_statistic(fit: GlmFit, coef_index: int) -> float:
    """T = sqrt(n) * beta[idx] / sqrt(sandwich[idx, idx]).

    Raises DegenerateVariance when the diagonal entry is <= 0, non-finite,
    or vanishingly small relative to the model-based diagonal, which is the
    floating-point signature of a zero-residual (perfect) fit.
    """
    d = fit.beta_hat.size
    if not 0 <= coef_index < d:
        raise ValueError(f"coef_index {coef_index} out of range for d={d}")
    var = float(fit.sandwich_cov[coef_index, coef_index])
    if not np.isfinite(var) or var <= 0.0:
        raise DegenerateVariance(f"sandwich diagonal entry {var!r} at index {coef_index}")
    if var < 1e-24 * float(fit.model_cov[coef_index, coef_index]):
        raise DegenerateVariance(
            f"sandwich diagonal at index {coef_index} is numerically zero (perfect fit)"
        )
    value = float(np.sqrt(fit.n) * fit.beta_hat[coef_index] / var**0.5)
    if not np.isfinite(value):
        raise DegenerateVariance(f"non-finite Wald statistic at index {coef_index}")
    return value


def _cell_loglik(theta, counts, sums, n):
    return (sums * theta - counts * LOGISTIC.cumulant(theta)).sum(axis=1) / n


def _cell_score(mu, counts, sums, cells, n):
    return np.max(np.abs((sums - counts * mu) @ cells), axis=1) / n


def _logistic_cell_wald(counts, sums, cells: np.ndarray, coef_index: int) -> np.ndarray:
    """Logistic Wald statistics of many saturated working fits at once.

    Row i of ``counts`` and ``sums`` describes one fit: the number of
    observations and the response sum in each cell, a cell being one row of
    the invertible d x d matrix ``cells`` (a design built on the d distinct
    covariate rows).  A design whose rows are all cells of ``cells`` is
    saturated: the likelihood depends on the data only through the cell
    counts, and fit_glm's Newton step in beta = cells^-1 theta is the step
    theta_c += (p_c - mu_c) / (mu_c (1 - mu_c)) with p_c = sums_c / counts_c.
    This replays fit_glm's logistic rules on the cells: start at beta = 0,
    the score stopping rule, the log-likelihood acceptance test, the
    |beta| box, and wald_statistic's degeneracy tests on the sandwich.

    Returns the sqrt(n)-scaled T of coefficient ``coef_index`` for each row,
    or NaN where fit_glm would need a rule not replayed here: an empty cell
    (rank test), a pure cell (separation), a full step that fails the
    acceptance test (step halving), an iterate outside the box, no
    convergence, or a degenerate variance.  The caller fits those rows with
    fit_glm.  With every cell mixed, fit_glm's other tests cannot fire: the
    design's singular-value ratio is of order n^-1/2, and some residual is
    at least 1/2.
    """
    counts = np.asarray(counts, dtype=float)
    sums = np.asarray(sums, dtype=float)
    inv = np.linalg.inv(cells)
    stats = np.full(counts.shape[0], np.nan)
    # an empty or pure cell needs fit_glm's rank or separation rules
    live = np.flatnonzero(((sums > 0.0) & (sums < counts)).all(axis=1))
    nc, sc = counts[live], sums[live]
    n = nc.sum(axis=1)
    phat = sc / nc
    theta = np.zeros_like(nc)
    mu = LOGISTIC.mean(theta)
    ll = _cell_loglik(theta, nc, sc, n)
    score = _cell_score(mu, nc, sc, cells, n)
    ok = np.ones(live.size, dtype=bool)
    active = np.flatnonzero(score > _SCORE_TARGET)
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        m = mu[active]
        cand = theta[active] + (phat[active] - m) / LOGISTIC.variance_from_mean(m)
        cand_ll = _cell_loglik(cand, nc[active], sc[active], n[active])
        full = cand_ll >= ll[active] - 1e-12 * (1.0 + np.abs(ll[active]))
        keep = full & (np.max(np.abs(cand @ inv.T), axis=1) <= _SEPARATION_BOUND)
        ok[active[~keep]] = False
        active, cand = active[keep], cand[keep]
        theta[active] = cand
        mu[active] = LOGISTIC.mean(cand)
        ll[active] = cand_ll[keep]
        score[active] = _cell_score(mu[active], nc[active], sc[active], cells, n[active])
        active = active[score[active] > _SCORE_TARGET]
    ok &= score <= _SCORE_CONTRACT

    # Sandwich A^-1 B A^-1 with diagonal cell-space A and B:
    # var(beta_k) = sum_c inv[k, c]^2 B_cc / A_cc^2.
    a_cell = nc * LOGISTIC.variance_from_mean(mu) / n[:, None]
    b_cell = (sc * (1.0 - mu) ** 2 + (nc - sc) * mu**2) / n[:, None]
    weight = inv[coef_index] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        var = (weight * b_cell / a_cell**2).sum(axis=1)
        model_var = (weight / a_cell).sum(axis=1)
        stat = np.sqrt(n) * (theta @ inv[coef_index]) / np.sqrt(var)
    ok &= np.isfinite(var) & (var > 0.0) & (var >= 1e-24 * model_var) & np.isfinite(stat)
    stats[live[ok]] = stat[ok]
    return stats

"""Small-dimension working GLMs with robust sandwich covariance.

Fits the one- and two-variable working models by maximum likelihood under a
canonical link, computes the misspecification-robust sandwich covariance
A^-1 B A^-1 (A the averaged Hessian, B the averaged squared score), and
turns a designated coefficient into a sqrt(n)-scaled Wald statistic.

Only the two families used by the testing procedure are provided:
gaussian with identity link and Bernoulli with logit link.  The gaussian
dispersion never needs to be estimated because the B matrix uses raw
squared residuals, so it cancels from every Wald statistic.

``fit_glm`` fits one model on rows and owns the failure rules of such a
fit.  Only it takes row weights (counts), which fit a grouped design: a
logistic model on 0/1 columns is saturated over its cells, so the fit on
the cells weighted by their counts is the fit on the rows.  Its counts
decide it: the private ``_cell_codes`` gives its code where the MLE does
not exist, and ``_saturated_wald`` its T in closed form where it does.
``_batched_wald`` fits a block of models on unweighted rows as stacked
arrays and hands back each fit that only ``fit_glm`` can settle.
``fit_glm`` takes a logistic Newton step s unevaluated when concavity
certifies its log-likelihood test: ll(beta + s) - ll(beta) >=
score(beta + s) . s >= -_HALVING_SLACK / 2, half the least allowance the
test grants; only where that bound fails (or is NaN) does it compute ll.
The kernel settles only fits whose every step that bound certified, so
the ll test, step halving and the convergence decision are fit_glm's alone.
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
_HALVING_SLACK = 1e-12  # a step may lower ll by this much times 1 + |ll|
_PERFECT_RESID = 1e-6  # a logistic fit with every |resid| below this is separated
_PERFECT_VAR = 1e-24  # least sandwich/model variance ratio of a Wald T


@dataclass(frozen=True)
class Family:
    """Canonical-link exponential-family pieces b, b', b''.

    ``variance_from_mean`` gives b'' in terms of the mean; LOGISTIC
    restricts responses to {0, 1}.  The two instances GAUSSIAN and LOGISTIC
    are the only families, so code tests them by identity.
    """

    name: str
    short_name: str
    cumulant: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    variance_from_mean: Callable[[np.ndarray], np.ndarray]

    def validate_response(self, y: np.ndarray) -> None:
        if self is LOGISTIC and not ((y == 0.0) | (y == 1.0)).all():
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
)
LOGISTIC = Family(
    name="bernoulli_logit",
    short_name="logistic",
    # log(1 + e^theta), overflow-safe
    cumulant=lambda theta: np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta))),
    # sigmoid(x) = (1 + tanh(x/2)) / 2: saturates cleanly at both ends
    mean=lambda theta: 0.5 * (1.0 + np.tanh(0.5 * theta)),
    variance_from_mean=lambda mu: mu * (1.0 - mu),
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
    n: float  # the weight sum: the row count as a float for an unweighted fit


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


def _inverse_factor(mat: np.ndarray, message: str = "Cholesky factorization failed") -> np.ndarray:
    """L^-1 for the Cholesky factor L of mat, so mat^-1 = L^-T L^-1; the
    factorization is the positive-definiteness test: SingularDesign(message)."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise SingularDesign(message) from None
    return np.linalg.inv(chol)


def _working_loglik(family: Family, theta: np.ndarray, y: np.ndarray, w, n) -> float:
    return float(w @ (y * theta - family.cumulant(theta)) / n)


def fit_glm(design: DesignMatrix, y, family: Family, weights=None) -> GlmFit:
    """Maximize the working log-likelihood sum(y*theta - b(theta)) over beta.

    Gaussian-identity fits are the closed-form normal-equations solution;
    logistic fits use Newton-Raphson with step-halving from beta = 0.  The
    returned fit carries the sandwich covariance.

    ``weights``, if given, are positive row counts: the fit is the fit on
    the rows repeated by count, and without them each row counts once.
    Every mean, score, Hessian and sandwich sum is weighted by the counts,
    n is their sum, and the rank test runs on the sqrt(count)-scaled rows.

    Raises SingularDesign for rank-deficient designs and Separation when a
    logistic iterate leaves the |beta| <= 30 box or the converged fit
    classifies every observation to within 1e-6 (the score criterion fires
    around |theta| ~ 19 on separated unit-scale data, before the box
    bound, and the Wald statistic is equally meaningless there).
    """
    X = design.values
    yv = _as_vector(y, "y")
    rows, d = X.shape
    if yv.size != rows:
        raise ValueError(f"response length {yv.size} does not match n={rows}")
    wv = np.ones(rows) if weights is None else _as_vector(weights, "weights")
    if wv.size != rows or not (wv > 0.0).all():
        raise ValueError(f"weights must be {rows} positive counts")
    n, xt = float(wv.sum()), X.T * wv  # xt: the transposed rows times their counts
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    family.validate_response(yv)
    _check_rank(X * np.sqrt(wv)[:, None])

    if family is GAUSSIAN:
        li = _inverse_factor(xt @ X)
        beta = li.T @ (li @ (xt @ yv))
        mu = X @ beta
        resid = yv - mu
        score = xt @ resid / n
        fit_iters, converged = 0, True
    else:
        beta = np.zeros(d)
        mu = family.mean(X @ beta)
        score = xt @ (yv - mu) / n
        fit_iters = 0
        while np.abs(score).max() > _SCORE_TARGET and fit_iters < _MAX_ITER:
            w = family.variance_from_mean(mu)
            li = _inverse_factor((xt * w) @ X / n)
            step = li.T @ (li @ score)
            cand = beta + step
            theta = X @ cand
            mu = family.mean(theta)
            cand_score = xt @ (yv - mu) / n
            if not cand_score @ step >= -_HALVING_SLACK / 2:  # the concavity bound
                # Halve until the working log-likelihood does not decrease
                # (allowing float-noise-level wiggle so steps near the optimum,
                # where ll changes fall below machine precision, still land).
                # After _MAX_HALVINGS rejected tries the next halving is taken as is.
                ll = _working_loglik(family, X @ beta, yv, wv, n)
                noise, scale = _HALVING_SLACK * (1.0 + abs(ll)), 1.0
                for _ in range(_MAX_HALVINGS):
                    if _working_loglik(family, theta, yv, wv, n) >= ll - noise:
                        break
                    scale *= 0.5
                    cand = beta + scale * step
                    theta = X @ cand
                if scale < 1.0:
                    mu = family.mean(theta)
                    cand_score = xt @ (yv - mu) / n
            beta, score = cand, cand_score
            if np.abs(beta).max() > _SEPARATION_BOUND:
                raise Separation(
                    f"|beta| exceeded {_SEPARATION_BOUND} during iteration "
                    "(fitted probabilities numerically 0/1)"
                )
            fit_iters += 1
        resid = yv - mu
        converged = bool(np.abs(score).max() <= _SCORE_CONTRACT)
        if converged and np.abs(resid).max() < _PERFECT_RESID:
            raise Separation("fit classifies every observation to within 1e-6")

    cov, model_cov = _sandwich_and_model_cov(X, xt, n, resid, family.variance_from_mean(mu))
    return GlmFit(
        beta_hat=beta,
        sandwich_cov=cov,
        model_cov=model_cov,
        converged=converged,
        iterations=fit_iters,
        grad_norm=float(np.abs(score).max()),
        n=n,
    )


@np.errstate(over="ignore", invalid="ignore")  # inf B from |resid| > 1e154: DegenerateVariance
def _sandwich_and_model_cov(X, xt, n, resid, w):
    """A^-1 B A^-1 and A^-1, with A = mean(w x x^T) for the variance weights
    ``w = b''(theta)`` and B = mean(resid^2 x x^T); ``xt`` is X.T with each
    row scaled by its count, and ``n`` the count sum."""
    a_mat = (xt * w) @ X / n
    b_mat = (xt * resid**2) @ X / n
    li = _inverse_factor(a_mat, "averaged Hessian is not positive definite")
    a_inv = li.T @ li  # symmetric as computed: entry (i, j) sums the products of (j, i)
    cov = a_inv @ b_mat @ a_inv
    return (cov + cov.T) / 2.0, a_inv


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
    if var < _PERFECT_VAR * float(fit.model_cov[coef_index, coef_index]):
        raise DegenerateVariance(
            f"sandwich diagonal at index {coef_index} is numerically zero (perfect fit)"
        )
    value = float(np.sqrt(fit.n) * fit.beta_hat[coef_index] / var**0.5)
    if not np.isfinite(value):
        raise DegenerateVariance(f"non-finite Wald statistic at index {coef_index}")
    return value


def _cell_codes(cases, controls) -> np.ndarray:
    """Failure code per logistic fit saturated over its cells, from its
    ``cases`` and ``controls`` per cell (... x c): SINGULAR_DESIGN for an
    empty cell, else SEPARATION for a pure one (its MLE does not exist:
    Albert & Anderson 1984), else "" (live: every count positive)."""
    pure = ((cases == 0) | (controls == 0)).any(axis=-1)  # an empty cell is pure too
    level = pure + (cases + controls == 0).any(axis=-1).astype(int)  # 0 live, 1 pure, 2 empty
    return np.array(["", Separation.code, SingularDesign.code], dtype=object)[level]


def _saturated_wald(cells, cases, controls, coef_index: int) -> np.ndarray:
    """T of coefficient ``coef_index`` of live logistic fits saturated over
    their cells, in closed form.

    Fit i is fit_glm's fit of one row per cell (C = ``cells``, invertible)
    weighted by ``cases[i]`` with y = 1 and ``controls[i]`` with y = 0 (s, f).
    Its MLE fits each cell's rate, C beta = theta = log(s / f), and a cell's
    squared residuals sum to its variance sum s f / (s + f), so the sandwich
    is A^-1 = n C^-1 diag(1/s + 1/f) C^-T: T = beta_k / sqrt(sum_c (C^-1_kc)^2
    (1/s_c + 1/f_c)), for a stage-2 pair Woolf's log odds-ratio statistic.
    """
    # row sums, not matrix products: the bits of a fit do not depend on the others
    inverse = np.linalg.inv(cells)
    var = ((1.0 / cases + 1.0 / controls) * inverse[coef_index] ** 2).sum(axis=1)
    return (np.log(cases / controls) * inverse[coef_index]).sum(axis=1) / np.sqrt(var)


_COND_TOL = 1e-12  # least Gram or Hessian eigenvalue ratio the batched kernel settles
_RESID_FLOOR = 1e-8  # least mean squared residual, over mean squared y, it settles


def _conditioned(mat, ok):
    """``(mat, ok)``, ``ok`` narrowed to the finite symmetric mat[i] with an
    eigenvalue ratio above _COND_TOL, the identity standing in for the rest."""
    eye = np.eye(mat.shape[-1])
    ok = ok & np.isfinite(mat).all(axis=(1, 2))
    eig = np.linalg.eigvalsh(np.where(ok[:, None, None], mat, eye))
    ok &= eig[:, 0] > _COND_TOL * eig[:, -1]
    return np.where(ok[:, None, None], mat, eye), ok


@np.errstate(all="ignore")  # a fit with non-finite values is handed back
def _batched_wald(design, y, family: Family, coef_index: int) -> np.ndarray:
    """Wald statistics of a block of working fits, NaN for those it hands back.

    Fit i has the n unweighted rows of ``design[i]`` (B x n x d) and the
    responses ``y`` (shared or B x n).  Returns the sqrt(n)-scaled T of
    coefficient ``coef_index`` per fit, or NaN where fit_glm must decide.  A
    logistic fit is settled only if its every Newton step was a full step
    that the concavity bound certified and it met _SCORE_TARGET within
    _MAX_ITER steps.  A fit that leaves the |beta| box, fails a residual or
    variance test, or has a Gram or Hessian eigenvalue ratio below _COND_TOL
    (far above _RANK_TOL) or residuals below _RESID_FLOOR is handed back too.
    """
    xt = np.ascontiguousarray(np.swapaxes(design, 1, 2), dtype=float)  # B x d x n
    nb, d, n = xt.shape
    rows, cols = np.triu_indices(d)
    products = np.empty((nb, rows.size, n))  # products of design column pairs
    for i, (a, b) in enumerate(zip(rows, cols)):
        np.multiply(xt[:, a], xt[:, b], out=products[:, i])
    y = np.broadcast_to(np.asarray(y, dtype=float), (nb, n))
    index, stats = np.arange(nb), np.full(nb, np.nan)

    def moment(v):  # mean(v x x^T) per fit, from one stacked product
        flat = (products @ v[..., None])[..., 0] / n
        mat = np.empty((flat.shape[0], d, d))
        mat[:, rows, cols] = mat[:, cols, rows] = flat
        return mat

    def mean_x(v):  # mean(v x) per fit
        return (xt @ v[..., None])[..., 0] / n

    def settle(beta, mu, a_mat, ok):
        """Record the T of each fit with finite ``beta`` that passes the
        residual rules and wald_statistic's tests, from the sandwich at mu;
        ``a_mat`` and ``ok`` are the screened Hessians at mu."""
        resid = y - mu
        r2 = resid**2
        # residuals far below y lose their digits to cancellation in y - mu
        ok = ok & (r2.sum(axis=1) >= _RESID_FLOOR * (y**2).sum(axis=1))
        if family is LOGISTIC:
            ok &= np.abs(resid).max(axis=1) >= _PERFECT_RESID
        u = np.linalg.solve(a_mat, np.eye(d)[:, coef_index, None])[..., 0]  # A^-1 e_k
        var = np.einsum("bi,bij,bj->b", u, moment(r2), u)
        stat = np.sqrt(n) * beta[:, coef_index] / np.sqrt(var)
        ok &= np.isfinite(var) & (var > 0.0) & np.isfinite(stat)
        ok &= var >= _PERFECT_VAR * u[:, coef_index]
        stats[index[ok]] = stat[ok]

    # Newton steps from beta = 0: the first Hessian is a multiple of the Gram
    # matrix, so its test is the rank test.  A gaussian fit is settled after
    # that one exact step, as fit_glm's is.  A logistic fit stops at the
    # score target, or with beta = NaN (handed back) once a test fails or
    # _MAX_ITER steps have passed.  Each state's Hessian is formed and
    # screened once: for the going fits, or for all once half of the block
    # has stopped, when the stopped fits are settled on it and dropped.
    beta, going, mu = np.zeros((nb, d)), np.ones(nb, dtype=bool), family.mean(np.zeros((nb, n)))
    score, a_mat = mean_x(y - mu), moment(family.variance_from_mean(mu))
    if family is GAUSSIAN:
        a_mat, ok = _conditioned(a_mat, going)
        beta = np.linalg.solve(a_mat, score[..., None])[..., 0]
        settle(beta, (beta[:, None, :] @ xt)[:, 0], a_mat, ok)  # its Hessian at every beta
        return stats
    for it in range(_MAX_ITER + 1):
        going &= np.abs(score).max(axis=1) > _SCORE_TARGET
        if 2 * np.count_nonzero(going) <= going.size or it == _MAX_ITER:
            a_mat, ok = _conditioned(a_mat, np.ones_like(going))
            settle(np.where(going[:, None], np.nan, beta), mu, a_mat, ok)
            if it == _MAX_ITER or not going.any():
                return stats
            block = (index, xt, products, y, beta, mu, score, a_mat, ok, going)
            index, xt, products, y, beta, mu, score, a_mat, ok, going = (a[going] for a in block)
        else:
            a_mat, ok = _conditioned(a_mat, going)
        step = np.linalg.solve(a_mat, score[..., None])[..., 0]
        cand = beta + step
        ok &= np.abs(cand).max(axis=1) <= _SEPARATION_BOUND
        cand_mu = family.mean((cand[:, None, :] @ xt)[:, 0])
        cand_score = mean_x(y - cand_mu)
        ok &= np.einsum("bi,bi->b", cand_score, step) >= -_HALVING_SLACK / 2  # concavity bound
        if not ok.all():  # a fit without a step keeps beta, mu and score; a going one gets NaN
            cand[~ok], cand_mu[~ok], cand_score[~ok] = beta[~ok], mu[~ok], score[~ok]
            cand[going & ~ok] = np.nan
        beta, mu, score, going = cand, cand_mu, cand_score, ok
        a_mat = moment(family.variance_from_mean(mu))

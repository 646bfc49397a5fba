"""``fit_glm`` against a frozen reference copy of its earlier arithmetic.

``reference_fit_glm`` is ``fit_glm`` as it was when each Newton step and
the sandwich's A^-1 came from general solves on both Cholesky triangles.
It keeps the rules (the rank test, step halving, the |beta| box, the score
contract and the 1e-6 residual rule) and their failure codes, so the
property test below holds the faster arithmetic to the same outcome code,
Newton path and statistics.  The cost guard counts the NumPy linear-algebra
calls of one fit instead of timing it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairscreen import (
    GAUSSIAN,
    LOGISTIC,
    DegenerateVariance,
    Separation,
    SingularDesign,
    build_stage1_design,
    build_stage2_design,
    fit_glm,
    wald_statistic,
)
from pairscreen.glm import (
    _MAX_HALVINGS,
    _MAX_ITER,
    _RANK_TOL,
    _SCORE_CONTRACT,
    _SCORE_TARGET,
    _SEPARATION_BOUND,
    GlmFit,
)


def reference_check_rank(values):
    sv = np.linalg.svd(values, compute_uv=False)
    if sv[0] <= 0.0 or sv[-1] / sv[0] < _RANK_TOL:
        raise SingularDesign("rank-deficient design")


def reference_chol_solve(mat, rhs):
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise SingularDesign("Cholesky factorization failed") from None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def reference_loglik(family, theta, y, w, n):
    if w is None:
        return float(np.mean(y * theta - family.cumulant(theta)))
    return float(w @ (y * theta - family.cumulant(theta)) / n)


def reference_sandwich_and_model_cov(X, xt, n, resid, w):
    a_mat = (xt * w) @ X / n
    b_mat = (xt * resid**2) @ X / n
    try:
        chol = np.linalg.cholesky(a_mat)
    except np.linalg.LinAlgError:
        raise SingularDesign("averaged Hessian is not positive definite") from None
    a_inv = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(X.shape[1])))
    cov = a_inv @ b_mat @ a_inv
    return (cov + cov.T) / 2.0, (a_inv + a_inv.T) / 2.0


def reference_fit_glm(design, y, family, weights=None) -> GlmFit:
    """The earlier ``fit_glm`` on valid input (its input checks are left out)."""
    X = design.values
    yv = np.asarray(y, dtype=float)
    if weights is None:
        wv, n, xt = None, X.shape[0], X.T
    else:
        wv = np.asarray(weights, dtype=float)
        n, xt = float(wv.sum()), X.T * wv
    reference_check_rank(X if wv is None else X * np.sqrt(wv)[:, None])

    if family is GAUSSIAN:
        beta = reference_chol_solve(xt @ X, xt @ yv)
        mu = X @ beta
        resid = yv - mu
        score = xt @ resid / n
        fit_iters, converged = 0, True
    else:
        beta = np.zeros(X.shape[1])
        theta = X @ beta
        ll = reference_loglik(family, theta, yv, wv, n)
        mu = family.mean(theta)
        resid = yv - mu
        score = xt @ resid / n
        fit_iters = 0
        while np.max(np.abs(score)) > _SCORE_TARGET and fit_iters < _MAX_ITER:
            hess = (xt * family.variance_from_mean(mu)) @ X / n
            step = reference_chol_solve(hess, score)
            noise = 1e-12 * (1.0 + abs(ll))
            scale = 1.0
            for halving in range(_MAX_HALVINGS + 1):
                cand = beta + scale * step
                theta = X @ cand
                cand_ll = reference_loglik(family, theta, yv, wv, n)
                if cand_ll >= ll - noise or halving == _MAX_HALVINGS:
                    break
                scale *= 0.5
            beta, ll = cand, cand_ll
            if np.max(np.abs(beta)) > _SEPARATION_BOUND:
                raise Separation("|beta| left the box")
            mu = family.mean(theta)
            resid = yv - mu
            score = xt @ resid / n
            fit_iters += 1
        converged = bool(np.max(np.abs(score)) <= _SCORE_CONTRACT)
        if converged and np.max(np.abs(resid)) < 1e-6:
            raise Separation("fit classifies every observation to within 1e-6")

    cov, model_cov = reference_sandwich_and_model_cov(
        X, xt, n, resid, family.variance_from_mean(mu)
    )
    return GlmFit(
        beta_hat=beta,
        sandwich_cov=cov,
        model_cov=model_cov,
        converged=converged,
        iterations=fit_iters,
        grad_norm=float(np.max(np.abs(score))),
        n=n,
    )


def outcome(fit_fn, design, y, family, coef_index, weights):
    """``(code, fit, T)``: code is "" for a usable T, else the failure code."""
    try:
        fit = fit_fn(design, y, family, weights)
    except (SingularDesign, Separation) as exc:
        return exc.code, None, None
    if not fit.converged:
        return "NOT_CONVERGED", fit, None
    try:
        return "", fit, wald_statistic(fit, coef_index)
    except DegenerateVariance as exc:
        return exc.code, fit, None


def make_case(kind, family, q, tweak, seed):
    """(design, y, weights, coef_index) for one fit of the given kind.

    ``tweak`` makes the design near-singular (the second factor is the
    first plus a small perturbation) or the response near-separated (it
    follows the first factor with rare flips)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 80))
    if kind == "cells":  # one 0/1 column's 4 cells, weighted by their counts
        design = build_stage1_design(np.tile([0.0, 1.0], 2))
        y = np.repeat([1.0, 0.0], 2)
        counts = rng.integers(1, 400, 4).astype(float)
        if tweak == "near_separated":
            counts[rng.integers(0, 4)] = 1.0
        if family is GAUSSIAN:
            y = y + rng.standard_normal(4)
        return design, y, counts, 1
    binary = rng.random() < 0.5
    x = (rng.random((n, 2)) < 0.4).astype(float) if binary else rng.standard_normal((n, 2))
    if tweak == "near_singular":
        x[:, 1] = x[:, 0] + 10.0 ** rng.uniform(-4, -1) * rng.standard_normal(n)
    adjust = rng.standard_normal((n, q)) if q else None
    if kind == "stage1":
        design, coef_index = build_stage1_design(x[:, 0], adjust), 1
    else:
        design, coef_index = build_stage2_design(x[:, 0], x[:, 1], adjust), 3
    signal = x[:, 0] - x[:, 0].mean()
    if family is GAUSSIAN:
        y = signal + x[:, 0] * x[:, 1] + rng.standard_normal(n)
    elif tweak == "near_separated":
        y = (signal > 0).astype(float)
        flips = rng.integers(0, n, 2)
        y[flips] = 1.0 - y[flips]
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-signal))).astype(float)
    return design, y, None, coef_index


def full_step_lowers_ll(X, y):
    """Whether a full Newton step from beta = 0 onwards lowers the working
    log-likelihood by more than 1e-6 before the score target, inside the
    |beta| <= 30 box."""

    def loglik(beta):
        return np.mean(y * (X @ beta) - LOGISTIC.cumulant(X @ beta))

    beta = np.zeros(X.shape[1])
    for _ in range(100):
        mu = LOGISTIC.mean(X @ beta)
        score = X.T @ (y - mu) / y.size
        if np.abs(score).max() <= 1e-10:
            return False
        cand = beta + np.linalg.solve((X.T * (mu * (1.0 - mu))) @ X / y.size, score)
        if np.abs(cand).max() > 30.0:
            return False
        if loglik(cand) < loglik(beta) - 1e-6:
            return True
        beta = cand
    return False


def seeded_fits(predicate, seeds: int):
    """``(x, y)`` of the logistic stage-2 fits of a seeded search that meet
    ``predicate(X, y)``: small n, one x_j row scaled up, y drawn at logit
    4 x_j."""
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        x = np.column_stack([rng.standard_normal(n), rng.standard_normal(n)])
        x[rng.integers(n), 0] *= rng.uniform(3.0, 15.0)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-4.0 * x[:, 0]))).astype(float)
        if predicate(build_stage2_design(x[:, 0], x[:, 1]).values, y):
            yield x, y


def halving_fits():
    """The seeded fits whose full Newton step lowers the working
    log-likelihood inside the |beta| box."""
    return seeded_fits(full_step_lowers_ll, 600)


def relative_gap(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


# Past this condition number of A, A^-1 B A^-1 amplifies rounding by more
# than 1 / eps, so the sandwich diagonal of either arithmetic is noise.
_NOISE_COND = np.finfo(float).eps ** -0.5


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["stage1", "cells", "stage2"]),
    family=st.sampled_from([GAUSSIAN, LOGISTIC]),
    q=st.integers(0, 2),
    tweak=st.sampled_from(["plain", "near_singular", "near_separated"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_glm_matches_the_reference_fit(kind, family, q, tweak, seed):
    design, y, weights, coef_index = make_case(kind, family, q, tweak, seed)
    want_code, want_fit, want_t = outcome(reference_fit_glm, design, y, family, coef_index, weights)
    got_code, got_fit, got_t = outcome(fit_glm, design, y, family, coef_index, weights)
    # the same Newton path: the fit's own failure code, steps and convergence
    assert (got_fit is None) == (want_fit is None)
    if want_fit is None:
        assert got_code == want_code
        return
    assert got_fit.iterations == want_fit.iterations
    assert got_fit.converged == want_fit.converged
    cond = np.linalg.cond(want_fit.model_cov)
    if cond > _NOISE_COND:
        # a quasi-separated fit (fitted probabilities near 0/1): the sign of
        # the sandwich diagonal is rounding noise, so wald_statistic may
        # refuse either fit alone
        assert got_code == want_code or {got_code, want_code} == {"", "DEGENERATE_VARIANCE"}
        return
    assert got_code == want_code
    # the forward error of two backward-stable inversions grows with cond(A)
    tol = max(1e-12, 1e-14 * cond)
    assert relative_gap(got_fit.sandwich_cov, want_fit.sandwich_cov) <= tol
    assert relative_gap(got_fit.model_cov, want_fit.model_cov) <= tol
    if want_t is not None:
        assert abs(got_t - want_t) <= tol * max(1.0, abs(want_t))


def test_a_step_the_concavity_bound_cannot_certify_is_halved():
    # the bound fails on these steps, so fit_glm must take the ll test and
    # halve as the reference does: a full step would change the Newton path
    halved = 0
    for x, y in halving_fits():
        design = build_stage2_design(x[:, 0], x[:, 1])
        want_code, want_fit, _ = outcome(reference_fit_glm, design, y, LOGISTIC, 3, None)
        got_code, got_fit, _ = outcome(fit_glm, design, y, LOGISTIC, 3, None)
        assert got_code == want_code and (got_fit is None) == (want_fit is None)
        if want_fit is not None:
            assert got_fit.iterations == want_fit.iterations
            assert got_fit.converged == want_fit.converged
            # the reference solves both triangles where fit_glm multiplies by L^-1
            assert relative_gap(got_fit.beta_hat, want_fit.beta_hat) <= 1e-12
            halved += 1
    assert halved


def test_a_cell_fit_factors_each_matrix_once_and_solves_nothing(monkeypatch):
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, counted)

    for name in ("solve", "cholesky", "inv", "svd"):
        count(np.linalg, name)
    count(np, "isin")
    design = build_stage1_design(np.tile([0.0, 1.0], 2))
    fit = fit_glm(design, np.repeat([1.0, 0.0], 2), LOGISTIC, [30.0, 12.0, 70.0, 88.0])
    steps = fit.iterations
    assert fit.converged and steps > 1
    assert calls == {"solve": 0, "cholesky": steps + 1, "inv": steps + 1, "svd": 1, "isin": 0}


@pytest.mark.parametrize("family", [GAUSSIAN, LOGISTIC])
def test_model_covariance_is_symmetric_as_computed(family):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 2))
    y = x[:, 0] + rng.standard_normal(200)
    if family is LOGISTIC:
        y = (y > 0).astype(float)
    cov = fit_glm(build_stage2_design(x[:, 0], x[:, 1], x[:, 0] ** 2), y, family).model_cov
    assert (cov == cov.T).all()

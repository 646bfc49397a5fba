"""Working-GLM tests: builders, fits, sandwich covariance, Wald statistics.

Oracles used here: hand normal-equations arithmetic, brute-force grid
maximization of the working log-likelihood, central finite differences
of the log-likelihood for the score, and Woolf's log odds-ratio statistic
in 40-digit arithmetic for saturated 2 x 2 x 2 cell fits.
"""

import math
import pickle
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairscreen import (
    GAUSSIAN,
    LOGISTIC,
    Dataset,
    DegenerateVariance,
    Separation,
    SingularDesign,
    build_stage1_design,
    build_stage2_design,
    fit_glm,
    wald_statistic,
)
import pairscreen.glm
from pairscreen.glm import DesignMatrix, GlmFit, _cell_codes, _saturated_wald, family_from_name
from pairscreen.pipeline import _fit_outcome


def working_loglik(X, y, family, beta):
    theta = X @ beta
    return float(np.mean(y * theta - family.cumulant(theta)))


def score_oracle(X, y, family, beta, h=1e-5):
    """Central finite differences of the working log-likelihood."""
    grad = np.zeros(len(beta))
    for i in range(len(beta)):
        up = beta.copy()
        dn = beta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (working_loglik(X, y, family, up) - working_loglik(X, y, family, dn)) / (2 * h)
    return grad


def random_instance(rng, family, n=None, d=None):
    n = n or int(rng.integers(20, 51))
    d = d or int(rng.integers(2, 6))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    beta = rng.normal(scale=0.7, size=d)
    theta = X @ beta
    if family is GAUSSIAN:
        y = theta + rng.standard_normal(n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    return X, y


class TestFamilyPickling:
    """Code tests a family by identity (``family is LOGISTIC``), so an
    unpickled family, as in a worker process, must be the same instance."""

    def test_unpickled_family_is_the_same_instance(self):
        for family in (GAUSSIAN, LOGISTIC):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(family, protocol)) is family

    def test_unpickled_dataset_keeps_its_family(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        for family, y in ((GAUSSIAN, rng.standard_normal(20)), (LOGISTIC, np.arange(20) % 2.0)):
            data = pickle.loads(pickle.dumps(Dataset(x=x, y=y, family=family)))
            assert data.family is family


class TestDesignBuilders:
    def test_stage1_shape(self):
        d = build_stage1_design([0.0, 1.0])
        assert d.values.tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_stage1_constant_column_is_built(self):
        # degeneracy is flagged at fit time, not at construction
        d = build_stage1_design([2.0, 2.0, 2.0])
        assert d.values.tolist() == [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]

    def test_stage1_signed_values(self):
        d = build_stage1_design([-1.0, 0.0, 1.0])
        assert d.values.tolist() == [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]]

    def test_stage1_rejects_non_finite(self):
        with pytest.raises(ValueError):
            build_stage1_design([0.0, float("nan")])

    def test_stage2_columns(self):
        d = build_stage2_design([1.0, 0.0], [0.0, 1.0])
        assert d.values.tolist() == [[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]]

    def test_stage2_interaction_can_duplicate_intercept(self):
        d = build_stage2_design([1.0, 1.0], [1.0, 1.0])
        assert d.values[:, 3].tolist() == [1.0, 1.0]  # detected at fit, not here

    def test_stage2_adjust_appended(self):
        d = build_stage2_design([2.0, 0.0, 1.0], [1.0, 1.0, 0.0], np.array([[5.0], [5.0], [5.0]]))
        assert d.values.shape == (3, 5)
        assert d.values[:, 4].tolist() == [5.0, 5.0, 5.0]

    def test_stage2_length_mismatch(self):
        with pytest.raises(ValueError):
            build_stage2_design([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_stage1_adjust_appended(self):
        d = build_stage1_design([2.0, 0.0, 1.0], np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert d.values.shape == (3, 4)
        assert d.values[:, 2].tolist() == [5.0, 5.0, 5.0]
        assert d.values[:, 3].tolist() == [1.0, 2.0, 3.0]

    def test_stage1_one_dimensional_adjust_is_a_column(self):
        d = build_stage1_design([2.0, 0.0, 1.0], [5.0, 6.0, 7.0])
        assert d.values.shape == (3, 3)
        assert d.values[:, 2].tolist() == [5.0, 6.0, 7.0]

    def test_stage1_adjust_rows_must_match(self):
        with pytest.raises(ValueError):
            build_stage1_design([2.0, 0.0, 1.0], np.ones((2, 1)))

    def test_stage1_adjust_must_be_finite(self):
        with pytest.raises(ValueError):
            build_stage1_design([2.0, 0.0, 1.0], [5.0, float("inf"), 7.0])


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: DesignMatrix(np.ones(3)), "nonempty n x d matrix"),
            (lambda: DesignMatrix(np.ones((0, 2))), "nonempty n x d matrix"),
            (lambda: DesignMatrix(np.array([[1.0, math.nan]])), "entries must be finite"),
            (lambda: build_stage1_design([1.0]), "at least 2 observations"),
            (lambda: build_stage2_design(np.ones((2, 1)), np.ones(2)), "one-dimensional"),
            (
                lambda: fit_glm(build_stage1_design([0.0, 1.0, 2.0]), [0.0, 1.0], GAUSSIAN),
                "response length 2 does not match n=3",
            ),
            (
                lambda: wald_statistic(
                    fit_glm(build_stage1_design([0.0, 1.0, 2.0]), [0.0, 2.0, 1.0], GAUSSIAN), 2
                ),
                "coef_index 2 out of range",
            ),
        ],
    )
    def test_bad_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestFitGaussian:
    def test_exact_line(self):
        # normal equations by hand: y = 1 + 2x exactly
        design = build_stage1_design([0.0, 1.0, 2.0, 3.0])
        fit = fit_glm(design, [1.0, 3.0, 5.0, 7.0], GAUSSIAN)
        assert fit.converged
        assert np.allclose(fit.beta_hat, [1.0, 2.0], atol=1e-12)

    def test_matches_normal_equations_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            X, y = random_instance(rng, GAUSSIAN)
            design = DesignMatrix(X)
            fit = fit_glm(design, y, GAUSSIAN)
            oracle = np.linalg.solve(X.T @ X, X.T @ y)
            assert np.max(np.abs(fit.beta_hat - oracle)) <= 1e-10

    def test_duplicated_column_raises(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        design = build_stage2_design(x, x)  # x_k == x_j duplicates the column
        with pytest.raises(SingularDesign):
            fit_glm(design, [1.0, 2.0, 1.0, 2.0, 3.0], GAUSSIAN)


class TestFitLogistic:
    def test_matches_brute_force_grid(self):
        # group-mean oracle: sigmoid(b0 + b1) = 1/3, sigmoid(b0 - b1) = 2/3
        x = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        design = build_stage1_design(x)
        fit = fit_glm(design, y, LOGISTIC)
        assert fit.converged

        # brute-force maximization over a coarse-then-fine grid
        best = None
        b0_grid = np.linspace(-1.0, 1.0, 81)
        b1_grid = np.linspace(-2.0, 2.0, 161)
        for b0 in b0_grid:
            for b1 in b1_grid:
                ll = working_loglik(design.values, y, LOGISTIC, np.array([b0, b1]))
                if best is None or ll > best[0]:
                    best = (ll, b0, b1)
        _, c0, c1 = best
        best = None
        for b0 in np.linspace(c0 - 0.05, c0 + 0.05, 101):
            for b1 in np.linspace(c1 - 0.05, c1 + 0.05, 101):
                ll = working_loglik(design.values, y, LOGISTIC, np.array([b0, b1]))
                if best is None or ll > best[0]:
                    best = (ll, b0, b1)
        assert fit.beta_hat[0] == pytest.approx(best[1], abs=1e-3)
        assert fit.beta_hat[1] == pytest.approx(best[2], abs=1e-3)
        # closed-form check via the empirical group means
        assert fit.beta_hat[0] == pytest.approx(0.0, abs=1e-6)
        assert fit.beta_hat[1] == pytest.approx(-math.log(2.0), abs=1e-6)

    def test_fitted_means_match_score_equations(self):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng, LOGISTIC, n=60, d=3)
        design = DesignMatrix(X)
        fit = fit_glm(design, y, LOGISTIC)
        assert fit.converged
        assert fit.grad_norm <= 1e-8

    def test_complete_separation_raises(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])  # y determined by sign of x
        with pytest.raises(Separation):
            fit_glm(build_stage1_design(x), y, LOGISTIC)

    def test_response_domain_checked(self):
        design = build_stage1_design([0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            fit_glm(design, [0.0, 1.0, 2.0, 0.0, 1.0], LOGISTIC)


class TestSandwich:
    def test_hand_oracle_two_by_two(self):
        # x=(0,1,2), y=(0,2,1): beta=(0.5,0.5), residuals (-0.5,1,-0.5)
        # A = [[1,1],[1,5/3]], B = mean(r^2 x x^T); A^-1 B A^-1 computed by hand
        design = build_stage1_design([0.0, 1.0, 2.0])
        y = np.array([0.0, 2.0, 1.0])
        fit = fit_glm(design, y, GAUSSIAN)
        oracle = np.array([[0.875, -0.375], [-0.375, 0.375]])
        assert np.max(np.abs(fit.sandwich_cov - oracle)) <= 1e-12

    def test_direct_formula_on_random_three_parameter_instances(self):
        rng = np.random.default_rng(99)
        for family in (GAUSSIAN, LOGISTIC):
            for _ in range(25):
                X, y = random_instance(rng, family, n=40, d=3)
                design = DesignMatrix(X)
                fit = fit_glm(design, y, family)
                n = X.shape[0]
                theta = X @ fit.beta_hat
                w = family.variance_from_mean(family.mean(theta))
                resid = y - family.mean(theta)
                A = (X.T * w) @ X / n
                B = (X.T * resid**2) @ X / n
                oracle = np.linalg.inv(A) @ B @ np.linalg.inv(A)
                assert np.max(np.abs(fit.sandwich_cov - oracle)) <= 1e-12

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, y = random_instance(rng, GAUSSIAN)
            design = DesignMatrix(X)
            cov = fit_glm(design, y, GAUSSIAN).sandwich_cov
            assert np.max(np.abs(cov - cov.T)) <= 1e-12
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= -1e-8

    def test_perfect_fit_degenerates_at_wald(self):
        design = build_stage1_design([0.0, 1.0, 2.0, 3.0])
        fit = fit_glm(design, [1.0, 3.0, 5.0, 7.0], GAUSSIAN)  # zero residuals
        with pytest.raises(DegenerateVariance):
            wald_statistic(fit, 1)

    def test_two_point_perfect_fit(self):
        design = build_stage1_design([0.0, 1.0, 0.5])
        fit = fit_glm(design, [0.0, 2.0, 1.0], GAUSSIAN)  # y = 2x exactly
        with pytest.raises(DegenerateVariance):
            wald_statistic(fit, 1)


class TestWald:
    def _manual_fit(self, beta, cov, n):
        beta = np.asarray(beta, dtype=float)
        return GlmFit(
            beta_hat=beta,
            sandwich_cov=np.asarray(cov, dtype=float),
            model_cov=np.eye(beta.size),
            converged=True,
            iterations=1,
            grad_norm=0.0,
            n=n,
        )

    def test_zero_coefficient(self):
        fit = self._manual_fit([1.0, 0.0], [[1.0, 0.0], [0.0, 2.5]], 50)
        assert wald_statistic(fit, 1) == 0.0

    def test_direct_arithmetic(self):
        fit = self._manual_fit([0.0, 1.0], [[1.0, 0.0], [0.0, 4.0]], 100)
        assert wald_statistic(fit, 1) == pytest.approx(5.0, abs=1e-12)

    def test_full_pipeline_matches_oracle(self):
        # sqrt(3) * beta1 / sqrt((A^-1 B A^-1)[1,1]) = sqrt(3)*0.5/sqrt(0.375)
        design = build_stage1_design([0.0, 1.0, 2.0])
        fit = fit_glm(design, [0.0, 2.0, 1.0], GAUSSIAN)
        assert wald_statistic(fit, 1) == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_sign_follows_coefficient(self):
        fit = self._manual_fit([0.0, -2.0], [[1.0, 0.0], [0.0, 4.0]], 25)
        assert wald_statistic(fit, 1) == pytest.approx(-5.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        fit = self._manual_fit([0.0, 1.0], [[1.0, 0.0], [0.0, 0.0]], 25)
        with pytest.raises(DegenerateVariance):
            wald_statistic(fit, 1)


class TestWeightedFit:
    """Row weights are counts: the weighted fit is the fit on the rows
    repeated by count."""

    @staticmethod
    def cells():
        """(x, y) = (0, 1), (1, 1), (0, 0), (1, 0): one 0/1 column's cells."""
        return build_stage1_design(np.tile([0.0, 1.0], 2)), np.repeat([1.0, 0.0], 2)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 400), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cells_weighted_by_count_fit_like_their_rows(self, counts, seed):
        # a random 0/1 column and response with every cell nonempty, in random row order
        design, y = self.cells()
        order = np.random.default_rng(seed).permutation(sum(counts))
        rows = DesignMatrix(np.repeat(design.values, counts, axis=0)[order])
        y_rows = np.repeat(y, counts)[order]
        weights = np.array(counts, dtype=float)
        got_t, got_code = _fit_outcome(design, y, LOGISTIC, 1, weights)
        want_t, want_code = _fit_outcome(rows, y_rows, LOGISTIC, 1)
        assert got_code == want_code
        if not want_code:
            assert abs(got_t - want_t) <= 1e-10

    def test_maximum_is_at_the_cell_means(self):
        design, y = self.cells()
        fit = fit_glm(design, y, LOGISTIC, [3.0, 5.0, 7.0, 9.0])
        assert fit.n == 24.0
        # sigmoid(b0) = 3 / 10 and sigmoid(b0 + b1) = 5 / 14 at the maximum
        assert fit.beta_hat[0] == pytest.approx(math.log(3.0 / 7.0), abs=1e-9)
        assert fit.beta_hat[1] == pytest.approx(math.log(5.0 / 9.0) - math.log(3.0 / 7.0), abs=1e-9)

    def test_n_and_rank_test_count_the_repeated_rows(self):
        # two rows with distinct x and y: n = 4 > d = 2 by weight, full rank
        design = build_stage1_design([0.0, 1.0])
        assert fit_glm(design, [1.0, 3.0], GAUSSIAN, [2.0, 2.0]).n == 4.0
        with pytest.raises(ValueError, match="need n > d"):
            fit_glm(design, [1.0, 3.0], GAUSSIAN, [1.0, 1.0])
        # full rank as two rows, but the repeated rows have a singular-value
        # ratio near 1e-12, below the rank tolerance
        design = build_stage1_design([0.0, 1e-6])
        fit_glm(design, [0.0, 1.0], GAUSSIAN, [2.0, 2.0])
        with pytest.raises(SingularDesign):
            fit_glm(design, [0.0, 1.0], GAUSSIAN, [1.0, 1e12])

    @pytest.mark.parametrize("weights", [[1.0, 0.0, 2.0, 3.0], [1.0, -1.0, 2.0, 3.0], [1.0, 2.0]])
    def test_weights_must_be_positive_counts_per_row(self, weights):
        design, y = self.cells()
        with pytest.raises(ValueError, match="weights"):
            fit_glm(design, y, LOGISTIC, weights)


STAGE2_CELLS = build_stage2_design(np.tile([0.0, 1.0], 2), np.repeat([0.0, 1.0], 2)).values


def log_odds_ratio_oracle(cases, controls) -> float:
    """Woolf's statistic of a 2 x 2 x 2 table in 40-digit arithmetic: the
    log odds ratio over the square root of the sum of reciprocal counts,
    cells in the order (x_j, x_k) = 00, 10, 01, 11."""
    with mpmath.workdps(40):
        s, f = [mpmath.mpf(int(c)) for c in cases], [mpmath.mpf(int(c)) for c in controls]
        log_or = mpmath.log(s[0] * f[1] * f[2] * s[3] / (f[0] * s[1] * s[2] * f[3]))
        return float(log_or / mpmath.sqrt(mpmath.fsum(1 / c for c in s + f)))


def cell_table(y, *cols) -> tuple[list, list]:
    """Counts of cases and of controls per cell of the 0/1 ``cols``, cell
    x_1 + 2 x_2 + ...: for a pair (x_j, x_k) = 00, 10, 01, 11."""
    cell = sum(col.astype(int) << i for i, col in enumerate(cols))
    sizes = [int(np.sum(cell == c)) for c in range(2 ** len(cols))]
    cases = [int(np.sum(y[cell == c])) for c in range(2 ** len(cols))]
    return cases, [size - s for size, s in zip(sizes, cases)]


def table_code(cases, controls) -> str:
    """The code a saturated logistic fit gets from its counts: SINGULAR_DESIGN
    if a cell is empty, else SEPARATION if one is pure (no MLE), else ""."""
    if min(s + f for s, f in zip(cases, controls)) == 0:
        return "SINGULAR_DESIGN"
    return "SEPARATION" if min(*cases, *controls) == 0 else ""


def cell_fit(cases, controls) -> tuple[float, str]:
    """fit_glm's outcome for the table: the 8 cell rows weighted by count."""
    rows = DesignMatrix(np.concatenate([STAGE2_CELLS, STAGE2_CELLS]))
    y, weights = np.repeat([1.0, 0.0], 4), np.concatenate([cases, controls]).astype(float)
    return _fit_outcome(rows, y, LOGISTIC, 3, weights)


class TestSaturatedWald:
    """Stage-2 logistic pairs of 0/1 columns are decided by their 8 cell
    counts: a table with an empty or pure cell gets its code from the
    counts, and a live one (every count positive) the T of its MLE in
    closed form, which is fit_glm's T wherever fit_glm's Newton iterates
    stay inside its |beta| box."""

    counts = st.one_of(
        st.integers(1, 3),  # near-empty cells
        st.sampled_from([1, 2, 10**7 - 1, 10**7]),  # with a small count: near-pure cells
        st.integers(1, 100),
        st.integers(1, 10**7),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        cases=st.lists(counts, min_size=4, max_size=4),
        controls=st.lists(counts, min_size=4, max_size=4),
    )
    def test_settled_fits_match_fit_glm_and_the_oracle(self, cases, controls):
        table = np.array([cases, controls], dtype=float)
        assert _cell_codes(table[0], table[1]) == ""
        t = _saturated_wald(STAGE2_CELLS, table[:1], table[1:], 3)[0]
        oracle = log_odds_ratio_oracle(cases, controls)
        assert abs(t - oracle) <= 1e-12 * max(1.0, abs(oracle))
        # Newton steps in beta are Newton steps per cell in theta, which go
        # from 0 monotonically to log(s / f), so every fit_glm iterate has
        # |beta_k| <= sum_c |C^-1_kc theta_c|.  Within 1 of the |beta| <= 30
        # box fit_glm may leave it; inside, no rule of fit_glm fires, as every
        # cell has a residual of at least 1/2.
        theta = np.log(table[0] / table[1])
        if (np.abs(np.linalg.inv(STAGE2_CELLS)) @ np.abs(theta)).max() > 29.0:
            return
        assert cell_fit(cases, controls)[1] == ""
        # fit_glm's score target bounds the score averaged over n, so with
        # counts near 1e7 it stops with a small cell's logit up to ~1e-3 short
        # (T up to ~0.1); run past that target, it reaches the MLE.
        with mock.patch.object(pairscreen.glm, "_SCORE_TARGET", 0.0):
            full_t, full_code = cell_fit(cases, controls)
        assert full_code == ""
        # ... up to its own rounding: its solves with the averaged Hessian A
        # lose cond(A) ulps, and y - mu of a near-pure cell loses 1 / min(mu,
        # 1 - mu) ulps (counts 1 to 1e7 put cond(A) near 1e8)
        s, f = table
        hessian = (STAGE2_CELLS.T * (s * f / (s + f))) @ STAGE2_CELLS / table.sum()
        ulps = np.linalg.cond(hessian) + ((s + f) / np.minimum(s, f)).max()
        assert abs(t - full_t) <= 16 * ulps * np.finfo(float).eps * max(1.0, abs(t))

    @pytest.mark.parametrize("cell", range(8))
    def test_an_empty_count_is_handed_back(self, cell):
        # a zero count makes its cell pure: no MLE, so the counts give the
        # code and no T; with both of a cell's counts zero the cell is empty,
        # and fit_glm's rank test on the rows gives the same code
        counts = np.full(8, 5)
        counts[cell] = 0
        assert _cell_codes(counts[:4], counts[4:]) == "SEPARATION"
        counts[(cell + 4) % 8] = 0
        assert _cell_codes(counts[:4], counts[4:]) == "SINGULAR_DESIGN"
        rows = np.repeat(np.concatenate([STAGE2_CELLS, STAGE2_CELLS]), counts, axis=0)
        y = np.repeat(np.repeat([1.0, 0.0], 4), counts)
        assert _fit_outcome(DesignMatrix(rows), y, LOGISTIC, 3)[1] == "SINGULAR_DESIGN"

    def test_a_table_past_the_box_is_handed_back(self):
        # every cell's logit is log(1e7 / 2): the MLE's interaction coefficient
        # is 0, and the bound on a Newton iterate's, 4 log(5e6) = 61.7, is past
        # the |beta| box, unlike 4 log(500) = 24.9.  The counts decide both
        # tables all the same; on this one fit_glm stays inside the box and
        # agrees
        cases, controls = np.full((1, 4), 1e7), np.full((1, 4), 2.0)
        t = _saturated_wald(STAGE2_CELLS, cases, controls, 3)[0]
        assert t == pytest.approx(0.0, abs=1e-12)
        fit_t, code = cell_fit(cases[0], controls[0])
        assert code == "" and abs(fit_t - t) <= 1e-12
        t = _saturated_wald(STAGE2_CELLS, cases / 1e4, controls, 3)[0]
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_a_live_table_past_the_box_gets_the_oracle_t(self):
        # a live table on which fit_glm's iterates leave the |beta| box: its
        # MLE exists all the same, and the closed form gives its Woolf T
        cases, controls = [1, 1, 1, 9999999], [1, 1, 9999999, 1]
        assert cell_fit(cases, controls)[1] == "SEPARATION"
        t = _saturated_wald(STAGE2_CELLS, np.array([cases], float), np.array([controls], float), 3)
        oracle = log_odds_ratio_oracle(cases, controls)
        assert abs(t[0] - oracle) <= 1e-12 * max(1.0, abs(oracle))


class TestInvariants:
    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for family in (GAUSSIAN, LOGISTIC):
            for _ in range(50):
                X, y = random_instance(rng, family)
                beta = rng.normal(scale=0.5, size=X.shape[1])
                analytic = X.T @ (y - family.mean(X @ beta)) / X.shape[0]
                numeric = score_oracle(X, y, family, beta)
                denom = max(np.max(np.abs(numeric)), 1e-8)
                assert np.max(np.abs(analytic - numeric)) / denom <= 1e-6

    def test_converged_fits_have_tiny_score(self):
        rng = np.random.default_rng(17)
        for family in (GAUSSIAN, LOGISTIC):
            for _ in range(10):
                X, y = random_instance(rng, family, n=80)
                design = DesignMatrix(X)
                fit = fit_glm(design, y, family)
                assert fit.converged
                assert fit.grad_norm <= 1e-8

    def test_response_rescaling_leaves_wald_unchanged(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            X, y = random_instance(rng, GAUSSIAN)
            design = DesignMatrix(X)
            c = float(rng.uniform(0.1, 10))
            base = fit_glm(design, y, GAUSSIAN)
            scaled = fit_glm(design, c * y, GAUSSIAN)
            for idx in range(X.shape[1]):
                t0 = wald_statistic(base, idx)
                t1 = wald_statistic(scaled, idx)
                assert t1 == pytest.approx(t0, abs=1e-8)

    def test_covariate_rescaling_leaves_wald_unchanged(self):
        rng = np.random.default_rng(32)

        for family in (GAUSSIAN, LOGISTIC):
            for _ in range(20):
                X, y = random_instance(rng, family, n=60)
                j = int(rng.integers(1, X.shape[1]))
                c = float(rng.choice([-3.0, 0.25, 4.0, -0.5]))
                X2 = X.copy()
                X2[:, j] = c * X2[:, j]
                t0 = wald_statistic(fit_glm(DesignMatrix(X), y, family), j)
                t1 = wald_statistic(fit_glm(DesignMatrix(X2), y, family), j)
                assert abs(t1) == pytest.approx(abs(t0), abs=1e-8)

    def test_family_lookup(self):
        assert family_from_name("gaussian") is GAUSSIAN
        assert family_from_name("bernoulli_logit") is LOGISTIC
        with pytest.raises(ValueError):
            family_from_name("poisson")

    def test_logistic_cumulant_is_log_one_plus_exp(self):
        theta = np.linspace(-750.0, 750.0, 300_001)
        reference = np.logaddexp(0.0, theta)
        got = LOGISTIC.cumulant(theta)
        assert np.array_equal(got == 0.0, reference == 0.0)
        nonzero = reference != 0.0
        assert np.max(np.abs(got[nonzero] / reference[nonzero] - 1.0)) <= 1e-15

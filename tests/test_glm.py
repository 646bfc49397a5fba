"""Working-GLM tests: builders, fits, sandwich covariance, Wald statistics.

Oracles used here: hand normal-equations arithmetic, brute-force grid
maximization of the working log-likelihood, and central finite differences
of the log-likelihood for the score.
"""

import math

import numpy as np
import pytest

from pairscreen import (
    GAUSSIAN,
    LOGISTIC,
    DegenerateVariance,
    GlmFit,
    Separation,
    SingularDesign,
    build_stage1_design,
    build_stage2_design,
    family_from_name,
    fit_glm,
    wald_statistic,
)


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


class TestDesignBuilders:
    def test_stage1_shape(self):
        d = build_stage1_design([0.0, 1.0])
        assert d.values.tolist() == [[1.0, 0.0], [1.0, 1.0]]
        assert d.labels == ("intercept", "x")

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
        assert d.labels == ("intercept", "x_j", "x_k", "x_j:x_k")

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
        assert d.labels == ("intercept", "x", "adjust1", "adjust2")
        assert d.values[:, 2].tolist() == [5.0, 5.0, 5.0]
        assert d.values[:, 3].tolist() == [1.0, 2.0, 3.0]

    def test_stage1_one_dimensional_adjust_is_a_column(self):
        d = build_stage1_design([2.0, 0.0, 1.0], [5.0, 6.0, 7.0])
        assert d.labels == ("intercept", "x", "adjust1")
        assert d.values[:, 2].tolist() == [5.0, 6.0, 7.0]

    def test_stage1_adjust_rows_must_match(self):
        with pytest.raises(ValueError):
            build_stage1_design([2.0, 0.0, 1.0], np.ones((2, 1)))

    def test_stage1_adjust_must_be_finite(self):
        with pytest.raises(ValueError):
            build_stage1_design([2.0, 0.0, 1.0], [5.0, float("inf"), 7.0])


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
            from pairscreen import DesignMatrix

            design = DesignMatrix(X, tuple(f"c{i}" for i in range(X.shape[1])))
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
        from pairscreen import DesignMatrix

        design = DesignMatrix(X, ("a", "b", "c"))
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
                from pairscreen import DesignMatrix

                design = DesignMatrix(X, ("i", "u", "v"))
                fit = fit_glm(design, y, family)
                n = X.shape[0]
                theta = X @ fit.beta_hat
                w = family.variance(theta)
                resid = y - family.mean(theta)
                A = (X.T * w) @ X / n
                B = (X.T * resid**2) @ X / n
                oracle = np.linalg.inv(A) @ B @ np.linalg.inv(A)
                assert np.max(np.abs(fit.sandwich_cov - oracle)) <= 1e-12

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, y = random_instance(rng, GAUSSIAN)
            from pairscreen import DesignMatrix

            design = DesignMatrix(X, tuple(f"c{i}" for i in range(X.shape[1])))
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
        assert wald_statistic(fit, 1).value == 0.0

    def test_direct_arithmetic(self):
        fit = self._manual_fit([0.0, 1.0], [[1.0, 0.0], [0.0, 4.0]], 100)
        stat = wald_statistic(fit, 1)
        assert stat.value == pytest.approx(5.0, abs=1e-12)
        assert stat.se == pytest.approx(2.0, abs=1e-12)

    def test_full_pipeline_matches_oracle(self):
        # sqrt(3) * beta1 / sqrt((A^-1 B A^-1)[1,1]) = sqrt(3)*0.5/sqrt(0.375)
        design = build_stage1_design([0.0, 1.0, 2.0])
        fit = fit_glm(design, [0.0, 2.0, 1.0], GAUSSIAN)
        assert wald_statistic(fit, 1).value == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_sign_follows_coefficient(self):
        fit = self._manual_fit([0.0, -2.0], [[1.0, 0.0], [0.0, 4.0]], 25)
        assert wald_statistic(fit, 1).value == pytest.approx(-5.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        fit = self._manual_fit([0.0, 1.0], [[1.0, 0.0], [0.0, 0.0]], 25)
        with pytest.raises(DegenerateVariance):
            wald_statistic(fit, 1)


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
                from pairscreen import DesignMatrix

                design = DesignMatrix(X, tuple(f"c{i}" for i in range(X.shape[1])))
                fit = fit_glm(design, y, family)
                assert fit.converged
                assert fit.grad_norm <= 1e-8

    def test_response_rescaling_leaves_wald_unchanged(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            X, y = random_instance(rng, GAUSSIAN)
            from pairscreen import DesignMatrix

            design = DesignMatrix(X, tuple(f"c{i}" for i in range(X.shape[1])))
            c = float(rng.uniform(0.1, 10))
            base = fit_glm(design, y, GAUSSIAN)
            scaled = fit_glm(design, c * y, GAUSSIAN)
            for idx in range(X.shape[1]):
                t0 = wald_statistic(base, idx).value
                t1 = wald_statistic(scaled, idx).value
                assert t1 == pytest.approx(t0, abs=1e-8)

    def test_covariate_rescaling_leaves_wald_unchanged(self):
        rng = np.random.default_rng(32)
        from pairscreen import DesignMatrix

        for family in (GAUSSIAN, LOGISTIC):
            for _ in range(20):
                X, y = random_instance(rng, family, n=60)
                j = int(rng.integers(1, X.shape[1]))
                c = float(rng.choice([-3.0, 0.25, 4.0, -0.5]))
                X2 = X.copy()
                X2[:, j] = c * X2[:, j]
                labels = tuple(f"c{i}" for i in range(X.shape[1]))
                t0 = wald_statistic(fit_glm(DesignMatrix(X, labels), y, family), j).value
                t1 = wald_statistic(fit_glm(DesignMatrix(X2, labels), y, family), j).value
                assert abs(t1) == pytest.approx(abs(t0), abs=1e-8)

    def test_family_lookup(self):
        assert family_from_name("gaussian") is GAUSSIAN
        assert family_from_name("bernoulli_logit") is LOGISTIC
        with pytest.raises(ValueError):
            family_from_name("poisson")

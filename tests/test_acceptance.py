"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The simulation-backed criteria reproduce the reference experiments at desk
scale with fixed seeds; the numerical criteria re-run the independent
oracles at their stated tolerances.  Expect a few minutes of runtime.
"""

import math

import numpy as np
from scipy import special

from pairscreen import (
    GAUSSIAN,
    LOGISTIC,
    Dataset,
    SimConfig,
    fdr_cutoff,
    fit_glm,
    gauss_tail_inverse,
    gauss_two_sided_tail,
    normal_cdf,
    run_replicates,
    run_two_stage,
    wald_statistic,
)
from pairscreen.cli import main as cli_main
from pairscreen.glm import DesignMatrix
from pairscreen.simulate import aggregate_rows

WORKERS = 2


def record(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def sim_aggregates(reps=50, **cfg_kwargs):
    alphas = cfg_kwargs.pop("alpha1_list")
    eta = cfg_kwargs.pop("eta")
    config = SimConfig(**cfg_kwargs)
    rows = run_replicates(config, alphas, eta=eta, reps=reps, workers=WORKERS)
    return {agg.alpha1: agg for agg in aggregate_rows(rows)}


class TestSimulationCriteria:
    def test_fdr_control_logistic(self):
        # logistic p=100 n=1000 b=0.6 eta=0.05, 50 reps: mean FDP <= 0.07
        aggs = sim_aggregates(
            n=1000, p=100, family="logistic", b=0.6, seed=20240601,
            alpha1_list=[0.1, 0.5], eta=0.05,
        )
        fdps = {a1: aggs[a1].fdp_mean for a1 in (0.1, 0.5)}
        record(
            "fdr-control-logistic",
            all(v <= 0.07 for v in fdps.values()),
            f"mean FDP alpha1=0.1: {fdps[0.1]:.4f}, alpha1=0.5: {fdps[0.5]:.4f} (<= 0.07)",
        )

    def test_power_saturation(self):
        # same setting, b=0.8: mean power >= 0.90 for alpha1=0.1 and BH
        aggs = sim_aggregates(
            n=1000, p=100, family="logistic", b=0.8, seed=20240602,
            alpha1_list=[0.0, 0.1], eta=0.05,
        )
        powers = {a1: aggs[a1].power_mean for a1 in (0.0, 0.1)}
        record(
            "power-saturation",
            all(v is not None and v >= 0.90 for v in powers.values()),
            f"mean power BH: {powers[0.0]:.4f}, alpha1=0.1: {powers[0.1]:.4f} (>= 0.90)",
        )

    def test_misspecified_linear_fdr_comparison(self):
        # misspecified linear p=100 n=50 b=0.4, 50 reps:
        # mean FDP(two-stage 0.1) <= mean FDP(BH) + 0.02
        aggs = sim_aggregates(
            n=50, p=100, family="gaussian", b=0.4, seed=20240603,
            misspecified=True, cov_kind="ar1",
            alpha1_list=[0.0, 0.1], eta=0.05,
        )
        two_stage, bh = aggs[0.1].fdp_mean, aggs[0.0].fdp_mean
        record(
            "misspecified-linear-fdr",
            two_stage <= bh + 0.02,
            f"two-stage FDP {two_stage:.4f} vs BH {bh:.4f} + 0.02",
        )

    def test_computational_efficiency(self):
        # logistic p=500 n=1000 b=0.6: replicate-averaged omega over the
        # alpha1 grid [0.1, 0.5] lies in [0.05, 0.70], non-increasing
        grid = [0.1, 0.2, 0.3, 0.4, 0.5]
        aggs = sim_aggregates(
            reps=3, n=1000, p=500, family="logistic", b=0.6, seed=20240604,
            alpha1_list=grid, eta=0.05,
        )
        omegas = [aggs[a1].omega_mean for a1 in grid]
        grid_mean = sum(omegas) / len(omegas)
        monotone = all(a >= b for a, b in zip(omegas, omegas[1:]))
        in_range = 0.05 <= grid_mean <= 0.70 and max(omegas) <= 0.70
        record(
            "computational-efficiency",
            in_range and monotone,
            f"omega(alpha1) = {[round(w, 4) for w in omegas]}, "
            f"grid mean {grid_mean:.4f} in [0.05, 0.70], monotone={monotone}",
        )


class TestProcedureIdentities:
    def test_bh_special_case_identity(self):
        # alpha1=0 rejected set == independently coded alpha=0 display, exactly
        rng = np.random.default_rng(20240605)
        failures = 0
        for trial in range(20):
            family = GAUSSIAN if trial % 2 == 0 else LOGISTIC
            n, p = 60, 7
            x = rng.standard_normal((n, p))
            theta = -0.5 + x[:, 0] + x[:, 1] + x[:, 0] * x[:, 1]
            if family is GAUSSIAN:
                y = theta + rng.standard_normal(n)
            else:
                y = (rng.random(n) < 1 / (1 + np.exp(-np.clip(theta, -35, 35)))).astype(float)
            data = Dataset(x=x, y=y, family=family)
            report = run_two_stage(data, 0.0, 0.1)
            m = report.p1 * (report.p1 - 1) // 2
            res, ok = report.pairs, report.pairs.status == ""
            fitted = list(zip(res.j[ok].tolist(), res.k[ok].tolist(), res.t[ok].tolist()))
            t_hat_ref = _cutoff_reference([abs(t) for _, _, t in fitted], m, p, 0.1)
            reference = {(j, k) for j, k, t in fitted if abs(t) >= t_hat_ref}
            rejected = zip(res.j[report.rejected].tolist(), res.k[report.rejected].tolist())
            if set(rejected) != reference:
                failures += 1
        record("bh-special-case", failures == 0, f"{20 - failures}/20 datasets identical")

    def test_fdr_cutoff_oracle_equivalence(self):
        # exact interval search vs grid + bisection brute force, 100 instances
        rng = np.random.default_rng(20240606)
        worst = 0.0
        for _ in range(100):
            p = int(rng.integers(5, 400))
            n_stats = int(rng.integers(0, 60))
            m = n_stats + int(rng.integers(0, 20))
            stats = np.abs(rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=n_stats))
            if rng.random() < 0.3 and n_stats:
                stats[: n_stats // 2] += 3.0
            eta = float(rng.uniform(0.01, 0.3))
            got = fdr_cutoff(stats, m, p, eta)
            want = _cutoff_reference(stats, m, p, eta)
            worst = max(worst, abs(got - want))
        record("fdr-cutoff-oracle", worst <= 1e-6, f"max |t_hat - oracle| = {worst:.2e}")


def _cutoff_reference(stats, m, p, eta, grid_points=10_000):
    """Brute force: scan the defining condition over {0} + stats + {t_max}
    + a uniform grid, then bisect the first feasible cell."""
    t_max = math.sqrt(2.0 * math.log(p))
    if m == 0:
        return t_max
    stats = np.abs(np.asarray(stats, dtype=float))

    def ok(t):
        r = int(np.sum(stats >= t))
        return gauss_two_sided_tail(t) * m <= eta * max(r, 1)

    grid = np.unique(
        np.concatenate([[0.0], stats[stats <= t_max], [t_max], np.linspace(0, t_max, grid_points)])
    )
    feasible = grid[[ok(float(t)) for t in grid]]
    if feasible.size == 0:
        return t_max
    g_star = float(feasible.min())
    if g_star == 0.0:
        return 0.0
    lo = float(grid[grid < g_star].max())
    hi = g_star
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestGlmCriteria:
    def _random_instance(self, rng, family, n=None, d=None):
        n = n or int(rng.integers(20, 51))
        d = d or int(rng.integers(2, 6))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        beta = rng.normal(scale=0.7, size=d)
        theta = X @ beta
        if family is GAUSSIAN:
            y = theta + rng.standard_normal(n)
        else:
            y = (rng.random(n) < 1 / (1 + np.exp(-theta))).astype(float)
        return X, y

    def test_glm_correctness(self):
        rng = np.random.default_rng(20240607)
        worst_score = 0.0
        # score vs central finite differences, 50 instances per family
        for family in (GAUSSIAN, LOGISTIC):
            for _ in range(50):
                X, y = self._random_instance(rng, family)
                beta = rng.normal(scale=0.5, size=X.shape[1])
                analytic = X.T @ (y - family.mean(X @ beta)) / X.shape[0]
                h = 1e-5
                numeric = np.zeros_like(beta)
                for i in range(beta.size):
                    up, dn = beta.copy(), beta.copy()
                    up[i] += h
                    dn[i] -= h

                    def ll(b):
                        t = X @ b
                        return float(np.mean(y * t - family.cumulant(t)))

                    numeric[i] = (ll(up) - ll(dn)) / (2 * h)
                rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-8)
                worst_score = max(worst_score, rel)

        # gaussian fit == normal equations to 1e-10
        worst_ols = 0.0
        for _ in range(25):
            X, y = self._random_instance(rng, GAUSSIAN)
            design = DesignMatrix(X, tuple(f"c{i}" for i in range(X.shape[1])))
            fit = fit_glm(design, y, GAUSSIAN)
            oracle = np.linalg.solve(X.T @ X, X.T @ y)
            worst_ols = max(worst_ols, float(np.max(np.abs(fit.beta_hat - oracle))))

        # sandwich == direct formula to 1e-12 on 3-parameter instances
        worst_sw = 0.0
        for family in (GAUSSIAN, LOGISTIC):
            for _ in range(25):
                X, y = self._random_instance(rng, family, n=40, d=3)
                design = DesignMatrix(X, ("i", "u", "v"))
                fit = fit_glm(design, y, family)
                theta = X @ fit.beta_hat
                w = family.variance(theta)
                resid = y - family.mean(theta)
                A = (X.T * w) @ X / X.shape[0]
                B = (X.T * resid**2) @ X / X.shape[0]
                oracle = np.linalg.inv(A) @ B @ np.linalg.inv(A)
                worst_sw = max(worst_sw, float(np.max(np.abs(fit.sandwich_cov - oracle))))

        ok = worst_score <= 1e-6 and worst_ols <= 1e-10 and worst_sw <= 1e-12
        record(
            "glm-correctness",
            ok,
            f"score rel err {worst_score:.2e} (<=1e-6), OLS err {worst_ols:.2e} (<=1e-10), "
            f"sandwich err {worst_sw:.2e} (<=1e-12)",
        )

    def test_wald_invariance(self):
        rng = np.random.default_rng(20240608)
        worst = 0.0
        for trial in range(20):
            X, y = self._random_instance(rng, GAUSSIAN, n=60)
            labels = tuple(f"c{i}" for i in range(X.shape[1]))
            base = fit_glm(DesignMatrix(X, labels), y, GAUSSIAN)
            # response rescaling (gaussian)
            c = float(rng.uniform(0.2, 8.0))
            scaled = fit_glm(DesignMatrix(X, labels), c * y, GAUSSIAN)
            for idx in range(X.shape[1]):
                worst = max(
                    worst,
                    abs(wald_statistic(base, idx).value - wald_statistic(scaled, idx).value),
                )
            # covariate rescaling (both families)
            family = GAUSSIAN if trial % 2 == 0 else LOGISTIC
            X2, y2 = self._random_instance(rng, family, n=60)
            j = int(rng.integers(1, X2.shape[1]))
            c2 = float(rng.choice([-2.5, 0.3, 5.0]))
            X2s = X2.copy()
            X2s[:, j] *= c2
            labels2 = tuple(f"c{i}" for i in range(X2.shape[1]))
            t0 = wald_statistic(fit_glm(DesignMatrix(X2, labels2), y2, family), j).value
            t1 = wald_statistic(fit_glm(DesignMatrix(X2s, labels2), y2, family), j).value
            worst = max(worst, abs(abs(t0) - abs(t1)))
        record("wald-invariance", worst <= 1e-8, f"max |T - T'| = {worst:.2e} (<= 1e-8)")


class TestNormalCriteria:
    def test_stats_util_accuracy(self):
        grid = np.linspace(-8.0, 8.0, 1000)
        phi_err = max(
            abs(normal_cdf(float(x)) - 0.5 * special.erfc(-float(x) / math.sqrt(2)))
            for x in grid
        )
        qs = np.concatenate([np.linspace(1e-6, 1.0, 500), [1e-12, 1e-50, 1e-200]])
        rt_err = max(
            abs(gauss_two_sided_tail(gauss_tail_inverse(float(q))) - float(q)) for q in qs
        )
        ok = phi_err <= 1e-12 and rt_err <= 1e-10
        record(
            "stats-util",
            ok,
            f"|Phi - erfc reference| = {phi_err:.2e} (<= 1e-12), "
            f"round trip = {rt_err:.2e} (<= 1e-10)",
        )


class TestDeterminismCriterion:
    def test_simulate_byte_identical(self, tmp_path):
        def run(name, workers):
            out = tmp_path / name
            code = cli_main(
                [
                    "simulate",
                    "--family", "logistic",
                    "--n", "120",
                    "--p", "12",
                    "--b", "0.6",
                    "--alpha1", "0,0.3",
                    "--eta", "0.1",
                    "--reps", "6",
                    "--seed", "20240609",
                    "--workers", str(workers),
                    "--out", str(out),
                ]
            )
            assert code == 0
            return out.read_bytes()

        runs = [run("r1.csv", 1), run("r2.csv", 1), run("w4.csv", 4)]
        ok = runs[0] == runs[1] == runs[2]
        record(
            "determinism",
            ok,
            f"{len(runs[0])} bytes; rerun identical: {runs[0] == runs[1]}, "
            f"workers 1 vs 4 identical: {runs[0] == runs[2]}",
        )

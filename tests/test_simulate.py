"""Simulation-harness tests: determinism, distributional checks, truth rules."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import pairscreen.pipeline
import pairscreen.simulate
from pairscreen import (
    GAUSSIAN,
    SimConfig,
    aggregate_rows,
    build_stage2_design,
    fdr_cutoff,
    gen_design,
    gen_pair_response,
    gen_response,
    gen_truth,
    run_replicates,
)


def base_config(**overrides):
    defaults = dict(n=200, p=10, family="gaussian", b=0.5, seed=20240801)
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestGenDesign:
    def test_same_seed_identical(self):
        cfg = base_config()
        assert np.array_equal(gen_design(cfg), gen_design(cfg))

    def test_different_seed_differs(self):
        cfg = base_config()
        other = replace(cfg, seed=cfg.seed + 1)
        assert not np.array_equal(gen_design(cfg), gen_design(other))

    def test_identity_covariance(self):
        cfg = base_config(n=100_000, p=3)
        x = gen_design(cfg)
        cov = np.cov(x, rowvar=False)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.02
        assert np.max(np.abs(np.diag(cov) - 1.0)) < 0.02

    def test_ar1_correlations(self):
        cfg = base_config(n=100_000, p=4, cov_kind="ar1")
        x = gen_design(cfg)
        corr = np.corrcoef(x, rowvar=False)
        assert corr[0, 1] == pytest.approx(0.5, abs=0.02)
        assert corr[0, 2] == pytest.approx(0.25, abs=0.02)
        assert np.max(np.abs(x.var(axis=0) - 1.0)) < 0.02  # unit variance at every lag

    def test_marginal_is_standard_normal(self):
        # KS check at the 1% critical level, flaky-tolerant over 3 attempts
        passed = False
        for attempt in range(3):
            cfg = base_config(n=10_000, p=2, seed=900 + attempt)
            x1 = gen_design(cfg)[:, 0]
            d_stat = stats.kstest(x1, "norm").statistic
            if d_stat < 1.63 / math.sqrt(10_000):
                passed = True
                break
        assert passed


class TestGenTruth:
    def test_b_zero_has_no_alternatives(self):
        truth = gen_truth(base_config(b=0.0))
        assert not truth.h1.any()
        assert np.all(truth.beta1 == 0.0)
        assert np.all(truth.beta3 == 0.0)

    def test_hierarchical_rule(self):
        for seed in range(40):
            cfg = base_config(p=30, seed=seed, b=0.7)
            truth = gen_truth(cfg)
            for j, k in zip(*np.nonzero(truth.h1)):
                assert truth.beta1[j] == cfg.b
                assert truth.beta1[k] == cfg.b
                assert j < k

    def test_interaction_rate_near_three_quarters(self):
        drawn = 0
        active = 0
        for seed in range(120):
            truth = gen_truth(base_config(p=60, seed=seed, b=0.4, active_limit=20))
            a = np.count_nonzero(truth.beta1)
            drawn += a * (a - 1) // 2
            active += np.count_nonzero(truth.h1)
        assert drawn > 500
        assert active / drawn == pytest.approx(0.75, abs=0.05)

    def test_candidate_limit_respected(self):
        cfg = base_config(p=100, active_limit=12)
        truth = gen_truth(cfg)
        assert len(truth.candidates) == 12
        assert np.count_nonzero(truth.beta1) <= 12

    def test_extras_only_when_misspecified(self):
        assert not gen_truth(base_config(b=0.5)).extra_coef.any()
        cfg = base_config(b=0.5, misspecified=True, cov_kind="ar1", p=30, seed=5)
        truth = gen_truth(cfg)
        below = np.tril_indices(30)
        assert not truth.extra_vars[below].any() and not truth.extra_coef[below].any()
        for j, k in zip(*np.triu_indices(30, 1)):
            l, u, v = truth.extra_vars[j, k]
            b4, b5 = truth.extra_coef[j, k]
            assert {l, u, v}.isdisjoint({j, k})
            assert 0 <= min(l, u, v) and max(l, u, v) < 30
            assert b4 in (0.0, cfg.b) and b5 in (0.0, cfg.b)

    def test_determinism(self):
        cfg = base_config(misspecified=True, seed=77)
        t1, t2 = gen_truth(cfg), gen_truth(cfg)
        for name in ("beta1", "beta3", "h1", "extra_vars", "extra_coef"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_draws_are_pinned(self):
        # pinned values: a reordered or resized draw changes them
        cfg = base_config(p=6, b=0.5, seed=5, misspecified=True, cov_kind="ar1")
        truth = gen_truth(cfg)
        assert truth.beta1.tolist() == [0.0, 0.0, 0.5, 0.5, 0.5, 0.0]
        assert list(zip(*np.nonzero(truth.h1))) == [(2, 3)]
        assert truth.beta3[2, 3] == 0.5 and np.count_nonzero(truth.beta3) == 1
        extras = {
            (0, 1): (3, 2, 2, 0.0, 0.0), (0, 2): (1, 4, 5, 0.0, 0.5),
            (0, 3): (1, 1, 1, 0.5, 0.5), (0, 4): (1, 1, 5, 0.0, 0.5),
            (0, 5): (2, 1, 1, 0.0, 0.0), (1, 2): (5, 3, 0, 0.5, 0.5),
            (1, 3): (2, 5, 2, 0.0, 0.5), (1, 4): (0, 3, 5, 0.0, 0.0),
            (1, 5): (0, 0, 4, 0.5, 0.5), (2, 3): (1, 5, 0, 0.0, 0.5),
            (2, 4): (5, 5, 3, 0.5, 0.5), (2, 5): (4, 3, 4, 0.5, 0.5),
            (3, 4): (0, 0, 5, 0.0, 0.0), (3, 5): (1, 4, 2, 0.5, 0.5),
            (4, 5): (0, 1, 3, 0.5, 0.0),
        }
        for (j, k), expected in extras.items():
            got = (*truth.extra_vars[j, k].tolist(), *truth.extra_coef[j, k].tolist())
            assert got == expected, (j, k)

    def test_candidate_draws_are_pinned(self):
        # pinned values: a reordered or resized draw changes them
        truth = gen_truth(base_config(p=10, b=0.5, seed=3, active_limit=4))
        assert truth.candidates == (1, 4, 6, 8)
        assert truth.beta1.tolist() == [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0]
        assert list(zip(*np.nonzero(truth.h1))) == [(1, 8)]


class TestGenResponse:
    def test_null_gaussian_mean(self):
        cfg = base_config(n=10_000, b=0.0)
        truth = gen_truth(cfg)
        y = gen_response(gen_design(cfg), truth, cfg)
        assert float(np.mean(y)) == pytest.approx(-1.0, abs=3.0 / math.sqrt(10_000) * 3)

    def test_null_logistic_rate(self):
        cfg = base_config(n=10_000, b=0.0, family="logistic")
        truth = gen_truth(cfg)
        y = gen_response(gen_design(cfg), truth, cfg)
        assert set(np.unique(y)) <= {0.0, 1.0}
        # sigmoid(-2) = 0.11920292202211755
        assert float(np.mean(y)) == pytest.approx(0.11920292202211755, abs=0.02)

    def test_same_seed_identical(self):
        cfg = base_config(family="logistic", b=0.6)
        truth = gen_truth(cfg)
        x = gen_design(cfg)
        assert np.array_equal(gen_response(x, truth, cfg), gen_response(x, truth, cfg))

    def test_intercept_override(self):
        cfg = base_config(n=20_000, b=0.0, beta0=2.5)
        y = gen_response(gen_design(cfg), gen_truth(cfg), cfg)
        assert float(np.mean(y)) == pytest.approx(2.5, abs=0.1)


def one_pair_response(x, truth, cfg, j, k):
    """Pair (j, k)'s response drawn on its own: a fresh Philox keyed by
    (seed, 2**32 + j*p + k) and the scalar predictor, term by term."""
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 2**32 + j * cfg.p + k]))
    theta = (
        cfg.intercept
        + truth.beta1[j] * x[:, j]
        + truth.beta1[k] * x[:, k]
        + truth.beta3[j, k] * x[:, j] * x[:, k]
    )
    (l, u, v), (b4, b5) = truth.extra_vars[j, k], truth.extra_coef[j, k]
    if b4 != 0.0:
        theta = theta + b4 * x[:, l]
    if b5 != 0.0:
        theta = theta + b5 * x[:, u] * x[:, v]
    if cfg.family == "gaussian":
        return theta + rng.standard_normal(theta.size)
    prob = 1.0 / (1.0 + np.exp(-np.clip(theta, -35.0, 35.0)))
    return (rng.random(theta.size) < prob).astype(float)


@st.composite
def pair_draw_cases(draw):
    cfg = base_config(
        n=draw(st.integers(5, 40)),
        p=draw(st.integers(3, 12)),
        family=draw(st.sampled_from(["gaussian", "logistic"])),
        b=draw(st.sampled_from([0.0, 0.5, 1.5])),
        seed=draw(st.integers(0, 2**40)),
        misspecified=draw(st.booleans()),
        cov_kind=draw(st.sampled_from(["identity", "ar1"])),
    )
    all_pairs = [(j, k) for j in range(cfg.p) for k in range(j + 1, cfg.p)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
    return cfg, np.array(pairs).T


class TestGenPairResponse:
    @settings(max_examples=200, deadline=None)
    @given(case=pair_draw_cases())
    def test_rows_equal_one_pair_draws_bitwise(self, case):
        cfg, (j, k) = case
        truth, x = gen_truth(cfg), gen_design(cfg)
        y = gen_pair_response(x, truth, cfg, j, k)
        assert y.shape == (j.size, cfg.n)
        for row, a, b in zip(y, j.tolist(), k.tolist()):
            assert row.tobytes() == one_pair_response(x, truth, cfg, a, b).tobytes()
        single = gen_pair_response(x, truth, cfg, j[:1], k[:1])
        assert single.shape == (1, cfg.n) and single.tobytes() == y[0].tobytes()

    @pytest.mark.parametrize(
        "j, k",
        [(-1, 3), (2, 10), (4, 4), (5, 2), ([0, -1], [1, 2]), ([0, 1], [9, 10]), ([4], [4]),
         ([0, 5], [1, 2])],
    )
    def test_pairs_outside_the_upper_triangle_are_rejected(self, j, k):
        cfg = base_config(misspecified=True)
        truth, x = gen_truth(cfg), gen_design(cfg)
        with pytest.raises(ValueError, match="0 <= j < k < p"):
            gen_pair_response(x, truth, cfg, j, k)

    def test_scalar_indices_are_rejected(self):
        cfg = base_config()
        with pytest.raises(ValueError, match="index vectors"):
            gen_pair_response(gen_design(cfg), gen_truth(cfg), cfg, 0, 1)


class TestRunReplicates:
    def test_single_replicate_deterministic(self):
        cfg = base_config(n=120, p=8, b=0.8)
        rows1 = run_replicates(cfg, [0.0, 0.3], eta=0.1, reps=1)
        rows2 = run_replicates(cfg, [0.0, 0.3], eta=0.1, reps=1)
        assert rows1 == rows2
        assert len(rows1) == 2
        assert rows1[0].fdp is not None

    @pytest.mark.parametrize("eta", [math.nan, 0.0, 1.0])
    def test_bad_eta_rejected_before_any_replicate(self, monkeypatch, eta):
        def must_not_run(*args):
            raise AssertionError("a replicate ran before eta was checked")

        monkeypatch.setattr(pairscreen.simulate, "_run_one_replicate", must_not_run)
        with pytest.raises(ValueError, match=r"eta must be in \(0, 1\), got"):
            run_replicates(base_config(n=100, p=6, b=0.5), [0.0], eta=eta, reps=1)

    def test_replicate_seeds_increment(self):
        cfg = base_config(n=100, p=6, b=0.5)
        rows = run_replicates(cfg, [0.0], eta=0.1, reps=3)
        assert [r.seed for r in rows] == [cfg.seed, cfg.seed + 1, cfg.seed + 2]

    def test_global_null_controls_fdr(self):
        # b = 0: empirical FDR (= mean FDP over replicates) stays near eta.
        # Screening at alpha1 = 1 keeps the infeasible-boundary rejection
        # mass negligible at this scale (few pairs ever reach stage 2).
        cfg = base_config(n=300, p=30, b=0.0, seed=31)
        rows = run_replicates(cfg, [1.0], eta=0.1, reps=50)
        fdps = [r.fdp for r in rows if r.fdp is not None]
        assert len(fdps) == 50
        assert sum(fdps) / len(fdps) <= 0.1 + 0.05

    def test_power_missing_under_null(self):
        cfg = base_config(n=100, p=6, b=0.0)
        rows = run_replicates(cfg, [0.2], eta=0.1, reps=4)
        assert all(r.power is None for r in rows)
        agg = aggregate_rows(rows)[0]
        assert agg.power is None
        assert agg.power_reps == 0

    def test_omega_consistent_with_p1(self):
        cfg = base_config(n=150, p=10, b=0.6, seed=99)
        rows = run_replicates(cfg, [0.0, 0.4], eta=0.1, reps=3)
        for row in rows:
            p = cfg.p
            expect = (2 * p + row.p1 * (row.p1 - 1)) / (p * (p - 1))
            assert row.omega == pytest.approx(expect, abs=1e-12)

    def test_workers_do_not_change_rows(self):
        cfg = base_config(n=100, p=8, b=0.7, seed=7)
        seq = run_replicates(cfg, [0.0, 0.2], eta=0.1, reps=4, workers=1)
        par = run_replicates(cfg, [0.0, 0.2], eta=0.1, reps=4, workers=4)
        assert seq == par

    @pytest.mark.parametrize("pairs_per_block", [1, 2, 3])
    def test_rows_do_not_depend_on_block_split(self, monkeypatch, pairs_per_block):
        cfg = base_config(n=60, p=12, b=0.6, seed=11, misspecified=True)
        whole = run_replicates(cfg, [0.0, 0.3], eta=0.2, reps=3)
        monkeypatch.setattr(pairscreen.pipeline, "_BLOCK_ROWS", cfg.n * pairs_per_block)
        assert run_replicates(cfg, [0.0, 0.3], eta=0.2, reps=3, workers=1) == whole
        assert run_replicates(cfg, [0.0, 0.3], eta=0.2, reps=3, workers=2) == whole

    def test_alpha1_list_rows_equal_each_alpha1_run_alone(self):
        # the pairs are fitted once per replicate and masked for each alpha1
        cfg = base_config(n=80, p=20, b=0.6, seed=40, misspecified=True, active_limit=6)
        alpha1_list = [0.3, 0.0, 0.1]
        rows = run_replicates(cfg, alpha1_list, eta=0.2, reps=3)
        for a1 in alpha1_list:
            assert [r for r in rows if r.alpha1 == a1] == run_replicates(cfg, [a1], eta=0.2, reps=3)

    def test_unconverged_pair_stays_in_m_and_is_never_rejected(self, monkeypatch):
        cfg = base_config(n=150, p=8, b=0.8, seed=6)
        truth, x = gen_truth(cfg), gen_design(cfg)
        t = {}
        for j in range(cfg.p):
            for k in range(j + 1, cfg.p):
                (y,) = gen_pair_response(x, truth, cfg, np.array([j]), np.array([k]))
                design = build_stage2_design(x[:, j], x[:, k])
                t[(j, k)] = pairscreen.pipeline._fit_outcome(design, y, GAUSSIAN, 3)[0]
        j, k = max(t, key=lambda pair: abs(t[pair]))
        (plain,) = run_replicates(cfg, [0.0], eta=0.1, reps=1)
        assert plain.p1 == cfg.p
        assert abs(t[(j, k)]) >= plain.t_hat  # rejected when its fit converges

        def flagged(v):
            pair_design = v.shape[1] == 4 and np.array_equal(v[:, 1], x[:, j])
            return pair_design and np.array_equal(v[:, 2], x[:, k])

        real_kernel, real_fit = pairscreen.pipeline._batched_wald, pairscreen.pipeline.fit_glm

        def batched_wald(design, *args):  # hands the pair to fit_glm
            stats = real_kernel(design, *args)
            stats[[flagged(v) for v in design]] = np.nan
            return stats

        def fit_glm(design, y, family, weights=None):
            fit = real_fit(design, y, family, weights)
            return dataclasses.replace(fit, converged=False) if flagged(design.values) else fit

        monkeypatch.setattr(pairscreen.pipeline, "_batched_wald", batched_wald)
        monkeypatch.setattr(pairscreen.pipeline, "fit_glm", fit_glm)
        (row,) = run_replicates(cfg, [0.0], eta=0.1, reps=1)
        assert (row.p1, row.omega) == (plain.p1, plain.omega)
        others = [abs(stat) for pair, stat in t.items() if pair != (j, k)]
        assert row.t_hat == fdr_cutoff(others, cfg.p * (cfg.p - 1) // 2, cfg.p, 0.1)
        assert row.rejections == sum(stat >= row.t_hat for stat in others)

    @pytest.mark.parametrize(
        "alpha1_list, eta",
        [([0.1, 0.1], 0.1), ([0.0, 0.1], math.nan), ([0.0, 1.5], 1.5), ([0.1, -0.1], 0.1),
         ([0.0, math.nan], 0.1), ([], 0.1)],
    )
    def test_bad_arguments_rejected_before_any_replicate(self, monkeypatch, alpha1_list, eta):
        # a repeated alpha1 would give each of its cells twice the replicate rows
        def must_not_run(config):
            raise AssertionError("a replicate ran before the arguments were checked")

        monkeypatch.setattr(pairscreen.simulate, "gen_truth", must_not_run)
        cfg = SimConfig(n=60, p=8, family="gaussian", b=0.5, seed=1)
        with pytest.raises(ValueError):
            run_replicates(cfg, alpha1_list, eta, reps=2)

    def test_aggregate_accounting(self):
        cfg = base_config(n=120, p=8, b=0.9, seed=3)
        rows = run_replicates(cfg, [0.0, 0.3], eta=0.1, reps=5)
        aggs = aggregate_rows(rows)
        assert [a.alpha1 for a in aggs] == [0.0, 0.3]
        for agg in aggs:
            assert sum(r.alpha1 == agg.alpha1 for r in rows) - agg.failed_reps == 5
            assert agg.failed_reps == 0
            assert 0.0 <= agg.fdp <= 1.0


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            base_config(n=3)
        with pytest.raises(ValueError):
            base_config(b=-0.5)
        with pytest.raises(ValueError):
            base_config(cov_kind="toeplitz")
        with pytest.raises(ValueError):
            base_config(family="poisson")
        with pytest.raises(ValueError):
            base_config(active_limit=-3)
        for bad in ({"b": math.inf}, {"b": math.nan}, {"beta0": math.nan}, {"beta0": -math.inf}):
            with pytest.raises(ValueError):
                base_config(**bad)

    def test_default_intercepts(self):
        assert base_config(family="gaussian").intercept == -1.0
        assert base_config(family="logistic").intercept == -2.0

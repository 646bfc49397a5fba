"""Two-stage pipeline tests: screening, pair tests, cutoff search, composition.

The cutoff oracle here evaluates the defining condition directly on a grid
(augmented with every observed statistic so the count function is constant
between adjacent grid points) and bisects the first feasible cell; it
shares no interval algebra with the implementation.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairscreen.glm
import pairscreen.pipeline
from pairscreen import (
    GAUSSIAN,
    LOGISTIC,
    AllFitsFailed,
    Dataset,
    PairTestResult,
    build_stage1_design,
    build_stage2_design,
    fdr_cutoff,
    gauss_tail_inverse,
    gauss_two_sided_tail,
    run_two_stage,
    stage1_screen,
    stage2_tests,
)
from pairscreen.pipeline import ScreenResult, alpha_from_rate
from test_fit_reference import halving_fits, seeded_fits
from test_glm import log_odds_ratio_oracle


def make_dataset(rng, n=80, p=6, family=GAUSSIAN, signal=0.8):
    x = rng.standard_normal((n, p))
    theta = -0.5 + signal * x[:, 0] + signal * x[:, 1] + signal * x[:, 0] * x[:, 1]
    if family is GAUSSIAN:
        y = theta + rng.standard_normal(n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-np.clip(theta, -35, 35)))).astype(float)
    return Dataset(x=x, y=y, family=family)


def fitted_and_skipped(res):
    """A stage-2 result as ``[(j, k, T)]`` for fitted pairs and
    ``[(j, k, code)]`` for failed ones, both in the result's order."""
    rows = list(zip(res.j.tolist(), res.k.tolist(), res.t.tolist(), res.status.tolist()))
    fitted = [(j, k, t) for j, k, t, code in rows if not code]
    return fitted, [(j, k, code) for j, k, _, code in rows if code]


def rejected_pairs(report):
    """The rejected ``(j, k, T)`` of a report."""
    res, hit = report.pairs, report.rejected
    return list(zip(res.j[hit].tolist(), res.k[hit].tolist(), res.t[hit].tolist()))


def assert_same_pairs(a, b):
    """Same pairs, status codes and T (NaN equal to NaN), in the same order."""
    assert np.array_equal(a.j, b.j) and np.array_equal(a.k, b.k)
    assert np.array_equal(a.status, b.status)
    assert np.array_equal(a.t, b.t, equal_nan=True)


def assert_same_report(a, b):
    assert_same_pairs(a.pairs, b.pairs)
    assert np.array_equal(a.rejected, b.rejected)
    rest = [f.name for f in dataclasses.fields(a) if f.name not in ("pairs", "rejected")]
    assert [getattr(a, name) for name in rest] == [getattr(b, name) for name in rest]


def cutoff_condition(t, stats, m, eta):
    """Direct evaluation of the defining inequality at one point."""
    r = int(np.sum(np.abs(stats) >= t))
    return gauss_two_sided_tail(t) * m <= eta * max(r, 1)


def cutoff_oracle(stats, m, p, eta, grid_points=10_000):
    """Grid scan over {0} + observed stats + {t_max} + uniform points, then
    bisection inside the first feasible cell (the condition is monotone
    between adjacent grid points because every statistic is a grid point)."""
    t_max = math.sqrt(2.0 * math.log(p))
    if m == 0:
        return t_max
    stats = np.abs(np.asarray(stats, dtype=float))
    grid = np.unique(
        np.concatenate(
            [[0.0], stats[stats <= t_max], [t_max], np.linspace(0.0, t_max, grid_points)]
        )
    )
    feasible = [t for t in grid if cutoff_condition(t, stats, m, eta)]
    if not feasible:
        return t_max
    g_star = min(feasible)
    if g_star == 0.0:
        return 0.0
    below = grid[grid < g_star]
    lo = float(below.max())
    hi = g_star
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cutoff_condition(mid, stats, m, eta):
            hi = mid
        else:
            lo = mid
    return hi


def scan_cutoff(stats, m, p, eta):
    """The cutoff by the plain interval scan: G at the end of every interval
    in order, up to the first feasible one.  ``fdr_cutoff`` skips intervals
    but must return this float bit for bit."""
    stats = np.abs(np.asarray(stats, dtype=float))
    stats = stats[~np.isnan(stats)]
    t_max = math.sqrt(2.0 * math.log(p))
    if m == 0:
        return t_max
    if m <= eta * max(stats.size, 1):
        return 0.0
    interior = np.unique(stats)
    interior = interior[(interior > 0.0) & (interior < t_max)]
    lowers = np.concatenate(([0.0], interior))
    uppers = np.concatenate((interior, [t_max]))
    above = stats.size - np.searchsorted(np.sort(stats), lowers, side="right")
    for lo, hi, r in zip(lowers.tolist(), uppers.tolist(), above.tolist()):
        q = eta * max(r, 1) / m
        if q >= 1.0:
            return float(lo)
        if gauss_two_sided_tail(hi) <= q:
            return float(max(lo, min(gauss_tail_inverse(q), hi)))
    return t_max


def bh_reference(all_pair_stats, p, p1, eta):
    """Independent direct coding of the alpha = 0 cutoff display:
    t_hat = inf{ t in [0, sqrt(2 log p)] : G(t) * p1(p1-1)/2 / max(R(t), 1) <= eta }
    evaluated by scan + bisection, then reject |T| >= t_hat."""
    m = p1 * (p1 - 1) // 2
    stats = [abs(t) for _, _, t in all_pair_stats]
    t_hat = cutoff_oracle(stats, m, p, eta, grid_points=20_000)
    return {(j, k) for j, k, t in all_pair_stats if abs(t) >= t_hat}


class TestAlphaFromRate:
    def test_zero(self):
        assert alpha_from_rate(0.0, 17) == 0.0

    def test_half_at_p_100(self):
        # arithmetic oracle: sqrt(0.5 * log 100) = 1.5174271293851465
        assert alpha_from_rate(0.5, 100) == pytest.approx(1.5174271293851465, abs=1e-5)

    def test_genome_scale(self):
        # sqrt(0.8 * log 95094) = 3.0282167894733667
        assert alpha_from_rate(0.8, 95094) == pytest.approx(3.0282167894733667, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_from_rate(-0.1, 100)
        with pytest.raises(ValueError):
            alpha_from_rate(0.5, 1)

    def test_nan_and_infinite_rates_rejected(self):
        # either would pass no variable and write a report that is not JSON
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha1"):
                alpha_from_rate(bad, 100)

    def test_rate_whose_product_overflows_rejected(self):
        # 1.7e308 is finite, but 1.7e308 * log 4 is not: alpha would be inf
        with pytest.raises(ValueError, match="alpha1"):
            alpha_from_rate(1.7e308, 4)
        assert alpha_from_rate(1.7e308, 2) == math.sqrt(1.7e308 * math.log(2))

    def test_overflowing_rate_fails_before_any_fit(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr(pairscreen.pipeline, "stage1_screen", must_not_run)
        data = make_dataset(np.random.default_rng(0), p=4)
        with pytest.raises(ValueError, match="alpha1"):
            run_two_stage(data, alpha1=1.7e308, eta=0.1)


class TestStage1:
    def test_alpha_zero_passes_all_fitted(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng)
        screen = stage1_screen(data, 0.0)
        assert screen.passing == tuple(range(data.p))
        assert screen.failed == {}

    def test_threshold_splits_by_statistic(self):
        rng = np.random.default_rng(1)
        data = make_dataset(rng)
        screen = stage1_screen(data, 0.0)
        cut = float(np.median(np.abs(screen.t_stats)))
        screen2 = stage1_screen(data, cut)
        expect = tuple(j for j in range(data.p) if abs(screen.t_stats[j]) >= cut)
        assert screen2.passing == expect

    def test_constant_column_fails_singular(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        x[:, 2] = 3.0
        data = Dataset(x=x, y=rng.standard_normal(50), family=GAUSSIAN)
        screen = stage1_screen(data, 0.0)
        assert screen.failed[2] == "SINGULAR_DESIGN"
        assert 2 not in screen.passing
        assert np.isnan(screen.t_stats[2])

    def test_all_fits_failed(self):
        x = np.ones((30, 3))
        x[:, 1] = 2.0
        x[:, 2] = -1.0
        rng = np.random.default_rng(3)
        data = Dataset(x=x, y=rng.standard_normal(30), family=GAUSSIAN)
        with pytest.raises(AllFitsFailed):
            stage1_screen(data, 0.0)

    def test_nan_threshold_rejected(self):
        data = make_dataset(np.random.default_rng(4))
        for bad in (math.nan, -0.5):
            with pytest.raises(ValueError, match="alpha"):
                stage1_screen(data, bad)


class TestStage2:
    def test_empty_and_singleton_passing(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng)
        screen = stage1_screen(data, 0.0)
        empty = type(screen)(t_stats=screen.t_stats, passing=(), failed={})
        assert_same_pairs(stage2_tests(data, empty), stage2_tests(data, empty))
        assert fitted_and_skipped(stage2_tests(data, empty)) == ([], [])
        single = type(screen)(t_stats=screen.t_stats, passing=(3,), failed={})
        assert fitted_and_skipped(stage2_tests(data, single)) == ([], [])

    def test_lexicographic_pair_enumeration(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng)
        screen = stage1_screen(data, 0.0)
        three = type(screen)(
            t_stats=screen.t_stats, passing=(0, 1, 2), failed={}
        )
        result = stage2_tests(data, three)
        keys = list(zip(result.j.tolist(), result.k.tolist()))
        assert keys == [(0, 1), (0, 2), (1, 2)]

    def test_duplicated_variable_pair_skipped(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 4))
        x[:, 1] = x[:, 0]
        data = Dataset(x=x, y=rng.standard_normal(60), family=GAUSSIAN)
        screen = stage1_screen(data, 0.0)
        result = stage2_tests(data, screen)
        skipped_keys = {(j, k): reason for j, k, reason in fitted_and_skipped(result)[1]}
        assert skipped_keys.get((0, 1)) == "SINGULAR_DESIGN"

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # blocks of 1-3 pairs on the gaussian and logistic row paths and the
        # cell path, each with a pair that is handed back to a full fit: the
        # logistic kernel settles and drops stopped fits mid-block
        rng = np.random.default_rng(7)
        x = make_dataset(rng, n=60, p=7).x
        x[:, 5] = x[:, 2]
        rows = Dataset(x=x, y=rng.standard_normal(60), family=GAUSSIAN)
        g = (rng.random((60, 6)) < 0.5).astype(float)
        y = (rng.random(60) < 0.4).astype(float)
        y[(g[:, 1] == 1.0) & (g[:, 3] == 1.0)] = 1.0
        assert TestCellCounts.pairs_with_a_pure_cell(g, y) == [(1, 3)]
        cells = Dataset(x=g, y=y, family=LOGISTIC)
        x = rng.standard_normal((60, 7))
        x[:, 5] = x[:, 2]
        y = (rng.random(60) < LOGISTIC.mean(0.5 * x[:, 0] + x[:, 0] * x[:, 1])).astype(float)
        logistic_rows = Dataset(x=x, y=y, family=LOGISTIC)
        for data, rows_per_pair in ((rows, rows.n), (logistic_rows, logistic_rows.n), (cells, 8)):
            screen = ScreenResult(t_stats=np.zeros(data.p), passing=tuple(range(data.p)))
            whole = stage2_tests(data, screen)
            if data is not cells:
                assert fitted_and_skipped(whole)[1] == [(2, 5, "SINGULAR_DESIGN")]
            for pairs_per_block in (1, 2, 3):
                block_rows = rows_per_pair * pairs_per_block
                monkeypatch.setattr(pairscreen.pipeline, "_BLOCK_ROWS", block_rows)
                for workers in (1, 2):
                    assert_same_pairs(stage2_tests(data, screen, workers=workers), whole)
            monkeypatch.undo()


def hand_back(monkeypatch, flagged):
    """Make the batched stage-2 kernel hand the flagged designs to fit_glm."""
    real_kernel = pairscreen.pipeline._batched_wald

    def batched_wald(design, *args):
        stats = real_kernel(design, *args)
        stats[[flagged(v) for v in design]] = np.nan
        return stats

    monkeypatch.setattr(pairscreen.pipeline, "_batched_wald", batched_wald)


class TestNotConverged:
    """A fit that ends without meeting the score criterion is a failure with
    its own code; the real fit is marked unconverged for chosen columns, and
    the batched kernel hands chosen pairs to that fit."""

    def patch_fit(self, monkeypatch, flagged):
        real_fit = pairscreen.pipeline.fit_glm

        def fit_glm(design, y, family, weights=None):
            fit = real_fit(design, y, family, weights)
            if flagged(design.values):
                return dataclasses.replace(fit, converged=False)
            return fit

        monkeypatch.setattr(pairscreen.pipeline, "fit_glm", fit_glm)

    def test_stage1_column(self, monkeypatch):
        data = make_dataset(np.random.default_rng(8))
        col = data.x[:, 2]
        self.patch_fit(monkeypatch, lambda v: v.shape[1] == 2 and np.array_equal(v[:, 1], col))
        screen = stage1_screen(data, 0.0)
        assert screen.failed == {2: "NOT_CONVERGED"}
        assert 2 not in screen.passing
        assert np.isnan(screen.t_stats[2])

    def test_stage2_pair(self, monkeypatch):
        data = make_dataset(np.random.default_rng(9))
        col_j, col_k = data.x[:, 1], data.x[:, 3]

        def flagged(v):
            return v.shape[1] == 4 and np.array_equal(v[:, 1], col_j) and np.array_equal(
                v[:, 2], col_k
            )

        hand_back(monkeypatch, flagged)
        self.patch_fit(monkeypatch, flagged)
        report = run_two_stage(data, alpha1=0.0, eta=0.1)
        fitted, skipped = fitted_and_skipped(report.pairs)
        assert skipped == [(1, 3, "NOT_CONVERGED")]
        assert (1, 3) not in {(j, k) for j, k, _ in fitted}
        assert report.p1 == data.p
        assert report.m_tested == data.p * (data.p - 1) // 2 == len(fitted) + 1


@st.composite
def binary_logistic_data(draw):
    """0/1 columns at random rates, with constant, copied and complemented
    columns, so that some cells are empty and some pure; y may be nearly
    all 0 or all 1."""
    n = draw(st.integers(5, 80))
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = st.sampled_from([0.0, 0.03, 0.2, 0.5, 0.8, 0.97, 1.0])
    x = np.empty((n, p))
    for j in range(p):
        kind = draw(st.sampled_from(["random", "random", "random", "copy", "complement"]))
        if j > 0 and kind == "copy":
            x[:, j] = x[:, j - 1]
        elif j > 0 and kind == "complement":
            x[:, j] = 1.0 - x[:, j - 1]
        else:
            x[:, j] = rng.random(n) < draw(rates)
    y = (rng.random(n) < draw(st.sampled_from([0.02, 0.1, 0.5, 0.9, 0.98]))).astype(float)
    return Dataset(x=x, y=y, family=LOGISTIC)


class TestCellCounts:
    """Logistic fits on 0/1 columns run from cell counts; both stages must
    agree with the fit on the full rows, item by item.  A stage-1 column
    with an empty cell is SINGULAR_DESIGN and one with a pure cell is
    SEPARATION, from its counts.  A stage-2 pair with every cell count
    positive (live) gets the closed-form MLE, which the 40-digit oracle
    checks; fit_glm's Newton T stops at its score target, up to about 1e-8
    from the MLE."""

    @settings(max_examples=200, deadline=None)
    @given(data=binary_logistic_data(), alpha=st.sampled_from([0.0, 0.5, 1.5]))
    def test_same_outcomes_as_full_fits(self, data, alpha):
        fit_outcome = pairscreen.pipeline._fit_outcome
        stage1 = []
        for j in range(data.p):
            cells = [data.y[data.x[:, j] == a] for a in (0.0, 1.0)]
            if min(cell.size for cell in cells) == 0:
                stage1.append((math.nan, "SINGULAR_DESIGN"))
            elif any(cell.min() == cell.max() for cell in cells):
                stage1.append((math.nan, "SEPARATION"))
            else:
                design = build_stage1_design(data.x[:, j])
                stage1.append(fit_outcome(design, data.y, LOGISTIC, 1))
        failed = {j: code for j, (_, code) in enumerate(stage1) if code}
        if len(failed) == data.p:
            with pytest.raises(AllFitsFailed):
                stage1_screen(data, alpha)
            return
        screen = stage1_screen(data, alpha)
        assert screen.failed == failed
        for j, (stat, code) in enumerate(stage1):
            if not code:
                assert abs(screen.t_stats[j] - stat) <= 1e-10
        passing = tuple(j for j, (t, code) in enumerate(stage1) if not code and abs(t) >= alpha)
        assert screen.passing == passing

        result = stage2_tests(data, screen)
        expected_pairs, expected_skipped = [], []
        for a, j in enumerate(passing):
            for k in passing[a + 1 :]:
                design = build_stage2_design(data.x[:, j], data.x[:, k])
                stat, code = fit_outcome(design, data.y, LOGISTIC, 3)
                if not code:
                    expected_pairs.append((j, k, stat))
                else:
                    expected_skipped.append((j, k, code))
        fitted, skipped = fitted_and_skipped(result)
        assert skipped == expected_skipped
        assert [(j, k) for j, k, _ in fitted] == [(j, k) for j, k, _ in expected_pairs]
        for (j, k, got), (_, _, want) in zip(fitted, expected_pairs):
            cells = [(data.x[:, j] == a) & (data.x[:, k] == b) for b in (0, 1) for a in (0, 1)]
            cases = [int(data.y[c].sum()) for c in cells]
            controls = [int(c.sum()) - ones for c, ones in zip(cells, cases)]
            if min(cases + controls) > 0:
                oracle = log_odds_ratio_oracle(cases, controls)
                assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))
                assert abs(got - want) <= 1e-8
            else:  # handed back to fit_glm
                assert abs(got - want) <= 1e-10

    @staticmethod
    def record_stage1_fits(monkeypatch) -> list:
        """Wrap fit_glm in ``pipeline``; the list gets each call's weights."""
        real_fit, fits = pairscreen.pipeline.fit_glm, []

        def fit_glm(design, y, family, weights=None):
            assert design.values[:, 1].tolist() == [0.0, 1.0, 0.0, 1.0]
            fits.append(weights.tolist())
            return real_fit(design, y, family, weights)

        monkeypatch.setattr(pairscreen.pipeline, "fit_glm", fit_glm)
        return fits

    @staticmethod
    def cell_counts(x, y) -> list:
        """Counts of (x, y) = (0, 1), (1, 1), (0, 0), (1, 0): the stage-1 weights."""
        return [float(np.sum((x == a) & (y == b))) for b in (1, 0) for a in (0, 1)]

    def test_stage1_codes_empty_and_pure_cells_from_counts(self, monkeypatch):
        rng = np.random.default_rng(33)
        x = (rng.random((300, 4)) < 0.4).astype(float)
        y = (rng.random(300) < 0.4).astype(float)
        x[:, 1] = 0.0  # constant: an empty cell
        x[:, 2] = 0.0
        x[:40, 2] = 1.0
        y[:40] = 1.0  # every carrier is a case: a pure cell
        fits = self.record_stage1_fits(monkeypatch)
        screen = stage1_screen(Dataset(x=x, y=y, family=LOGISTIC), 0.0)
        assert fits == [self.cell_counts(x[:, j], y) for j in (0, 3)]
        assert min(min(w) for w in fits) > 0
        assert screen.failed == {1: "SINGULAR_DESIGN", 2: "SEPARATION"}
        assert screen.passing == (0, 3)

    def test_stage1_column_whose_carriers_are_all_controls_never_passes(self):
        # no MLE: a row fit's Newton T runs off to about -136 and passes any screen
        rng = np.random.default_rng(35)
        x = (rng.random((400, 4)) < 0.3).astype(float)
        y = (rng.random(400) < 0.4).astype(float)
        y[x[:, 0] == 1.0] = 0.0
        screen = stage1_screen(Dataset(x=x, y=y, family=LOGISTIC), 2.0)
        assert screen.failed == {0: "SEPARATION"}
        assert np.isnan(screen.t_stats[0]) and screen.passing == ()

    def test_stage1_fits_each_count_vector_once(self, monkeypatch):
        rng = np.random.default_rng(34)
        n = 300
        y = (rng.random(n) < 0.4).astype(float)
        a, b = (rng.random((2, n)) < [[0.3], [0.6]]).astype(float)
        pure = np.zeros(n)
        pure[np.flatnonzero(y == 0.0)[:25]] = 1.0  # every carrier is a control

        def shuffled(col):  # other rows, same counts of cases and of controls
            out = col.copy()
            for rows in (np.flatnonzero(y == 1.0), np.flatnonzero(y == 0.0)):
                out[rows] = col[rng.permutation(rows)]
            assert not np.array_equal(out, col)
            return out

        zeros, ones = np.zeros(n), np.ones(n)
        columns = [a, b, shuffled(a), pure, a, shuffled(pure), zeros, shuffled(b), ones, zeros]
        x = np.column_stack(columns)
        fits = self.record_stage1_fits(monkeypatch)
        screen = stage1_screen(Dataset(x=x, y=y, family=LOGISTIC), 0.0)
        assert fits == [self.cell_counts(a, y), self.cell_counts(b, y)]  # first a, then b
        assert screen.failed == {
            3: "SEPARATION", 5: "SEPARATION",
            6: "SINGULAR_DESIGN", 8: "SINGULAR_DESIGN", 9: "SINGULAR_DESIGN",
        }
        assert np.isnan(screen.t_stats[list(screen.failed)]).all()
        for j in (0, 1, 2, 4, 7):  # the same float as a screen of the column on its own
            alone = stage1_screen(Dataset(x=np.column_stack([x[:, j], zeros]), y=y, family=LOGISTIC), 0.0)
            assert screen.t_stats[j].tobytes() == alone.t_stats[0].tobytes()
        assert screen.t_stats[0] != screen.t_stats[1]

    @staticmethod
    def count_pair_fits(monkeypatch, data):
        """Run stage 2 and return the pairs it fitted with fit_glm."""
        screen = stage1_screen(data, 0.0)
        real_fit = pairscreen.glm.fit_glm
        fitted = []

        def fit_glm(design, y, family, weights=None):
            cols = [
                j
                for v in design.values.T[1:3]
                for j in range(data.p)
                if np.array_equal(v, data.x[:, j])
            ]
            fitted.append(tuple(cols))
            return real_fit(design, y, family, weights)

        monkeypatch.setattr(pairscreen.pipeline, "fit_glm", fit_glm)
        stage2_tests(data, screen)
        return fitted

    @staticmethod
    def pairs_with_a_pure_cell(x, y):
        p = x.shape[1]
        return [
            (j, k)
            for j in range(p)
            for k in range(j + 1, p)
            if any(
                cell.size and cell.min() == cell.max()
                for cell in (y[(x[:, j] == a) & (x[:, k] == b)] for a in (0, 1) for b in (0, 1))
            )
        ]

    def test_full_fits_only_for_pairs_with_a_pure_cell(self, monkeypatch):
        rng = np.random.default_rng(31)
        x = (rng.random((400, 5)) < 0.5).astype(float)
        y = (rng.random(400) < 0.4).astype(float)
        assert self.pairs_with_a_pure_cell(x, y) == []
        data = Dataset(x=x, y=y, family=LOGISTIC)
        assert self.count_pair_fits(monkeypatch, data) == []

        y[(x[:, 1] == 1.0) & (x[:, 3] == 1.0)] = 1.0
        assert self.pairs_with_a_pure_cell(x, y) == [(1, 3)]
        data = Dataset(x=x, y=y, family=LOGISTIC)
        assert self.count_pair_fits(monkeypatch, data) == [(1, 3)]


@st.composite
def continuous_pair_data(draw):
    """Continuous columns, some copied, nearly copied (an eigenvalue ratio of
    the Gram below the kernel's 1e-12, a singular-value ratio above fit_glm's
    1e-10), constant, affine-dependent or huge;
    logistic responses that may be nearly separated, or gaussian ones that
    may be an exact fit of one pair's design, at two scales; with or
    without adjusters."""
    family = draw(st.sampled_from([LOGISTIC, GAUSSIAN]))
    q = draw(st.integers(0, 2))
    n = draw(st.integers(5 + q, 60))
    p = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    for j in range(p):
        kinds = ["random", "random", "copy", "near", "constant", "affine", "huge"]
        kind = draw(st.sampled_from(kinds))
        if j > 0 and kind == "copy":
            x[:, j] = x[:, j - 1]
        elif j > 0 and kind == "near":
            x[:, j] = x[:, j - 1] + 1e-7 * rng.standard_normal(n)
        elif kind == "constant":
            x[:, j] = 1.5
        elif j > 0 and kind == "affine":
            x[:, j] = 2.0 * x[:, j - 1] - 0.5
        elif kind == "huge":  # products of design columns overflow
            x[:, j] *= 1e80
    adjust = rng.standard_normal((n, q)) if q else None
    slope = draw(st.sampled_from([0.5, 2.0, 50.0] if family is LOGISTIC else [0.5, 2.0]))
    theta = slope * (x[:, 0] - x[:, -1] + x[:, 0] * x[:, -1])
    if family is GAUSSIAN:
        y = 1.0 + theta + (0.0 if draw(st.booleans()) else rng.standard_normal(n))
        y *= draw(st.sampled_from([1.0, 1e4]))  # exact fits at scale keep rounding residuals
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-np.clip(theta, -35, 35)))).astype(float)
    return x, y, family, adjust


def close_or_failed(got, want, code):
    """``got`` is NaN where the full fit failed with ``code``, and else within
    1e-10 of ``want``, relative above |T| = 1: two evaluations of T in
    float64 differ in relative terms, and a T near 100 occurs on n = 5."""
    if code:
        return math.isnan(got)
    return abs(got - want) <= 1e-10 * max(1.0, abs(want))


def full_step_past_the_maximum(X, y):
    """Whether a full Newton step from beta = 0 onwards passes the maximum,
    score(beta + s) . s < -5e-13, while no step before the score target
    leaves the |beta| <= 30 box or lowers the working log-likelihood by
    more than fit_glm's noise allowance."""

    def loglik(beta):
        return np.mean(y * (X @ beta) - LOGISTIC.cumulant(X @ beta))

    beta, passed = np.zeros(X.shape[1]), False
    for _ in range(100):
        mu = LOGISTIC.mean(X @ beta)
        score = X.T @ (y - mu) / y.size
        if np.abs(score).max() <= 1e-10:
            return passed
        step = np.linalg.solve((X.T * (mu * (1.0 - mu))) @ X / y.size, score)
        ll, cand = loglik(beta), beta + step
        if np.abs(cand).max() > 30.0 or loglik(cand) < ll - 1e-12 * (1.0 + abs(ll)):
            return False
        passed |= X.T @ (y - LOGISTIC.mean(X @ cand)) / y.size @ step < -5e-13
        beta = cand
    return False


class TestBatchedFits:
    """Stage-2 pairs are fitted in blocks by the batched kernel, which hands
    back what only fit_glm can decide; the outcomes must be those of
    fit_glm on each pair's own design."""

    @staticmethod
    def full_fits(x, y, family, adjust, jj, kk):
        """``_fit_outcome`` per pair; ``y`` is shared or one row per pair."""
        ys = np.broadcast_to(y, (jj.size, x.shape[0]))
        return [
            pairscreen.pipeline._fit_outcome(
                build_stage2_design(x[:, j], x[:, k], adjust), y_jk, family, 3
            )
            for j, k, y_jk in zip(jj.tolist(), kk.tolist(), ys)
        ]

    @settings(max_examples=200, deadline=None)
    @given(case=continuous_pair_data())
    def test_same_outcomes_as_full_fits(self, case):
        x, y, family, adjust = case
        data = Dataset(x=x, y=y, family=family, adjust=adjust)
        screen = ScreenResult(t_stats=np.zeros(data.p), passing=tuple(range(data.p)))
        result = stage2_tests(data, screen)
        expected = self.full_fits(x, y, family, adjust, result.j, result.k)
        assert result.status.tolist() == [code for _, code in expected]
        for got, (want, code) in zip(result.t.tolist(), expected):
            assert close_or_failed(got, want, code)

    @settings(max_examples=100, deadline=None)
    @given(case=continuous_pair_data(), seed=st.integers(0, 2**32 - 1))
    def test_one_response_per_pair(self, case, seed):
        # simulate's path: stage2_tests asks for one response row per pair
        x, _, family, _ = case
        p = x.shape[1]
        jj, kk = np.triu_indices(p, 1)
        rng = np.random.default_rng(seed)
        if family is GAUSSIAN:
            ys = rng.standard_normal((jj.size, x.shape[0])) + x[:, jj].T * x[:, kk].T
        else:
            ys = (rng.random((jj.size, x.shape[0])) < 0.3).astype(float)
        row_of = np.zeros((p, p), dtype=int)
        row_of[jj, kk] = np.arange(jj.size)
        data = Dataset(x=x, y=ys[0], family=family)
        screen = ScreenResult(t_stats=np.zeros(p), passing=tuple(range(p)))
        result = stage2_tests(data, screen, pair_response=lambda j, k: ys[row_of[j, k]])
        expected = self.full_fits(x, ys, family, None, jj, kk)
        assert result.status.tolist() == [code for _, code in expected]
        for got, (want, code) in zip(result.t.tolist(), expected):
            assert close_or_failed(got, want, code)

    @staticmethod
    def pair_fits(monkeypatch, data):
        """Run both stages; return the pairs that stage 2 fitted with fit_glm."""
        screen = stage1_screen(data, 0.0)
        real_fit, fitted = pairscreen.pipeline.fit_glm, []

        def fit_glm(design, y, family, weights=None):
            fitted.append(tuple(design.values[:, 1:3].T.tolist()))
            return real_fit(design, y, family, weights)

        monkeypatch.setattr(pairscreen.pipeline, "fit_glm", fit_glm)
        result = stage2_tests(data, screen)
        cols = data.x.T.tolist()
        pairs = [(j, k) for j in range(data.p) for k in range(j + 1, data.p)]
        return [(j, k) for a, b in fitted for j, k in pairs if [cols[j], cols[k]] == [a, b]], result

    def test_full_fits_only_for_handed_back_pairs(self, monkeypatch):
        data = make_dataset(np.random.default_rng(32), n=200, p=6, family=LOGISTIC)
        assert self.pair_fits(monkeypatch, data)[0] == []

        x = data.x.copy()
        x[:, 4] = x[:, 2]
        data = Dataset(x=x, y=data.y, family=LOGISTIC)
        fitted, result = self.pair_fits(monkeypatch, data)
        assert fitted == [(2, 4)]
        assert fitted_and_skipped(result)[1] == [(2, 4, "SINGULAR_DESIGN")]

    @staticmethod
    def pair_designs(x):
        """The B x n x 4 stage-2 designs of every pair of columns of ``x``."""
        jj, kk = np.triu_indices(x.shape[1], 1)
        return np.stack([build_stage2_design(x[:, j], x[:, k]).values for j, k in zip(jj, kk)])

    def assert_handed_back(self, x, y):
        """The kernel gives the pair NaN, and stage2_tests gives it
        _fit_outcome's (T, code) bit for bit, NaN too."""
        assert math.isnan(pairscreen.glm._batched_wald(self.pair_designs(x), y, LOGISTIC, 3)[0])
        design = build_stage2_design(x[:, 0], x[:, 1])
        t, code = pairscreen.pipeline._fit_outcome(design, y, LOGISTIC, 3)
        data = Dataset(x=x, y=y, family=LOGISTIC)
        result = stage2_tests(data, ScreenResult(t_stats=np.zeros(2), passing=(0, 1)))
        assert result.status.tolist() == [code]
        assert result.t.tobytes() == np.float64(t).tobytes()

    def test_steps_the_concavity_bound_misses_take_the_ll_test(self, monkeypatch):
        # the kernel hands such fits back; fit_glm alone gives the step its ll test
        tested, real_loglik = [], pairscreen.glm._working_loglik

        def loglik(*args):
            tested.append(args)
            return real_loglik(*args)

        monkeypatch.setattr(pairscreen.glm, "_working_loglik", loglik)
        found = list(seeded_fits(full_step_past_the_maximum, 1000))
        assert found
        for x, y in found:
            tested.clear()
            self.assert_handed_back(x, y)
            assert len(tested) >= 4  # ll at beta and at beta + s, in stage2_tests and here

    def test_a_full_step_that_lowers_ll_is_handed_back(self):
        # such fits need a halved Newton step, which only fit_glm takes
        found = list(halving_fits())
        assert found
        for x, y in found:
            self.assert_handed_back(x, y)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4])
    def test_fits_still_going_after_max_iter_are_handed_back(self, monkeypatch, max_iter):
        # fit_glm decides between converged and NOT_CONVERGED, with its own
        # Newton steps capped alike
        monkeypatch.setattr(pairscreen.glm, "_MAX_ITER", max_iter)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 8))
        y = (rng.random(200) < 1.0 / (1.0 + np.exp(-2.0 * x[:, 0] * x[:, 1]))).astype(float)
        data = Dataset(x=x, y=y, family=LOGISTIC)
        result = stage2_tests(data, ScreenResult(t_stats=np.zeros(8), passing=tuple(range(8))))
        expected = self.full_fits(x, y, LOGISTIC, None, result.j, result.k)
        assert result.status.tolist() == [code for _, code in expected]
        assert "NOT_CONVERGED" in result.status.tolist()  # 28, 26, 7, 1 of 28 at max_iter 1-4
        for got, (want, code) in zip(result.t.tolist(), expected):
            assert close_or_failed(got, want, code)

    def test_a_gaussian_fit_is_settled_after_its_one_solve(self, monkeypatch):
        # y near 1e10: the score after the exact solve is rounding noise far
        # above the score target, which a gaussian fit does not have to meet
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((100, 20)), 1e10 * (1.0 + 0.01 * rng.standard_normal(100))
        data = Dataset(x=x, y=y, family=GAUSSIAN)
        calls, real_fit = [], pairscreen.pipeline.fit_glm

        def fit_glm(*args):
            calls.append(args)
            return real_fit(*args)

        monkeypatch.setattr(pairscreen.pipeline, "fit_glm", fit_glm)
        result = stage2_tests(data, ScreenResult(t_stats=np.zeros(20), passing=tuple(range(20))))
        assert calls == []  # no pair is handed back
        expected = self.full_fits(x, y, GAUSSIAN, None, result.j, result.k)
        want = np.array([t for t, _ in expected])
        assert [code for _, code in expected] == [""] * 190
        # the worst relative gap was 2.2e-12
        assert (np.abs(result.t - want) <= 1e-9 * np.abs(want)).all()


def _dataset_fields(**changes):
    rng = np.random.default_rng(17)
    fields = {"x": rng.standard_normal((12, 3)), "y": rng.standard_normal(12), "family": GAUSSIAN}
    return {**fields, **changes}


class TestDatasetChecks:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"x": np.zeros(12)}, "x must be an n x p matrix"),
            ({"x": np.zeros((12, 1))}, "need p >= 2"),
            ({"y": np.zeros(11)}, "y must have length 12"),
            ({"x": np.full((12, 3), math.inf)}, "x and y must be finite"),
            ({"y": np.full(12, math.nan)}, "x and y must be finite"),
            ({"adjust": np.zeros((11, 1))}, "adjust must be a finite n x q matrix"),
            ({"adjust": np.full(12, math.nan)}, "adjust must be a finite n x q matrix"),
            ({"labels": ("a", "b")}, "labels must match the number of columns"),
        ],
    )
    def test_bad_input_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            Dataset(**_dataset_fields(**changes))

    def test_one_dimensional_adjust_is_a_column(self):
        adjust = np.random.default_rng(18).standard_normal(12)
        flat = Dataset(**_dataset_fields(adjust=adjust))
        column = Dataset(**_dataset_fields(adjust=adjust[:, None]))
        assert flat.adjust.shape == (12, 1)
        screen = ScreenResult(t_stats=np.zeros(3), passing=(0, 1, 2))
        got, want = stage2_tests(flat, screen).t, stage2_tests(column, screen).t
        assert got.tobytes() == want.tobytes()


class TestFdrCutoff:
    def test_hand_worked_example(self):
        # feasible on (0.5, 3.5] with R = 2: t = G^-1(0.05 * 2 / 3) = 2.1280452341849845
        assert fdr_cutoff([4.0, 3.5, 0.5], 3, 10, 0.05) == pytest.approx(2.12805, abs=1e-4)

    def test_infeasible_returns_cap(self):
        # G(t) <= 0.01 needs t >= 2.5758 > sqrt(2 log 10) = 2.145966026289347
        assert fdr_cutoff([], 5, 10, 0.05) == pytest.approx(2.145966026289347, abs=1e-12)

    def test_all_statistics_huge(self):
        for k in (1, 4, 9):
            val = fdr_cutoff([10.0] * k, k, 10, 0.05)
            assert val == pytest.approx(1.9599639845400536, abs=1e-8)

    def test_cap_binds_when_p_small(self):
        # sqrt(2 log 2) = 1.177 < G^-1(0.05): infimum does not exist in range
        assert fdr_cutoff([10.0, 10.0], 2, 2, 0.05) == pytest.approx(
            math.sqrt(2 * math.log(2)), abs=1e-12
        )

    def test_m_zero_empty_semantics(self):
        assert fdr_cutoff([], 0, 50, 0.1) == pytest.approx(math.sqrt(2 * math.log(50)))

    def test_nan_statistics_count_in_m_only(self):
        # R(t) counts the single fitted 5.0 at every t: G^-1(0.05 / 3) = 2.394
        assert fdr_cutoff([5.0, math.nan, math.nan], 3, 100, 0.05) == pytest.approx(
            2.39398, abs=1e-4
        )
        assert fdr_cutoff([math.nan] * 3, 3, 100, 0.05) == fdr_cutoff([], 3, 100, 0.05)

    @settings(max_examples=200, deadline=None)
    @given(
        stats=st.lists(st.floats(0.0, 8.0), max_size=30),
        nans=st.integers(1, 10),
        extra=st.integers(0, 10),
        p=st.integers(2, 500),
        eta=st.floats(0.01, 0.5),
        draw=st.data(),
    )
    def test_nan_statistics_leave_the_cutoff_unchanged(self, stats, nans, extra, p, eta, draw):
        m = len(stats) + nans + extra
        mixed = draw.draw(st.permutations(stats + [math.nan] * nans))
        assert fdr_cutoff(mixed, m, p, eta) == fdr_cutoff(stats, m, p, eta)

    def test_m_smaller_than_stats_rejected(self):
        # M must be an integer count: M = 0.5 once gave t_hat = 0, rejecting every pair
        for stats, m, eta in [
            ([1.0, 2.0], 1, 0.05),
            ([], 0.5, 0.6),
            ([1.0, 2.0], 2.5, 0.05),
            ([1.0], math.nan, 0.05),
            ([1.0], math.inf, 0.05),
        ]:
            with pytest.raises(ValueError, match="must be an integer >="):
                fdr_cutoff(stats, m, 10, eta)

    def test_numpy_integer_m_accepted(self):
        assert fdr_cutoff([4.0, 3.5, 0.5], np.int64(3), 10, 0.05) == fdr_cutoff(
            [4.0, 3.5, 0.5], 3, 10, 0.05
        )

    def test_eta_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
            with pytest.raises(ValueError, match=r"eta must be in \(0, 1\), got"):
                fdr_cutoff([1.0], 1, 10, bad)

    def test_matches_brute_force_oracle(self):
        # acceptance-grade property: 100 random instances, agreement <= 1e-6
        rng = np.random.default_rng(1234)
        for trial in range(100):
            p = int(rng.integers(5, 400))
            n_stats = int(rng.integers(0, 60))
            m = n_stats + int(rng.integers(0, 20))
            scale = float(rng.uniform(0.5, 3.0))
            stats = np.abs(rng.normal(scale=scale, size=n_stats))
            if rng.random() < 0.3 and n_stats:
                stats[: n_stats // 2] += 3.0
            eta = float(rng.uniform(0.01, 0.3))
            got = fdr_cutoff(stats, m, p, eta)
            want = cutoff_oracle(stats, m, p, eta)
            assert abs(got - want) <= 1e-6, (
                f"trial {trial}: exact {got} vs oracle {want} "
                f"(p={p}, m={m}, eta={eta}, stats={stats!r})"
            )

    @settings(max_examples=300, deadline=None)
    @given(
        listed=st.lists(st.one_of(st.floats(-10.0, 10.0), st.just(math.inf)), max_size=40),
        size=st.one_of(st.integers(0, 100), st.integers(1000, 5000)),
        shift=st.sampled_from([0.0, 2.0, 4.0, 8.0]),
        digits=st.sampled_from([None, 0, 1, 2]),
        zeros=st.integers(0, 5),
        nans=st.integers(0, 5),
        extra=st.sampled_from([0, 1, 10, 1000, 10**6]),
        p=st.integers(2, 10**6),
        eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jump_search_is_the_scan(
        self, listed, size, shift, digits, zeros, nans, extra, p, eta, seed
    ):
        # ties (rounded draws), zeros, NaNs, values >= t_max, M >= size
        rng = np.random.default_rng(seed)
        drawn = np.abs(rng.standard_normal(size)) + shift * (rng.random(size) < 0.1)
        stats = np.concatenate([listed, drawn, np.zeros(zeros), np.full(nans, math.nan)])
        if digits is not None:
            stats = np.round(stats, digits)
        m = stats.size + extra
        got, want = fdr_cutoff(stats, m, p, eta), scan_cutoff(stats, m, p, eta)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        # never 0, and never below G^-1(eta): every level q is at most eta
        assert got > 0.0
        assert got >= min(gauss_tail_inverse(eta), math.sqrt(2.0 * math.log(p))) - 1e-9

    @pytest.mark.parametrize("shifted", [0, 500])
    def test_search_evaluates_few_tails(self, monkeypatch, shifted):
        # the plain scan evaluates G 4,400-5,000 times on these statistics
        stats = np.abs(np.random.default_rng(0).standard_normal(5000))
        stats[:shifted] += 4.0
        calls, real_tail = [], pairscreen.pipeline.gauss_two_sided_tail

        def gauss_two_sided_tail(t):
            calls.append(t)
            return real_tail(t)

        monkeypatch.setattr(pairscreen.pipeline, "gauss_two_sided_tail", gauss_two_sided_tail)
        t_hat = fdr_cutoff(stats, 5000, 100, 0.05)
        assert len(calls) <= 20
        monkeypatch.undo()
        assert t_hat == scan_cutoff(stats, 5000, 100, 0.05)

    def test_range_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            p = int(rng.integers(2, 1000))
            stats = np.abs(rng.normal(size=int(rng.integers(0, 30))))
            m = stats.size + int(rng.integers(0, 5))
            t_hat = fdr_cutoff(stats, m, p, 0.05)
            assert 0.0 <= t_hat <= math.sqrt(2 * math.log(p)) + 1e-15


def all_pairs(p, t, status=()):
    """PairTestResult over every pair of p variables; ``status`` maps an
    index to a failure code (its T becomes NaN)."""
    jj, kk = np.triu_indices(p, 1)
    t = np.array(t, dtype=float)
    codes = np.full(jj.size, "", dtype=object)
    for i, code in dict(status).items():
        t[i], codes[i] = math.nan, code
    return PairTestResult(j=jj, k=kk, t=t, status=codes)


class TestCutoffAndReject:
    cutoff_and_reject = staticmethod(pairscreen.pipeline._cutoff_and_reject)
    # pairs of 5 variables: (0,1) (0,2) (0,3) (0,4) (1,2) (1,3) (1,4) (2,3) (2,4) (3,4)
    T1 = np.array([2.0, -1.5, 1.0, 0.5, np.nan])
    T = [4.0, -3.5, 9.0, 8.0, 0.2, 8.5, 7.0, 9.5, 6.0, 7.5]

    def test_pairs_outside_the_passing_set_are_neither_counted_nor_rejected(self):
        # at alpha = 1 variables 0, 1, 2 pass; pair (1, 2) failed its fit
        pairs = all_pairs(5, self.T, {4: "SINGULAR_DESIGN"})
        p1, t_hat, rejected = self.cutoff_and_reject(self.T1, 1.0, pairs, 5, 0.2)
        assert p1 == 3
        assert t_hat == fdr_cutoff([4.0, 3.5], 3, 5, 0.2)
        assert rejected.tolist() == [True, True] + [False] * 8

    def test_nan_stage1_statistic_never_passes(self):
        pairs = all_pairs(5, self.T)
        p1, t_hat, rejected = self.cutoff_and_reject(self.T1, 0.0, pairs, 5, 0.2)
        assert p1 == 4
        tested = pairs.k != 4
        assert t_hat == fdr_cutoff(np.abs(pairs.t[tested]), 6, 5, 0.2)
        assert not rejected[~tested].any()

    def test_strict_uses_greater_than(self):
        # infeasible everywhere: t_hat is the cap, which pair (0, 1) hits exactly
        t_max = math.sqrt(2.0 * math.log(3))
        pairs = all_pairs(3, [t_max, 0.1, 0.1])
        t1 = np.ones(3)
        loose = self.cutoff_and_reject(t1, 0.5, pairs, 3, 0.05)
        strict = self.cutoff_and_reject(t1, 0.5, pairs, 3, 0.05, strict=True)
        assert loose[1] == strict[1] == t_max
        assert loose[2].tolist() == [True, False, False]
        assert strict[2].tolist() == [False, False, False]


class TestRunTwoStage:
    def test_rejection_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            data = make_dataset(rng, n=70, p=8)
            report = run_two_stage(data, 0.2, 0.1)
            fitted, skipped = fitted_and_skipped(report.pairs)
            for j, k, t in rejected_pairs(report):
                assert abs(t) >= report.t_hat
                assert (j, k, t) in fitted
            skipped_keys = {(j, k) for j, k, _ in skipped}
            rejected_keys = {(j, k) for j, k, _ in rejected_pairs(report)}
            assert not (skipped_keys & rejected_keys)
            assert report.m_tested == len(fitted) + len(skipped)
            assert 0.0 <= report.t_hat <= math.sqrt(2 * math.log(data.p)) + 1e-15

    def test_omega_formula(self):
        # (2p + p1(p1-1)) / (p(p-1)) recomputed from the report
        rng = np.random.default_rng(9)
        data = make_dataset(rng, n=90, p=10)
        report = run_two_stage(data, 0.3, 0.05)
        p, p1 = report.p, report.p1
        assert report.omega == pytest.approx((2 * p + p1 * (p1 - 1)) / (p * (p - 1)), abs=1e-12)

    def test_monotone_screening_in_alpha1(self):
        rng = np.random.default_rng(10)
        data = make_dataset(rng, n=100, p=12)
        p1s = [run_two_stage(data, a1, 0.05).p1 for a1 in (0.0, 0.1, 0.3, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(p1s, p1s[1:]))

    def test_bh_special_case_equals_direct_reference(self):
        # acceptance-grade property: alpha1 = 0 reproduces the BH display exactly
        rng = np.random.default_rng(11)
        for trial in range(20):
            family = GAUSSIAN if trial % 2 == 0 else LOGISTIC
            data = make_dataset(rng, n=60, p=7, family=family, signal=1.0)
            report = run_two_stage(data, 0.0, 0.1)
            assert report.p1 == data.p  # clean data: every marginal fit succeeds
            reference = bh_reference(fitted_and_skipped(report.pairs)[0], data.p, report.p1, 0.1)
            assert {(j, k) for j, k, _ in rejected_pairs(report)} == reference

    def test_strict_cutoff_subset(self):
        rng = np.random.default_rng(12)
        data = make_dataset(rng, n=80, p=8)
        loose = run_two_stage(data, 0.1, 0.2)
        strict = run_two_stage(data, 0.1, 0.2, strict_cutoff=True)
        assert set(rejected_pairs(strict)) <= set(rejected_pairs(loose))
        assert strict.t_hat == loose.t_hat

    def test_determinism(self):
        rng = np.random.default_rng(13)
        data = make_dataset(rng, n=60, p=6)
        r1 = run_two_stage(data, 0.2, 0.1)
        r2 = run_two_stage(data, 0.2, 0.1)
        assert_same_report(r1, r2)

    def test_nan_alpha1_rejected(self):
        data = make_dataset(np.random.default_rng(15), n=60, p=6)
        with pytest.raises(ValueError, match="alpha1"):
            run_two_stage(data, alpha1=math.nan, eta=0.1)

    @pytest.mark.parametrize("eta", [math.nan, 0.0, 1.0, -0.1])
    def test_bad_eta_rejected_before_any_fit(self, monkeypatch, eta):
        def must_not_run(*args, **kwargs):
            raise AssertionError("stage 1 ran before eta was checked")

        data = make_dataset(np.random.default_rng(16), n=60, p=6)
        monkeypatch.setattr(pairscreen.pipeline, "stage1_screen", must_not_run)
        with pytest.raises(ValueError, match="eta must be in"):
            run_two_stage(data, alpha1=0.0, eta=eta)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_bad_workers_rejected_before_any_fit(self, monkeypatch, workers):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a fit ran before workers was checked")

        data = make_dataset(np.random.default_rng(16), n=60, p=6)
        for name in ("fit_glm", "_batched_wald"):
            monkeypatch.setattr(pairscreen.pipeline, name, must_not_run)
        screen = ScreenResult(t_stats=np.zeros(data.p), passing=tuple(range(data.p)))
        with pytest.raises(ValueError, match="workers must be >= 1, got"):
            stage2_tests(data, screen, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1, got"):
            run_two_stage(data, alpha1=0.0, eta=0.1, workers=workers)

    def test_workers_identical_report(self):
        rng = np.random.default_rng(14)
        data = make_dataset(rng, n=60, p=9)
        assert_same_report(
            run_two_stage(data, 0.0, 0.1, workers=1), run_two_stage(data, 0.0, 0.1, workers=4)
        )

    def test_adjust_columns_change_stage2_only_by_default(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((80, 5))
        adjust = rng.standard_normal((80, 2))
        y = x[:, 0] + 0.5 * adjust[:, 0] + rng.standard_normal(80)
        with_adj = Dataset(x=x, y=y, family=GAUSSIAN, adjust=adjust)
        without = Dataset(x=x, y=y, family=GAUSSIAN)
        s_with = stage1_screen(with_adj, 0.0)
        s_without = stage1_screen(without, 0.0)
        assert np.allclose(s_with.t_stats, s_without.t_stats)  # default: stage 2 only
        s_adj = stage1_screen(with_adj, 0.0, adjust_in_stage1=True)
        assert not np.allclose(s_adj.t_stats, s_without.t_stats)
        t_with = stage2_tests(with_adj, s_with)
        t_without = stage2_tests(without, s_without)
        assert not np.array_equal(t_with.t, t_without.t)  # adjusters do enter stage-2 designs

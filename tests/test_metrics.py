"""Metric-function tests: direct-count examples and consistency properties."""

import numpy as np
import pytest

from pairscreen import efficiency_omega, empirical_fdp, empirical_power
from pairscreen.metrics import mean_and_se


def mask(*pairs, p=8):
    """Boolean p x p mask with the given (j, k) pairs set."""
    out = np.zeros((p, p), dtype=bool)
    for j, k in pairs:
        out[j, k] = True
    return out


class TestFdp:
    def test_no_rejections_is_zero(self):
        assert empirical_fdp(mask(), mask((1, 2))) == 0.0

    def test_half_false(self):
        assert empirical_fdp(mask((1, 2), (3, 4)), mask((1, 2))) == 0.5

    def test_all_true_is_zero(self):
        assert empirical_fdp(mask((1, 2), (2, 5)), mask((1, 2), (2, 5), (3, 7))) == 0.0

    def test_precision_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h1 = rng.random(20) < 0.4
            rejected = rng.random(20) < 0.5
            if not rejected.any():
                continue
            fdp = empirical_fdp(rejected, h1)
            precision = np.count_nonzero(rejected & h1) / np.count_nonzero(rejected)
            assert fdp == pytest.approx(1.0 - precision, abs=1e-15)

    def test_rejects_masks_of_different_shapes(self):
        with pytest.raises(ValueError):
            empirical_fdp(mask(p=4), mask(p=5))


class TestPower:
    def test_full_recovery(self):
        h1 = mask((0, 1), (2, 3))
        assert empirical_power(h1 | mask((4, 5)), h1) == 1.0

    def test_no_recovery(self):
        assert empirical_power(mask((4, 5)), mask((0, 1))) == 0.0

    def test_half_recovery(self):
        h1 = mask((0, 1), (1, 2), (2, 3), (3, 4))
        assert empirical_power(mask((0, 1), (2, 3)), h1) == 0.5

    def test_undefined_when_no_alternatives(self):
        with pytest.raises(ValueError):
            empirical_power(mask((0, 1)), mask())


class TestOmega:
    def test_everything_passes(self):
        for p in (10, 100, 313):
            assert efficiency_omega(p, p) == pytest.approx(1 + 2 / (p - 1), abs=1e-12)

    def test_reference_point(self):
        assert efficiency_omega(100, 50) == pytest.approx(0.2676767676767677, abs=1e-12)

    def test_nothing_passes(self):
        for p in (5, 40):
            assert efficiency_omega(p, 0) == pytest.approx(2 / (p - 1), abs=1e-15)

    def test_monotone_in_p1(self):
        # flat step from p1=0 to p1=1 (no pairs either way), strict afterwards
        values = [efficiency_omega(60, p1) for p1 in range(61)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(a < b for a, b in zip(values[1:], values[2:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            efficiency_omega(1, 0)
        with pytest.raises(ValueError):
            efficiency_omega(10, 11)


class TestAggregation:
    def test_mean_matches_fdr_estimator(self):
        # the reported FDR estimate is exactly the mean of per-replicate FDPs
        rng = np.random.default_rng(1)
        fdps = rng.random(100)
        mean, se = mean_and_se(fdps)
        assert mean == pytest.approx(float(np.mean(fdps)), abs=1e-15)
        assert se == pytest.approx(float(np.std(fdps, ddof=1) / 10), rel=1e-12)

    def test_single_value(self):
        assert mean_and_se([0.3]) == (0.3, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_se([])

"""Normal-utility tests against independent high-precision oracles.

Reference values frozen from scipy.special.erfc / mpmath evaluations; the
implementation under test deliberately shares no code with the oracle.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import pairscreen
from pairscreen import (
    gauss_tail_inverse,
    gauss_two_sided_tail,
    normal_cdf,
)


def phi_oracle(x: float) -> float:
    """High-precision Phi via the complementary error function."""
    return 0.5 * special.erfc(-x / math.sqrt(2.0))


def g_oracle(t: float) -> float:
    return special.erfc(t / math.sqrt(2.0))


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quantile_975(self):
        # oracle: erfc-based Phi(1.959963985) = 0.9750000000268816
        assert normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)

    def test_deep_left_tail(self):
        # oracle: 7.619853e-24
        val = normal_cdf(-10.0)
        assert 0.0 < val < 1e-22
        assert val == pytest.approx(phi_oracle(-10.0), rel=1e-6, abs=0.0)

    def test_against_reference_grid(self):
        # acceptance-grade bound: |Phi - reference| <= 1e-12 on [-8, 8]
        grid = np.linspace(-8.0, 8.0, 1000)
        errs = [abs(normal_cdf(float(x)) - phi_oracle(float(x))) for x in grid]
        assert max(errs) <= 1e-12

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                normal_cdf(bad)


class TestTwoSidedTail:
    def test_at_zero(self):
        assert gauss_two_sided_tail(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_ten_percent_point(self):
        assert gauss_two_sided_tail(1.644853627) == pytest.approx(0.10, abs=1e-9)

    def test_sqrt_two_log_100(self):
        # oracle value at t = 3.034854 (near sqrt(2 log 100)): 0.0024065215235117817
        assert gauss_two_sided_tail(3.034854) == pytest.approx(0.0024065215235117817, abs=1e-6)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 12.0, 4001)
        vals = [gauss_two_sided_tail(float(t)) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_no_premature_underflow(self):
        # the tail stays nonzero until it underflows near 38
        assert gauss_two_sided_tail(37.9) > 0.0

    def test_matches_erfc_oracle(self):
        for t in np.linspace(0.0, 8.0, 200):
            assert gauss_two_sided_tail(float(t)) == pytest.approx(
                g_oracle(float(t)), abs=1e-12
            )
        # deep tail, where only a relative bound says anything
        for t in np.linspace(8.0, 37.0, 300):
            assert gauss_two_sided_tail(float(t)) == pytest.approx(
                g_oracle(float(t)), rel=1e-12, abs=0.0
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gauss_two_sided_tail(-0.1)


class TestTailInverse:
    def test_unit_maps_to_zero(self):
        assert gauss_tail_inverse(1.0) == 0.0

    def test_five_percent(self):
        assert gauss_tail_inverse(0.05) == pytest.approx(1.959963985, abs=1e-8)

    def test_ten_percent(self):
        assert gauss_tail_inverse(0.10) == pytest.approx(1.644853627, abs=1e-8)

    def test_round_trip_identity(self):
        qs = np.concatenate(
            [
                np.linspace(1e-6, 1.0, 400),
                [1e-12, 1e-30, 1e-100, 1e-250, 1e-300, 0.999999999, 1.0],
            ]
        )
        for q in qs:
            t = gauss_tail_inverse(float(q))
            assert t >= 0.0
            assert abs(gauss_two_sided_tail(t) - q) <= 1e-10
            assert abs(gauss_two_sided_tail(t) - q) <= 1e-12 * q

    def test_smallest_subnormal(self):
        # q / 2 rounds to zero here, yet q is inside the domain
        t = gauss_tail_inverse(5e-324)
        assert 38.0 < t < 39.0

    def test_domain(self):
        for bad in (0.0, -0.3, 1.0000001, 2.0):
            with pytest.raises(ValueError):
                gauss_tail_inverse(bad)


def test_import_loads_no_scipy():
    # SciPy is a test dependency only; the package runs on NumPy alone
    src = str(Path(pairscreen.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, pairscreen; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

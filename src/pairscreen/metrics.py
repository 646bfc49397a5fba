"""Empirical FDP, power, and computational-efficiency metrics.

These compare a rejection mask against the simulation ground truth's H1
mask over the same pairs.  The false discovery proportion divides false
rejections by max(#rejections, 1); power divides recovered alternatives by
the number of alternatives and is undefined when there are none (callers
must skip such replicates rather than count them as zero).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["empirical_fdp", "empirical_power", "efficiency_omega"]


def _masks(rejected, h1) -> tuple[np.ndarray, np.ndarray]:
    rejected, h1 = np.asarray(rejected, dtype=bool), np.asarray(h1, dtype=bool)
    if rejected.shape != h1.shape:
        raise ValueError(f"mask shapes differ: {rejected.shape} vs {h1.shape}")
    return rejected, h1


def empirical_fdp(rejected, h1) -> float:
    """|rejected ∩ H0| / max(|rejected|, 1) with H0 the pairs outside ``h1``;
    ``rejected`` and ``h1`` are boolean masks over the same pairs."""
    rejected, h1 = _masks(rejected, h1)
    return int(np.count_nonzero(rejected & ~h1)) / max(int(np.count_nonzero(rejected)), 1)


def empirical_power(rejected, h1) -> float:
    """Fraction of true-alternative pairs rejected; requires |H1| >= 1.
    ``rejected`` and ``h1`` are boolean masks over the same pairs."""
    rejected, h1 = _masks(rejected, h1)
    if not h1.any():
        raise ValueError("power is undefined when H1 is empty")
    return int(np.count_nonzero(rejected & h1)) / int(np.count_nonzero(h1))


def efficiency_omega(p: int, p1: int) -> float:
    """omega = (2p + p1(p1-1)) / (p(p-1)): tests done relative to all-pairs BH."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not 0 <= p1 <= p:
        raise ValueError(f"p1 must be in [0, p], got p1={p1}, p={p}")
    return (2 * p + p1 * (p1 - 1)) / (p * (p - 1))


def mean_and_se(values) -> tuple[float | None, float | None]:
    """Sample mean and Monte-Carlo standard error sqrt(s^2 / m); None, None if empty."""
    vals = [float(v) for v in values]
    m = len(vals)
    if m == 0:
        return None, None
    mean = sum(vals) / m
    if m == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (m - 1)
    return mean, math.sqrt(var / m)

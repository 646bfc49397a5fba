"""Empirical FDP, power, and computational-efficiency metrics.

These compare a rejection set against the simulation ground truth.  The
false discovery proportion divides false rejections by max(#rejections, 1);
power divides recovered alternatives by the number of alternatives and is
undefined when there are none (callers must skip such replicates rather
than count them as zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ReplicateMetrics",
    "empirical_fdp",
    "empirical_power",
    "efficiency_omega",
    "mean_and_se",
]

@dataclass(frozen=True)
class ReplicateMetrics:
    """Per-replicate outcome row; ``power`` is None when H1 was empty."""

    fdp: float
    power: float | None
    omega: float
    p1: int
    t_hat: float
    rejections: int


def _as_pair_set(pairs) -> set[tuple[int, int]]:
    out = set()
    for j, k in pairs:
        if not j < k:
            raise ValueError(f"pairs must satisfy j < k, got ({j}, {k})")
        out.add((int(j), int(k)))
    return out


def empirical_fdp(rejected, h1_pairs) -> float:
    """|rejected ∩ H0| / max(|rejected|, 1) with H0 the complement of h1_pairs."""
    rej = _as_pair_set(rejected)
    h1 = _as_pair_set(h1_pairs)
    false_rejections = len(rej - h1)
    return false_rejections / max(len(rej), 1)


def empirical_power(rejected, h1_pairs) -> float:
    """Fraction of true-alternative pairs rejected; requires |H1| >= 1."""
    rej = _as_pair_set(rejected)
    h1 = _as_pair_set(h1_pairs)
    if not h1:
        raise ValueError("power is undefined when H1 is empty")
    return len(rej & h1) / len(h1)


def efficiency_omega(p: int, p1: int) -> float:
    """omega = (2p + p1(p1-1)) / (p(p-1)): tests done relative to all-pairs BH."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not 0 <= p1 <= p:
        raise ValueError(f"p1 must be in [0, p], got p1={p1}, p={p}")
    return (2 * p + p1 * (p1 - 1)) / (p * (p - 1))


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and Monte-Carlo standard error sqrt(s^2 / m)."""
    vals = [float(v) for v in values]
    m = len(vals)
    if m == 0:
        raise ValueError("mean_and_se requires at least one value")
    mean = sum(vals) / m
    if m == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (m - 1)
    return mean, math.sqrt(var / m)

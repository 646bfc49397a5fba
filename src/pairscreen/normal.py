"""Standard-normal utilities: CDF, two-sided tails, and tail inversion.

The FDR cutoff search reduces to the two-sided normal tail
``G(t) = 2 - 2*Phi(t) = erfc(t / sqrt(2))`` and its inverse, and
``normal_cdf`` is the standard normal CDF ``Phi`` itself.  All come
from the standard library, so there is no SciPy dependency: the tails from
``math.erfc``, accurate in relative terms over the whole range (``G`` stays
nonzero until it underflows near t = 38), and the inverse from
``statistics.NormalDist.inv_cdf`` (Wichura's AS241).

All functions are pure and stateless.
"""

from __future__ import annotations

import math
from statistics import NormalDist

__all__ = [
    "normal_cdf",
    "gauss_two_sided_tail",
    "gauss_tail_inverse",
]

_SQRT2 = math.sqrt(2.0)
_STANDARD = NormalDist()


def normal_cdf(x: float) -> float:
    """Phi(x) = P(N(0,1) <= x), absolute error below 1e-12.

    Raises ValueError on non-finite input.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"normal_cdf requires finite input, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def gauss_two_sided_tail(t: float) -> float:
    """G(t) = 2 - 2*Phi(t) = P(|N(0,1)| >= t) for t >= 0.

    Strictly decreasing with G(0) = 1, and nonzero until it underflows
    near t = 38.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"gauss_two_sided_tail requires t >= 0, got {t!r}")
    return math.erfc(t / _SQRT2)


def gauss_tail_inverse(q: float) -> float:
    """Return t >= 0 with gauss_two_sided_tail(t) == q, for q in (0, 1].

    G(G^-1(q)) reproduces q to within 1e-12 relative, down to q = 1e-300.
    """
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise ValueError(f"gauss_tail_inverse requires q in (0, 1], got {q!r}")
    if q == 1.0:
        return 0.0  # inv_cdf(0.5) is 0.0, and -0.0 is not the t >= 0 asked for
    # q / 2 rounds to 0 for the smallest subnormal q alone
    return -_STANDARD.inv_cdf(max(q / 2.0, math.ulp(0.0)))

"""Monte Carlo estimate container."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MCEstimate:
    """An estimate with its one-sigma standard error and a deterministic bias bound.

    `std_error` covers the random part (sampling noise plus any nested
    quadrature error estimate); `bias_bound` covers systematic error from
    time discretization that no amount of sampling removes.
    """

    estimate: float
    std_error: float
    bias_bound: float = 0.0
    sample_count: int = 0
    details: dict = field(default_factory=dict, compare=False)

    @staticmethod
    def from_samples(xi, weights=None) -> "MCEstimate":
        """Mean-of-weighted-samples estimator for sum_i w_i xi_i with plug-in SE."""
        import numpy as np

        xi = np.asarray(xi, dtype=float)
        if weights is not None:
            xi = xi * np.asarray(weights, dtype=float)
        n = xi.size
        total = float(np.sum(xi))
        # SE of a sum of iid terms: sqrt(n) * std of one term
        se = float(np.std(xi, ddof=1) * math.sqrt(n)) if n > 1 else float("inf")
        return MCEstimate(estimate=total, std_error=se, sample_count=n)

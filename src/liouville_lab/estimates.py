"""Monte Carlo estimate container."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


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
    def from_samples(xi, **fields) -> "MCEstimate":
        """The sum of the iid terms xi with its plug-in standard error.

        The standard error of a sum of n iid terms is sqrt(n) times the
        sample std of one term; a paired difference takes it from the
        per-sample differences.  `fields` set the estimate's other
        fields; sample_count defaults to n.  Fewer than two terms have
        no sample std and raise DomainError.
        """
        xi = np.asarray(xi, dtype=float)
        n = xi.size
        if n < 2:
            raise DomainError(f"a standard error needs at least two samples, got {n}")
        fields.setdefault("sample_count", n)
        return MCEstimate(
            estimate=float(np.sum(xi)),
            std_error=float(np.std(xi, ddof=1) * math.sqrt(n)),
            **fields,
        )

"""Monte Carlo estimate container and the one Monte Carlo sum."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# the longest run of terms one np.sum call adds: numpy sums a long vector
# pairwise, splitting n terms at n // 2 rounded down to a multiple of 8,
# and `_pairwise_sum` takes that split down to runs of at most LEAF terms
LEAF = 8192


def _pairwise_sum(count, rows, values, fill):
    """np.sum of the count-length vector xi that holds values at the
    increasing indices rows and fill elsewhere (xi = values when rows is
    None), bitwise, without building xi.

    numpy's pairwise summation splits n > 128 terms into the first
    n2 = n // 2 - (n // 2) % 8 and the rest and adds the two sums.  This
    replays that split down to runs of at most LEAF terms, builds each run
    in one reused buffer (fill, then its values scattered in) and sums it
    with np.sum, which splits it as the whole vector would.
    """
    return _node(0, count, rows, values, fill, np.empty(min(count, LEAF)))


def _node(lo, n, rows, values, fill, buf):
    """`_pairwise_sum` of the n terms of xi from lo on.  A function of its
    own, not a closure, so that no reference cycle keeps buf or values."""
    if n > LEAF:
        n2 = n // 2
        n2 -= n2 % 8
        head = _node(lo, n2, rows, values, fill, buf)
        return head + _node(lo + n2, n - n2, rows, values, fill, buf)
    if rows is None:
        return float(np.sum(values[lo : lo + n]))
    a, b = np.searchsorted(rows, (lo, lo + n))
    leaf = buf[:n]
    leaf.fill(fill)
    leaf[rows[a:b] - lo] = values[a:b]
    return float(np.sum(leaf))


def padded_sum(count: int, rows: np.ndarray, values) -> float:
    """np.sum of the count-length vector that holds values at the
    increasing indices rows and 0 elsewhere, bitwise, without building it."""
    return _pairwise_sum(count, rows, np.asarray(values, dtype=float), 0.0)


@dataclass(frozen=True)
class MCEstimate:
    """An estimate with its one-sigma standard error and a deterministic bias bound.

    `std_error` covers the random part (sampling noise plus any nested
    quadrature error estimate); `bias_bound` covers systematic error from
    time discretization that no amount of sampling removes.  A sum is
    taken from its terms with `from_samples`, or with `from_padded` from
    the terms that are not 0, so that a sum over a sample of which only a
    few rows contribute holds only those rows.
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
        return MCEstimate._build(xi.size, None, xi, fields)

    @staticmethod
    def from_padded(count: int, rows, values, **fields) -> "MCEstimate":
        """`from_samples` of the count-length xi that holds values at the
        increasing indices rows and 0 elsewhere, bitwise, holding no
        count-length vector: memory grows with the rows, not the count."""
        return MCEstimate._build(count, np.asarray(rows), np.asarray(values, dtype=float), fields)

    @staticmethod
    def _build(count, rows, values, fields) -> "MCEstimate":
        """The sum and standard error of xi bitwise as numpy takes them:
        np.sum(xi), and sqrt(count) times the sample std (ddof = 1), which
        numpy takes from the squares of xi - mean, added by the same
        pairwise sum; a 0 of xi gives mean * mean."""
        if count < 2:
            raise DomainError(f"a standard error needs at least two samples, got {count}")
        fields.setdefault("sample_count", count)
        total = _pairwise_sum(count, rows, values, 0.0)
        mean = total / count
        dev = values - mean
        np.multiply(dev, dev, out=dev)
        squares = _pairwise_sum(count, rows, dev, mean * mean)
        return MCEstimate(
            estimate=total,
            std_error=math.sqrt(squares / (count - 1)) * math.sqrt(count),
            **fields,
        )

import math
import struct

import numpy as np
import pytest

from liouville_lab.errors import DomainError
from liouville_lab.estimates import LEAF, MCEstimate, padded_sum
from liouville_lab.rng import child_seed, rng_for


def test_child_seed_deterministic_and_label_sensitive():
    a = rng_for(7, "alpha").random(4)
    b = rng_for(7, "alpha").random(4)
    c = rng_for(7, "beta").random(4)
    d = rng_for(8, "alpha").random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_child_seed_spawn_key_is_label_hash():
    ss = child_seed(3, "x")
    assert isinstance(ss, np.random.SeedSequence)
    assert ss.spawn_key != child_seed(3, "y").spawn_key


def test_from_samples_standard_error_oracle():
    xi = np.array([1.0, 2.0, 3.0, 4.0])
    est = MCEstimate.from_samples(xi)
    assert est.estimate == 10.0
    # sqrt(N) * sample std of the per-sample contributions, 2 sqrt(5/3)
    assert est.std_error == float(np.std(xi, ddof=1) * math.sqrt(4))
    assert est.std_error == pytest.approx(2.0 * math.sqrt(5.0 / 3.0))
    assert est.sample_count == 4
    assert est.bias_bound == 0.0 and est.details == {}
    # the other fields come by keyword; sample_count overrides the term count
    est = MCEstimate.from_samples(xi, bias_bound=0.5, sample_count=2, details={"mu": 0.1})
    assert (est.estimate, est.bias_bound, est.sample_count) == (10.0, 0.5, 2)
    assert est.details == {"mu": 0.1}
    # below two terms there is no sample std; inf would pass every budget
    for short in ([], [1.0]):
        with pytest.raises(DomainError, match="at least two samples"):
            MCEstimate.from_samples(short)


def _bits(x):
    return struct.pack("<d", x)


def _rows(count, density, rng):
    """Increasing rows of a count-length sample: none, the first, the
    last, a share of them or all."""
    if density == "none":
        return np.array([], dtype=np.intp)
    if density == "first":
        return np.array([0])
    if density == "last":
        return np.array([count - 1])
    if density == "all":
        return np.arange(count)
    picked = np.flatnonzero(rng.random(count) < 0.01)
    # the first and the last row too
    return np.union1d(picked, [0, count - 1])


@pytest.mark.parametrize(
    "count", [2, 7, 8, 127, 128, 129, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 5, 1_000_000]
)
def test_padded_and_dense_sums_are_numpys_bitwise(count):
    """from_padded, from_samples and padded_sum equal np.sum(xi) and
    np.std(xi, ddof=1) * sqrt(n) bit for bit.

    They replay numpy's pairwise summation split (n2 = n // 2 rounded
    down to a multiple of 8) down to leaves of LEAF terms, so this test
    pins that split: a numpy that sums another way fails here first.
    """
    rng = np.random.default_rng(count)
    for density in ("none", "first", "last", "share", "all"):
        rows = _rows(count, density, rng)
        xi = np.zeros(count)
        # both signs over twenty decades
        xi[rows] = rng.standard_normal(rows.size) * 10.0 ** rng.uniform(-10, 10, rows.size)
        want = (float(np.sum(xi)), float(np.std(xi, ddof=1) * math.sqrt(count)))
        for est in (MCEstimate.from_padded(count, rows, xi[rows]), MCEstimate.from_samples(xi)):
            assert (_bits(est.estimate), _bits(est.std_error)) == tuple(map(_bits, want)), density
            assert est.sample_count == count
        assert _bits(padded_sum(count, rows, np.abs(xi[rows]))) == _bits(float(np.sum(np.abs(xi))))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_padded_sums_keep_nan_and_inf_terms_and_strided_input_bitwise():
    # a NaN or an infinite term reaches the sum and the standard error as
    # in numpy, and a strided dense input sums as its copy would
    count = 3 * LEAF + 5
    rng = np.random.default_rng(5)
    rows = np.union1d(np.flatnonzero(rng.random(count) < 0.05), [0, count - 1])
    for special in (np.nan, np.inf, -np.inf):
        for at in (rows[0], rows[rows.size // 2], rows[-1]):
            xi = np.zeros(count)
            xi[rows] = -rng.random(rows.size)
            xi[at] = special
            want = (float(np.sum(xi)), float(np.std(xi, ddof=1) * math.sqrt(count)))
            for est in (MCEstimate.from_padded(count, rows, xi[rows]), MCEstimate.from_samples(xi)):
                assert (_bits(est.estimate), _bits(est.std_error)) == tuple(map(_bits, want))
    wide = rng.standard_normal(3 * count)
    strided = wide[1::3]
    est = MCEstimate.from_samples(strided)
    want = (float(np.sum(strided)), float(np.std(strided, ddof=1) * math.sqrt(count)))
    assert (_bits(est.estimate), _bits(est.std_error)) == tuple(map(_bits, want))
    assert est.estimate == float(np.sum(strided.copy()))

import numpy as np
import pytest

from liouville_lab.estimates import MCEstimate
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
    assert est.estimate == pytest.approx(10.0)
    # sqrt(N) * sample std of the per-sample contributions
    assert est.std_error == pytest.approx(np.sqrt(4) * np.std(xi, ddof=1))
    assert est.sample_count == 4

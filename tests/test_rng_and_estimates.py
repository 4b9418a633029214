import math

import numpy as np
import pytest

from liouville_lab.errors import DomainError
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

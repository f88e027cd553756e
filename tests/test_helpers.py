"""The test helpers' bootstrap interval, which the acceptance suite puts
around the simulator's mean rates."""

import math

import numpy as np
import pytest

from helpers import bootstrap_mean_ci


class TestBootstrapCi:
    def test_deterministic(self):
        x = np.random.default_rng(0).normal(size=200)
        assert bootstrap_mean_ci(x) == bootstrap_mean_ci(x)

    def test_brackets_the_mean(self):
        x = np.random.default_rng(1).normal(loc=3.0, size=500)
        lo, hi = bootstrap_mean_ci(x)
        assert lo < x.mean() < hi
        assert hi - lo < 0.5

    def test_ignores_nan(self):
        x = np.array([1.0, math.nan, 2.0, 3.0, math.nan, 4.0])
        lo, hi = bootstrap_mean_ci(x)
        assert lo <= 2.5 <= hi

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="finite samples"):
            bootstrap_mean_ci(np.array([1.0, math.nan]))

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_mean_ci(np.arange(10.0), confidence=1.5)

import math

import pytest

from erbench.stats import geomean, percentile, quartile_spread


def test_median_needs_ten_samples_beyond():
    assert percentile(list(range(19)), 0.5) is None
    # 20 samples: rank 10, ten samples beyond it
    assert percentile(list(range(1, 21)), 0.5) == 10


def test_p95_needs_two_hundred_samples():
    assert percentile(list(range(199)), 0.95) is None
    assert percentile(list(range(1, 201)), 0.95) == 190


def test_relaxed_rule_and_order_independence():
    assert percentile([5, 1, 3], 0.5, min_beyond=1) == 3
    assert percentile([], 0.5) is None
    with pytest.raises(ValueError):
        percentile([1, 2], 1.0)


def test_geomean():
    assert math.isclose(geomean([1.0, 100.0]), 10.0)
    with pytest.raises(ValueError):
        geomean([])


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles(range 1..10, n=4) -> 2.75, 5.5, 8.25
    assert math.isclose(quartile_spread(values), (8.25 - 2.75) / 5.5)

import pytest

from benchmarks.perf.stats import decay_ratio, iqr_spread, median, percentile


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: rank 990, exactly 10 beyond -> reported.
        assert percentile(list(range(1000)), 0.99) == 989
        # 999 samples: rank 990, only 9 beyond -> withheld.
        assert percentile(list(range(999)), 0.99) is None

    def test_p50_needs_twenty_samples(self):
        assert percentile(list(range(19)), 0.5) is None
        assert percentile(list(range(20)), 0.5) == 9
        assert percentile(list(range(21)), 0.5) == 10

    def test_order_independent_and_nearest_rank(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 0.8) == 4.0

    def test_min_beyond_is_adjustable(self):
        assert percentile([1, 2, 3, 4], 0.5, min_beyond=2) == 2
        assert percentile([1, 2, 3], 0.5, min_beyond=2) is None

    def test_empty_and_bad_q(self):
        assert percentile([], 0.5) is None
        for q in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                percentile([1.0], q)


def test_iqr_spread_matches_the_drivers_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) -> q1 = 11.75, q3 = 17.25; median 14.5
    assert iqr_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert median(values) == 14.5


class TestDecayRatio:
    def test_flat_rate_is_one(self):
        assert decay_ratio([i * 0.01 for i in range(300)]) == pytest.approx(1.0)

    def test_slowing_run_is_below_one(self):
        # first third at 100/s, last third at 50/s
        times = [i * 0.01 for i in range(100)]
        times += [1.0 + i * 0.015 for i in range(100)]
        times += [2.5 + i * 0.02 for i in range(100)]
        assert decay_ratio(times) == pytest.approx(0.5)

    def test_too_few_samples(self):
        assert decay_ratio([0.0, 1.0, 2.0]) == 1.0

"""Unit tests for metric recorders."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taureau.sim import Counter, Distribution, MetricRegistry, TimeSeries
from taureau.sim.metrics import Histogram


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)


class TestDistribution:
    def test_summary_statistics(self):
        dist = Distribution("latency")
        dist.extend([1.0, 2.0, 3.0, 4.0])
        assert dist.count == 4
        assert dist.mean == 2.5
        assert dist.minimum == 1.0
        assert dist.maximum == 4.0
        assert dist.total == 10.0

    def test_percentiles_interpolate(self):
        dist = Distribution()
        dist.extend(range(101))  # 0..100
        assert dist.percentile(0) == 0
        assert dist.percentile(100) == 100
        assert dist.p50 == 50
        assert dist.percentile(25) == 25

    def test_percentile_single_sample(self):
        dist = Distribution()
        dist.observe(7.0)
        assert dist.p99 == 7.0

    def test_percentile_handles_unsorted_inserts(self):
        dist = Distribution()
        dist.extend([5.0, 1.0, 3.0])
        assert dist.p50 == 3.0

    def test_empty_distribution_raises(self):
        with pytest.raises(ValueError):
            Distribution().mean
        with pytest.raises(ValueError):
            Distribution().percentile(50)

    def test_empty_min_max_raise_named_error(self):
        # Not the bare "min() arg is an empty sequence" — the error names
        # the metric, matching mean/percentile.
        with pytest.raises(ValueError, match="'latency' has no samples"):
            Distribution("latency").minimum
        with pytest.raises(ValueError, match="'latency' has no samples"):
            Distribution("latency").maximum

    def test_percentile_range_checked(self):
        dist = Distribution()
        dist.observe(1.0)
        with pytest.raises(ValueError):
            dist.percentile(101)

    def test_stddev(self):
        dist = Distribution()
        dist.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert dist.stddev == pytest.approx(2.13808993, rel=1e-6)
        single = Distribution()
        single.observe(1.0)
        assert single.stddev == 0.0


class TestTimeSeries:
    def test_step_lookup(self):
        series = TimeSeries("capacity")
        series.record(0.0, 1.0)
        series.record(10.0, 4.0)
        assert series.value_at(0.0) == 1.0
        assert series.value_at(9.99) == 1.0
        assert series.value_at(10.0) == 4.0
        assert series.value_at(100.0) == 4.0

    def test_lookup_before_first_sample_raises(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.value_at(4.0)

    def test_rejects_time_regression(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_integral_is_step_function_area(self):
        series = TimeSeries()
        series.record(0.0, 2.0)
        series.record(10.0, 5.0)
        # 2*10 + 5*10
        assert series.integral(0.0, 20.0) == pytest.approx(70.0)
        # Partial windows.
        assert series.integral(5.0, 15.0) == pytest.approx(2 * 5 + 5 * 5)
        # Window before first sample contributes nothing.
        assert series.integral(-10.0, 0.0) == 0.0

    def test_time_average(self):
        series = TimeSeries()
        series.record(0.0, 0.0)
        series.record(50.0, 10.0)
        assert series.time_average(0.0, 100.0) == pytest.approx(5.0)

    def test_empty_maximum_raises_named_error(self):
        with pytest.raises(ValueError, match="'capacity' is empty"):
            TimeSeries("capacity").maximum()

    def test_integral_window_starting_before_first_sample(self):
        series = TimeSeries()
        series.record(10.0, 4.0)
        series.record(20.0, 6.0)
        # [0, 10) predates the series and contributes nothing.
        assert series.integral(0.0, 15.0) == pytest.approx(4.0 * 5)

    def test_integral_window_past_last_sample_extends_final_value(self):
        series = TimeSeries()
        series.record(0.0, 3.0)
        assert series.integral(0.0, 100.0) == pytest.approx(300.0)

    def test_integral_zero_width_segments(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        # Repeated timestamps form zero-width steps; the last value wins.
        series.record(5.0, 9.0)
        series.record(10.0, 2.0)
        assert series.integral(5.0, 10.0) == pytest.approx(9.0 * 5)
        # Zero-width integration window.
        assert series.integral(7.0, 7.0) == 0.0

    def test_integral_empty_series_is_zero(self):
        assert TimeSeries().integral(0.0, 10.0) == 0.0

    def test_integral_rejects_reversed_bounds(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        with pytest.raises(ValueError):
            series.integral(5.0, 4.0)

    def test_time_average_rejects_empty_window(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        with pytest.raises(ValueError):
            series.time_average(5.0, 5.0)

    def test_time_average_over_partially_covered_window(self):
        series = TimeSeries()
        series.record(10.0, 8.0)
        # [0, 10) is uncovered (counts as zero), [10, 20) holds 8.
        assert series.time_average(0.0, 20.0) == pytest.approx(4.0)


class TestMetricRegistry:
    def test_same_name_returns_same_object(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.distribution("b") is registry.distribution("b")
        assert registry.series("c") is registry.series("c")

    def test_snapshot_summarizes(self):
        registry = MetricRegistry()
        registry.counter("invocations").add(3)
        registry.distribution("latency").extend([1.0, 3.0])
        snap = registry.snapshot()
        assert snap["invocations"] == 3
        assert snap["latency"]["count"] == 2
        assert snap["latency"]["mean"] == 2.0

    def test_snapshot_includes_zero_sample_distributions(self):
        registry = MetricRegistry()
        registry.distribution("latency")  # registered, never observed
        assert registry.snapshot()["latency"] == {"count": 0}

    def test_cross_type_name_reuse_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.distribution("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.series("x")

    def test_cross_type_collision_respects_namespace_aliases(self):
        registry = MetricRegistry(namespace="faas")
        registry.counter("x")
        # The canonical name collides even via the qualified alias.
        with pytest.raises(ValueError):
            registry.distribution("faas.x")


def per_bucket_count(hist, threshold, state=None):
    """The reference: test every occupied bucket's upper bound."""
    __, zero, counts = state or hist.state()
    if threshold < 0:
        return 0
    return zero + sum(
        count for index, count in counts.items()
        if hist.bucket_upper(index) <= threshold * (1.0 + 1e-12)
    )


samples = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-300, max_value=1e-280),
        st.floats(min_value=1e-9, max_value=1e9),
    ),
    max_size=60,
)


class TestCountAtOrBelow:
    """``count_at_or_below`` finds the cut bucket once; it must agree
    with testing each bucket's bound, now and against a snapshot."""

    @staticmethod
    def thresholds(hist):
        yield from (0.0, -1.0, -1e-300, 5e-324, 1e-300, math.inf, math.nan)
        for index in {index for index, __ in hist.bucket_items()}:
            for power in (index, index + 1, index + 2):
                bound = hist.growth ** power
                yield from (bound, bound * (1 + 1e-12), bound * (1 - 1e-12))

    @settings(max_examples=150, deadline=None)
    @given(
        growth=st.sampled_from([1.01, Histogram.DEFAULT_GROWTH, 1.5, 2.0]),
        before=samples,
        after=samples,
    )
    def test_matches_the_per_bucket_predicate(self, growth, before, after):
        hist = Histogram("h", growth=growth)
        hist.extend(before)
        state = hist.state()
        hist.extend(after)
        for threshold in self.thresholds(hist):
            assert hist.count_at_or_below(threshold) == per_bucket_count(
                hist, threshold
            ), threshold
            assert hist.count_at_or_below(threshold, state) == (
                per_bucket_count(hist, threshold, state)
            ), threshold

    def test_infinite_threshold_counts_everything(self):
        hist = Histogram("h")
        hist.extend([0.0, 1e-300, 1.0, 1e300])
        assert hist.count_at_or_below(math.inf) == 4
        assert hist.count_at_or_below(math.inf, (0, 0, {})) == 0

    def test_huge_finite_threshold_does_not_overflow(self):
        hist = Histogram("h")
        hist.extend([1.0, 1e300])
        assert hist.count_at_or_below(1.79e308) == 2
        assert hist.count_at_or_below(1e300) == 1

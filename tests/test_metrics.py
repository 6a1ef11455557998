"""Tests for the metrics substrate."""

import math
import random
import statistics
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import LogHistogram, RateMeter, TimeSeries
from repro.metrics.accumulators import bucket_bounds, bucket_index

#: a bucket's midpoint is within 1/32 of every value the bucket holds
REL = 0.032


def _exact(values, q):
    """The order statistic at rank ``q * (n - 1)``, linearly interpolated."""
    data = sorted(values)
    rank = q * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def _hist(values):
    hist = LogHistogram()
    hist.extend(values)
    return hist


def _variance_slack(values) -> float:
    """Rounding bound of ``sumsq / n - mean**2``: n ulps of the largest square."""
    return 4 * len(values) * sys.float_info.epsilon * max(v * v for v in values)


class TestAccumulator:
    """The accumulator half of :class:`LogHistogram` - count / sum / mean /
    variance / min / max in one pass - against :mod:`statistics`."""

    def test_basic_stats(self):
        acc = _hist([1.0, 2.0, 3.0, 4.0])
        assert acc.count == 4
        assert acc.mean == 2.5
        assert acc.minimum == 1.0
        assert acc.maximum == 4.0
        assert acc.total == 10.0
        assert acc.stddev**2 == pytest.approx(1.25)

    def test_single_sample(self):
        acc = _hist([7.0])
        assert acc.mean == 7.0
        assert acc.stddev == 0.0

    def test_merge_equals_sequential(self):
        rng = random.Random(1)
        values = [rng.gauss(10, 3) for _ in range(500)]
        merged = _hist(values[:200])
        merged.merge(_hist(values[200:]))
        assert merged.count == len(values)
        assert merged.mean == pytest.approx(statistics.fmean(values))
        assert merged.stddev == pytest.approx(statistics.pstdev(values))
        assert merged.minimum == min(values)
        assert merged.maximum == max(values)

    def test_merge_with_empty(self):
        merged = _hist([1.0, 2.0])
        merged.merge(LogHistogram())
        assert merged.count == 2
        assert merged.mean == 1.5

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_welford_matches_naive(self, values):
        # the one-pass sum-of-squares form against the two-pass definition
        acc = _hist(values)
        assert acc.mean == pytest.approx(
            statistics.fmean(values), rel=1e-9, abs=1e-6
        )
        assert acc.stddev**2 == pytest.approx(
            statistics.pvariance(values),
            rel=1e-6,
            abs=max(1e-6, _variance_slack(values)),
        )


class TestAccumulatorMerge:
    """Merging two shards vs a single pass over the concatenation."""

    @staticmethod
    def _check(left: list, right: list) -> None:
        merged, whole = _hist(left), _hist(left + right)
        merged.merge(_hist(right))
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total, rel=1e-12, abs=1e-9)
        if whole.count:
            assert merged.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-9)
            assert merged.stddev**2 == pytest.approx(
                whole.stddev**2,
                rel=1e-6,
                abs=max(1e-9, _variance_slack(left + right)),
            )
            assert merged.minimum == whole.minimum
            assert merged.maximum == whole.maximum

    def test_empty_with_empty(self):
        merged = LogHistogram()
        merged.merge(LogHistogram())
        assert merged.count == 0
        assert merged.total == 0.0
        assert merged.stddev == 0.0
        assert merged.minimum == math.inf and merged.maximum == -math.inf

    def test_one_sided_left(self):
        self._check([3.0, -1.0, 4.0], [])

    def test_one_sided_right(self):
        self._check([], [3.0, -1.0, 4.0])

    def test_single_element_each(self):
        self._check([2.0], [8.0])

    def test_lopsided_sizes(self):
        rng = random.Random(9)
        self._check([rng.gauss(0, 1)], [rng.gauss(5, 2) for _ in range(999)])

    def test_merge_does_not_mutate_inputs(self):
        # merge folds into its receiver; the shard passed in is left alone
        a, b = _hist([1.0, 2.0]), _hist([10.0])
        before = b.snapshot()
        a.merge(b)
        assert b.snapshot() == before

    def test_merge_is_commutative(self):
        ab, ba = _hist([1.0, 2.0, 3.0]), _hist([100.0, 200.0])
        ab.merge(_hist([100.0, 200.0]))
        ba.merge(_hist([1.0, 2.0, 3.0]))
        assert ab.count == ba.count
        assert ab.buckets == ba.buckets
        assert ab.mean == pytest.approx(ba.mean)
        assert ab.stddev == pytest.approx(ba.stddev)

    @given(
        st.lists(st.floats(-1e6, 1e6), max_size=60),
        st.lists(st.floats(-1e6, 1e6), max_size=60),
    )
    def test_any_split_matches_single_pass(self, left, right):
        self._check(left, right)


class TestStreamingQuantile:
    """Quantiles over a stream without storing it - :class:`LogHistogram`
    (log-linear buckets) where the P-squared estimator used to be."""

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            _hist([1.0]).quantile(1.5)

    def test_small_sample_exact(self):
        # min/max clamp the bucket midpoint: one distinct value is exact
        assert _hist([3.0]).quantile(0.5) == 3.0
        assert _hist([0.7] * 3).quantile(0.99) == 0.7
        ends = _hist([5.0, 1.0, 3.0])
        assert ends.quantile(0.5) == pytest.approx(3.0, rel=REL)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LogHistogram().quantile(0.5)

    @pytest.mark.parametrize("target", [0.5, 0.9, 0.99])
    def test_uniform_stream_accuracy(self, target):
        rng = random.Random(42)
        values = [rng.random() for _ in range(20_000)]
        assert _hist(values).quantile(target) == pytest.approx(
            _exact(values, target), rel=REL
        )

    def test_exponential_tail(self):
        rng = random.Random(7)
        values = [rng.expovariate(1.0) for _ in range(50_000)]
        assert _hist(values).quantile(0.99) == pytest.approx(
            _exact(values, 0.99), rel=REL
        )

    def test_monotone_under_sorted_input(self):
        hist = _hist(float(i) for i in range(1000))
        assert hist.quantile(0.5) == pytest.approx(499.5, rel=REL)


def _streams():
    rng = random.Random(12)
    return {
        "lognormal_us": [rng.lognormvariate(5.0, 0.8) for _ in range(8000)],
        "bimodal": [
            rng.gauss(120.0, 4.0) if rng.random() < 0.7 else rng.gauss(9000.0, 300.0)
            for _ in range(8000)
        ],
        "constant": [417.25] * 500,
        "fuel_ints": [rng.randrange(300, 40_000) for _ in range(8000)],
        "sub_microsecond": [rng.uniform(2e-8, 9e-7) for _ in range(8000)],
        "five_samples": [12.0, 900.0, 13.5, 7.0, 88.0],
    }


class TestLogHistogram:
    @pytest.mark.parametrize("name", sorted(_streams()))
    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_quantile_within_bound_of_exact(self, name, q):
        values = _streams()[name]
        assert _hist(values).quantile(q) == pytest.approx(
            _exact(values, q), rel=REL
        )

    def test_summary_statistics(self):
        values = _streams()["lognormal_us"]
        hist = _hist(values)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(math.fsum(values))
        assert hist.mean == pytest.approx(statistics.fmean(values))
        assert (hist.minimum, hist.maximum) == (min(values), max(values))
        assert hist.stddev == pytest.approx(statistics.pstdev(values), rel=1e-9)

    def test_zero_and_negative_land_in_defined_buckets(self):
        assert bucket_index(0.0) == 0 and bucket_index(-0.0) == 0
        assert bucket_bounds(0) == (0.0, 0.0)
        assert bucket_index(-2.5) == -bucket_index(2.5)
        low, high = bucket_bounds(bucket_index(-2.5))
        assert low < -2.5 <= high
        hist = _hist([-4.0, -4.0, 0.0, 0.0, 0.0, 6.0])
        assert hist.buckets == {
            bucket_index(-4.0): 2, 0: 3, bucket_index(6.0): 1,
        }
        assert hist.quantile(0.0) == -4.0  # clamped to the observed minimum
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == 6.0

    @given(
        st.floats(
            min_value=-1e300, max_value=1e300, allow_nan=False,
            allow_subnormal=False,  # too few mantissa bits left for 16 cuts
        )
    )
    def test_bucket_contains_its_value(self, value):
        low, high = bucket_bounds(bucket_index(value))
        if value > 0:
            assert low <= value < high and high - low <= low / 16
        elif value < 0:
            assert low < value <= high
        else:
            assert low == high == 0.0

    @given(
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    )
    def test_index_order_is_value_order(self, a, b):
        if a <= b:
            assert bucket_index(a) <= bucket_index(b)

    def test_smallest_and_largest_doubles_index(self):
        assert bucket_index(5e-324) >= 1
        assert bucket_index(1.7976931348623157e308) > bucket_index(5e-324)

    def test_buckets_stay_sparse(self):
        rng = random.Random(3)
        hist = _hist(rng.uniform(200.0, 260.0) for _ in range(20_000))
        assert len(hist.buckets) <= 8  # 200..260 spans under half an octave

    def test_arrival_order_does_not_matter(self):
        values = _streams()["bimodal"]
        shuffled = list(values)
        random.Random(1).shuffle(shuffled)
        a, b = _hist(values).snapshot(), _hist(shuffled).snapshot()
        for key in ("count", "min", "max", "p50", "p99", "buckets"):
            assert a[key] == b[key]

    @given(
        st.lists(st.floats(-1e9, 1e9), max_size=80),
        st.lists(st.floats(-1e9, 1e9), max_size=80),
    )
    def test_merge_equals_histogram_of_the_union(self, left, right):
        merged, whole = _hist(left), _hist(left + right)
        merged.merge(_hist(right))
        assert merged.count == whole.count
        assert merged.buckets == whole.buckets
        assert (merged.minimum, merged.maximum) == (whole.minimum, whole.maximum)
        assert merged.total == pytest.approx(whole.total, rel=1e-9, abs=1e-6)
        for q in (0.5, 0.99):
            if whole.count:
                assert merged.quantile(q) == whole.quantile(q)

    def test_snapshot_round_trip(self):
        hist = _hist(_streams()["fuel_ints"])
        snap = hist.snapshot()
        again = LogHistogram.from_snapshot(snap).snapshot()
        assert again["buckets"] == snap["buckets"]
        for key in ("count", "sum", "min", "max", "p50", "p99"):
            assert again[key] == snap[key]
        assert again["stddev"] == pytest.approx(snap["stddev"], rel=1e-9)
        assert LogHistogram().snapshot() == {"count": 0, "sum": 0.0}

    def test_inconsistent_snapshot_is_rejected_at_read(self):
        bad = LogHistogram.from_snapshot(
            {"count": 5, "sum": 5.0, "min": 1.0, "max": 1.0, "buckets": [[1, 2]]}
        )
        with pytest.raises(ValueError):
            bad.quantile(0.99)


class TestRateMeter:
    def test_constant_rate(self):
        meter = RateMeter(window_s=1.0)
        for ms in range(0, 5000):
            meter.add(ms / 1000.0, 125)  # 125 B/ms = 1 Mb/s
        meter.finish(5.0)
        rates = [bps for _, bps in meter.series()]
        assert len(rates) == 5
        for bps in rates:
            assert bps == pytest.approx(1e6, rel=0.01)

    def test_average(self):
        meter = RateMeter()
        meter.add(0.5, 1000)
        meter.add(1.5, 3000)
        assert meter.average_bps(2.0) == pytest.approx(4000 * 8 / 2)

    def test_idle_windows_reported_as_zero(self):
        meter = RateMeter(window_s=1.0)
        meter.add(0.1, 100)
        meter.add(3.5, 100)
        meter.finish(4.0)
        rates = [bps for _, bps in meter.series()]
        assert rates[1] == 0.0
        assert rates[2] == 0.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            RateMeter(window_s=0)

    def test_finish_flushes_trailing_partial_window(self):
        """Regression: bytes in the last partial window used to vanish."""
        meter = RateMeter(window_s=1.0)
        meter.add(0.25, 1000)  # no full window ever completes
        meter.finish(0.5)
        ((end, bps),) = meter.series()
        assert end == 0.5
        # rate over the *elapsed* half window, not diluted to the full one
        assert bps == pytest.approx(1000 * 8 / 0.5)

    def test_finish_partial_after_full_windows(self):
        meter = RateMeter(window_s=1.0)
        meter.add(0.5, 1000)  # window [0, 1)
        meter.add(2.25, 600)  # partial window [2, 2.5)
        meter.finish(2.5)
        series = meter.series()
        assert [t for t, _ in series] == [1.0, 2.0, 2.5]
        assert series[0][1] == pytest.approx(8000)
        assert series[1][1] == 0.0
        assert series[2][1] == pytest.approx(600 * 8 / 0.5)

    def test_finish_on_boundary_adds_nothing(self):
        meter = RateMeter(window_s=1.0)
        meter.add(0.5, 1000)
        meter.finish(1.0)
        assert len(meter.series()) == 1
        meter.finish(1.0)  # idempotent at the boundary
        assert len(meter.series()) == 1

    def test_partial_flush_conserves_bytes(self):
        """sum(rate * width) over the series equals total_bytes * 8."""
        meter = RateMeter(window_s=1.0)
        rng = random.Random(4)
        now = 0.0
        for _ in range(200):
            now += rng.uniform(0.001, 0.09)
            meter.add(now, rng.randrange(1, 5000))
        meter.finish(now)
        bits = 0.0
        prev_end = 0.0
        for end, bps in meter.series():
            bits += bps * (end - prev_end)
            prev_end = end
        assert bits == pytest.approx(meter.total_bytes * 8)


class TestTimeSeries:
    def test_record_and_mean(self):
        ts = TimeSeries("x")
        for i in range(10):
            ts.record(i * 0.1, float(i))
        assert ts.mean_between(0.0, 0.5) == pytest.approx(2.0)
        assert ts.last() == 9.0
        assert len(ts) == 10

    def test_mean_of_empty_interval_raises(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.mean_between(5.0, 6.0)

    def test_downsample(self):
        ts = TimeSeries()
        for i in range(100):
            ts.record(i * 0.01, 1.0 if i < 50 else 3.0)
        ds = ts.downsample(0.5)
        assert len(ds) == 2
        assert ds.values[0] == pytest.approx(1.0)
        assert ds.values[1] == pytest.approx(3.0)

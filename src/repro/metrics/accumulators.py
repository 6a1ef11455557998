"""Statistical accumulators.

:class:`LogHistogram` is a fixed log-linear bucket histogram that also
keeps count/sum/mean/stddev/min/max: O(1) integer-increment adds, any
quantile within 3.2% of exact, and shards that merge exactly - the
distribution behind every :mod:`repro.obs` histogram series.
"""

from __future__ import annotations

import math

#: sub-buckets per octave: bucket width is 1/16 of its octave's base, so
#: a bucket's midpoint is within 1/32 = 3.125% of any value it holds
_SUB_BITS = 4
_MANTISSA_SCALE = float(2 << _SUB_BITS)  # frexp mantissa [0.5, 1) -> [16, 32)
#: added to ``16 * exponent + sub`` so every positive double indexes >= 1
#: (the smallest, 2**-1074, has exponent -1073); zero is bucket 0 and a
#: negative value mirrors its magnitude, so index order is value order
_BIAS = (1 << 15) - (1 << _SUB_BITS)


def bucket_index(value: float) -> int:
    """The log-linear bucket of a finite ``value`` (monotone in ``value``)."""
    if value > 0:
        mantissa, exponent = math.frexp(value)
        return (exponent << _SUB_BITS) + int(mantissa * _MANTISSA_SCALE) + _BIAS
    if value == 0:
        return 0
    return -bucket_index(-value)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``(low, high)`` of a bucket: ``low <= value < high`` for positive
    buckets, mirrored for negative ones, ``(0, 0)`` for the zero bucket."""
    if index == 0:
        return 0.0, 0.0
    if index < 0:
        low, high = bucket_bounds(-index)
        return -high, -low
    exponent, sub = divmod(index - _BIAS - (1 << _SUB_BITS), 1 << _SUB_BITS)
    base = (1 << _SUB_BITS) + sub
    return (
        math.ldexp(base / _MANTISSA_SCALE, exponent),
        math.ldexp((base + 1) / _MANTISSA_SCALE, exponent),
    )


class LogHistogram:
    """A distribution in fixed log-linear buckets: O(1) add, exact merge.

    Every power-of-two octave is cut into 16 equal sub-buckets (the index
    comes straight from :func:`math.frexp`), so any quantile read back from
    the bucket counts is within 3.2% (1/32) of the exact order statistic,
    for any finite stream - no warm-up, no dependence on arrival order.
    The bucket map is sparse (only occupied buckets exist) and bucket
    counts are integers, so two histograms merge by summing counts and the
    merge of shards *equals* the histogram of the union: quantiles are a
    pure function of ``(buckets, count, min, max)``.  ``stddev`` comes from
    the running sum of squares (``sumsq / n - mean**2``), which also merges
    by addition.
    """

    __slots__ = ("count", "total", "sumsq", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.buckets: dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0:  # bucket_index(), inlined: this is the hot path
            mantissa, exponent = math.frexp(value)
            index = (exponent << _SUB_BITS) + int(mantissa * _MANTISSA_SCALE) + _BIAS
        else:
            index = bucket_index(value)
        buckets = self.buckets
        try:
            buckets[index] += 1
        except KeyError:
            buckets[index] = 1

    #: the metrics-registry spelling (a histogram series *is* this class)
    observe = add

    def add_n(self, value: int, n: int) -> None:
        """``n`` :meth:`add` calls of the same integer ``value`` at once.

        Exact for integers while ``count``, ``total`` and ``sumsq`` stay
        below 2**53 (every partial sum is then an exactly representable
        integer, so the order of additions cannot matter); a float value
        would round differently from ``n`` separate adds.
        """
        self.count += n
        self.total += value * n
        self.sumsq += value * value * n
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + n

    def extend(self, values) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this histogram (exact: counts add)."""
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        buckets = self.buckets
        for index, n in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation, from the sum of squares."""
        if self.count < 2:
            return 0.0
        mean = self.total / self.count
        return math.sqrt(max(self.sumsq / self.count - mean * mean, 0.0))

    def quantile(self, q: float) -> float:
        """The ``q`` quantile (linear interpolation between the two nearest
        order statistics, each read as its bucket's midpoint clamped to
        the observed ``[min, max]``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError("no samples")
        rank = q * (self.count - 1)
        low_rank = int(rank)
        frac = rank - low_rank
        seen = 0
        low = None
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if low is None:
                if seen <= low_rank:
                    continue
                low = self._midpoint(index)
                if not frac:
                    return low
            if seen > low_rank + 1:
                return low + (self._midpoint(index) - low) * frac
        raise ValueError("bucket counts do not add up to count")

    def _midpoint(self, index: int) -> float:
        low, high = bucket_bounds(index)
        return min(max((low + high) / 2, self.minimum), self.maximum)

    def snapshot(self) -> dict:
        """The JSON form: summary statistics plus the sparse bucket map as
        ``[index, count]`` pairs in index (= value) order."""
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "stddev": self.stddev,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": [[i, self.buckets[i]] for i in sorted(self.buckets)],
        }

    @classmethod
    def from_snapshot(cls, doc: dict) -> "LogHistogram":
        """Rebuild a histogram from :meth:`snapshot` output."""
        hist = cls()
        hist.count = int(doc.get("count", 0))
        hist.total = float(doc.get("sum", 0.0))
        if hist.count:
            mean = hist.total / hist.count
            hist.sumsq = hist.count * (doc.get("stddev", 0.0) ** 2 + mean * mean)
            hist.minimum = doc.get("min", math.inf)
            hist.maximum = doc.get("max", -math.inf)
        hist.buckets = {int(i): int(n) for i, n in doc.get("buckets", ())}
        return hist

    def __repr__(self) -> str:
        return (
            f"LogHistogram(n={self.count}, mean={self.mean:.6g}, "
            f"min={self.minimum:.6g}, max={self.maximum:.6g})"
        )

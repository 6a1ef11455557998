"""Measurement substrate: accumulators, bucket histograms, rate meters.

The paper (§5E) measures plugin execution time with Boost Accumulators,
reporting the 50th and 99th percentiles.  This package provides the same
facility: the :class:`LogHistogram` log-linear bucket histogram
(count/mean/stddev/min/max, O(1) adds, quantiles within 3.2% of exact,
exactly mergeable across processes), windowed rate meters for
throughput-vs-time plots, and a time-series recorder used by the
experiment drivers.
"""

from repro.metrics.accumulators import LogHistogram
from repro.metrics.rates import RateMeter, TimeSeries

__all__ = [
    "LogHistogram",
    "RateMeter",
    "TimeSeries",
]

"""Measurement substrate: accumulators, bucket histograms, rate meters.

The paper (§5E) measures plugin execution time with Boost Accumulators,
reporting the 50th and 99th percentiles.  This package provides the same
facility: a composable :class:`Accumulator` for count/mean/variance/min/max,
the :class:`LogHistogram` log-linear bucket histogram (O(1) adds, quantiles
within 3.2% of exact, exactly mergeable across processes), an exact
reservoir-based quantile for verification, windowed rate meters for
throughput-vs-time plots, and a time-series recorder used by the
experiment drivers.
"""

from repro.metrics.accumulators import Accumulator, LogHistogram, ReservoirQuantile
from repro.metrics.rates import RateMeter, TimeSeries

__all__ = [
    "Accumulator",
    "LogHistogram",
    "ReservoirQuantile",
    "RateMeter",
    "TimeSeries",
]

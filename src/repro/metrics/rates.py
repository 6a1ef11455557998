"""Throughput meters and time-series recording for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field


class RateMeter:
    """Windowed byte/bit-rate meter.

    Accumulates byte counts against simulation time and reports the rate of
    the most recent full window - the same shape as the per-second bitrate
    series iperf3 prints and the paper plots in Fig. 5a/5b.
    """

    def __init__(self, window_s: float = 1.0):
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self._window_start = 0.0
        self._window_bytes = 0
        self.history: list[tuple[float, float]] = []  # (window end time, bit/s)
        self.total_bytes = 0

    def add(self, now_s: float, nbytes: int) -> None:
        """Record ``nbytes`` delivered at simulation time ``now_s``."""
        if now_s >= self._window_start + self.window_s:
            self._roll(now_s)
        self._window_bytes += nbytes
        self.total_bytes += nbytes

    def _roll(self, now_s: float) -> None:
        while now_s >= self._window_start + self.window_s:
            end = self._window_start + self.window_s
            self.history.append((end, self._window_bytes * 8 / self.window_s))
            self._window_bytes = 0
            self._window_start = end

    def finish(self, now_s: float) -> None:
        """Flush complete windows up to ``now_s``, then the trailing partial.

        A run rarely ends exactly on a window boundary; without this the
        bytes delivered in the final partial window silently vanished from
        the series.  The partial window is reported at its true rate
        (bytes over the *elapsed fraction*, not the full window), so
        ``sum(rate * width)`` over the series equals ``total_bytes * 8``.
        """
        self._roll(now_s)
        elapsed = now_s - self._window_start
        if self._window_bytes and elapsed > 1e-9:
            self.history.append((now_s, self._window_bytes * 8 / elapsed))
            self._window_bytes = 0
            self._window_start = now_s

    def average_bps(self, duration_s: float) -> float:
        """Mean bitrate over the whole run."""
        return self.total_bytes * 8 / duration_s if duration_s > 0 else 0.0

    def series(self) -> list[tuple[float, float]]:
        return list(self.history)


@dataclass
class TimeSeries:
    """A labelled (time, value) series with simple post-processing."""

    label: str = ""
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean of samples with t0 <= t < t1."""
        selected = [v for t, v in zip(self.times, self.values) if t0 <= t < t1]
        if not selected:
            raise ValueError(f"no samples in [{t0}, {t1})")
        return sum(selected) / len(selected)

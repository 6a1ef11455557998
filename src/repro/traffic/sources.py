"""Traffic sources and the per-UE downlink buffer."""

from __future__ import annotations

from abc import ABC, abstractmethod


class TrafficSource(ABC):
    """Produces downlink bytes arriving at the gNB for one UE."""

    @abstractmethod
    def arrivals(self, now_s: float, dt_s: float) -> int:
        """Bytes arriving during the interval ``[now_s, now_s + dt_s)``."""


class FullBufferSource(TrafficSource):
    """Infinite backlog: the buffer never runs dry."""

    def arrivals(self, now_s: float, dt_s: float) -> int:
        # large enough that one slot can never drain it
        return 1 << 20


class CbrSource(TrafficSource):
    """Constant bit rate with fractional-byte carry (iperf3-UDP analog)."""

    def __init__(self, rate_bps: float):
        if rate_bps < 0:
            raise ValueError("rate must be non-negative")
        self.rate_bps = rate_bps
        self._carry = 0.0

    def arrivals(self, now_s: float, dt_s: float) -> int:
        exact = self.rate_bps * dt_s / 8 + self._carry
        whole = int(exact)
        self._carry = exact - whole
        return whole


class BurstSource(TrafficSource):
    """CBR with a deterministic flash-crowd window.

    Arrives at ``base_bps`` outside ``[start_s, end_s)`` and at
    ``burst_bps`` inside it.  There is no RNG at all - the burst window
    is part of the scenario spec - so runs are byte-identical across
    processes and worker counts (the rt stress scenarios depend on that
    for their digest invariance).
    """

    def __init__(
        self,
        base_bps: float,
        burst_bps: float,
        start_s: float,
        end_s: float,
    ):
        if base_bps < 0 or burst_bps < 0:
            raise ValueError("rates must be non-negative")
        if end_s < start_s:
            raise ValueError("burst window must not end before it starts")
        self.base_bps = base_bps
        self.burst_bps = burst_bps
        self.start_s = start_s
        self.end_s = end_s
        self._carry = 0.0

    def arrivals(self, now_s: float, dt_s: float) -> int:
        end = now_s + dt_s
        burst_overlap = max(0.0, min(end, self.end_s) - max(now_s, self.start_s))
        base_time = dt_s - burst_overlap
        exact = (
            self.base_bps * base_time + self.burst_bps * burst_overlap
        ) / 8 + self._carry
        whole = int(exact)
        self._carry = exact - whole
        return whole


class DownlinkBuffer:
    """The gNB-side RLC queue for one UE.

    The scheduler reads :attr:`occupancy_bytes` (buffer status); grants
    drain it via :meth:`drain`.  A capacity cap models finite RLC buffers -
    overflow bytes are dropped and counted.
    """

    def __init__(self, capacity_bytes: int = 4 << 20):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.occupancy_bytes = 0
        self.dropped_bytes = 0
        self.delivered_bytes = 0

    def enqueue(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot enqueue negative bytes")
        space = self.capacity_bytes - self.occupancy_bytes
        if nbytes <= space:
            self.occupancy_bytes += nbytes
        else:
            self.occupancy_bytes += space
            self.dropped_bytes += nbytes - space

    def drain(self, nbytes: int) -> int:
        """Remove up to ``nbytes``; returns the bytes actually delivered."""
        if nbytes < 0:
            raise ValueError("cannot drain negative bytes")
        delivered = nbytes if nbytes < self.occupancy_bytes else self.occupancy_bytes
        self.occupancy_bytes -= delivered
        self.delivered_bytes += delivered
        return delivered

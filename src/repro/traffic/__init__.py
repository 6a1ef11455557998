"""Downlink traffic generation and RLC-lite buffering.

The paper's testbed drives UEs with iperf3 downlink streams; a network
slice's *target rate* is enforced by the inter-slice scheduler, while the
traffic source decides how much data is available.  This package provides:

- :class:`FullBufferSource` - infinite backlog (classic full-buffer model);
- :class:`CbrSource` - constant bit rate, the iperf3-UDP analog;
- :class:`DownlinkBuffer` - the per-UE gNB-side queue the scheduler reads
  buffer status from.
"""

from repro.traffic.sources import (
    CbrSource,
    DownlinkBuffer,
    FullBufferSource,
    TrafficSource,
)

__all__ = [
    "TrafficSource",
    "FullBufferSource",
    "CbrSource",
    "DownlinkBuffer",
]

"""Message transport for RIC <-> E2-node communication.

§4B of the paper lets operators pick the wire technology (ZeroMQ, Kafka,
raw SCTP...).  This package provides two interchangeable transports
behind one endpoint interface so communication plugins can wrap either:

- :class:`InProcNetwork` - zero-copy in-process queues (the default for
  simulations and tests);
- :class:`TcpNetwork` - real localhost TCP sockets with length-prefixed
  framing, for multi-process runs and anything that wants actual bytes
  on a wire.

Both deliver ``(source, payload: bytes)`` datagram-style messages between
named endpoints.
"""

from repro.netio.batching import (
    BatchError,
    BatchSender,
    RangeInfo,
    batch_spans,
    batch_trace,
    is_batch,
    pack_range_batch,
    range_info,
    unpack_batch,
)
from repro.netio.bus import Endpoint, InProcNetwork, NetworkError, TcpNetwork
from repro.netio.framing import FrameError, read_frame, write_frame

__all__ = [
    "Endpoint",
    "InProcNetwork",
    "TcpNetwork",
    "NetworkError",
    "read_frame",
    "write_frame",
    "FrameError",
    "BatchError",
    "BatchSender",
    "RangeInfo",
    "is_batch",
    "batch_trace",
    "batch_spans",
    "pack_range_batch",
    "range_info",
    "unpack_batch",
]

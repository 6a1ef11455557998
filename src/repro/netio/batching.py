"""Payload batching with bounded queues, backpressure, and trace context.

The cluster's E2 uplink coalesces many per-slot indications into one
transport frame instead of paying per-message framing and syscall costs.
Instead of per-slot lockstep control messages, one **slot-range frame**
carries everything a worker produced for a contiguous slot range.  The
format is transport-agnostic (it rides *inside* the length-prefixed
frame of :mod:`repro.netio.framing`), little-endian throughout::

    u32 magic 'WBR3' | u32 count | u32 slot_lo | u32 slot_hi | u32 worker
                     | u32 flags | u32 spans_len
                     | [16B trace context when flags & 1]
                     | [spans_len bytes of zlib'd span JSON]
                     | count * (u32 len | payload)

The header names the producing worker and ``[slot_lo, slot_hi]`` and so
doubles as the liveness/progress heartbeat: a frame with ``count == 0``
is still meaningful.  Both optional fields are zero-length when tracing
is off.  ``flags`` bit0 says the 16-byte
:class:`~repro.obs.tracing.TraceContext` of the span that *flushed* the
frame (the worker's active slot span) follows the header, so the
receiver can parent its ingest span under the producing slot - that is
how a coordinator's demultiplex work shows up inside the worker slot's
span tree.  The span blob holds the span documents finished during the
range (drained from the worker tracer, so traces stream home instead of
riding the final result message).  The payloads are opaque here; the
cluster fills them with the entries of :mod:`repro.e2.batch`.

Everything a malformed frame can provoke in this module is a
:class:`BatchError`.

Backpressure is explicit, not implicit: :class:`BatchSender` owns a
*bounded* queue.  When the queue is full, :meth:`BatchSender.offer`
refuses the payload and counts the drop - the producer learns immediately
and the process never buffers without bound.  Telemetry loss is visible
in the ``dropped`` counter (exported as ``waran_cluster_*`` metrics by
the cluster workers) instead of hiding as creeping memory growth.  The
sender also measures the **batch-queue wait** - enqueue to flush - per
payload into ``waran_uplink_queue_wait_us``, one of the segments the
latency-attribution report breaks the slot budget into.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import time
import zlib
from collections import deque

from repro.netio.bus import Endpoint
from repro.netio.framing import MAX_FRAME
from repro.obs import OBS, BoundMetrics, MetricsRegistry
from repro.obs.tracing import SpanMark, TraceContext

RANGE_MAGIC = 0x33524257  # 'WBR3' little-endian
_MAGIC_BYTES = RANGE_MAGIC.to_bytes(4, "little")

_HEADER = struct.Struct("<IIIIIII")  # magic count lo hi worker flags spans
_ENTRY_LEN = struct.Struct("<I")

_FLAG_TRACED = 0x1

#: bytes of MAX_FRAME a batch frame may use; the rest is room for the
#: outer transport frame header
_FRAME_BUDGET = MAX_FRAME - 1024


def _entries_offset(traced: bool, spans_len: int = 0) -> int:
    """Where the entries start: past header, trace context and span blob."""
    return (
        _HEADER.size + (TraceContext.WIRE_LEN if traced else 0) + spans_len
    )


#: the largest payload :meth:`BatchSender.offer` admits: one that fits
#: alone in a traced frame, so every admitted payload can be flushed
MAX_PAYLOAD = _FRAME_BUDGET - _entries_offset(traced=True) - _ENTRY_LEN.size


class BatchError(ValueError):
    """Malformed batch payload."""


@dataclasses.dataclass(frozen=True)
class RangeInfo:
    """Decoded frame header: which worker covered which slots."""

    count: int
    slot_lo: int
    slot_hi: int
    worker: int
    traced: bool
    spans_len: int

    @property
    def entries_offset(self) -> int:
        return _entries_offset(self.traced, self.spans_len)


def is_batch(data: bytes) -> bool:
    """True iff ``data`` starts with the batch magic."""
    return data[:4] == _MAGIC_BYTES


def range_info(data: bytes) -> RangeInfo:
    """Decode the frame header, checking it fits inside ``data``."""
    if len(data) < _HEADER.size:
        raise BatchError("short batch frame")
    magic, count, lo, hi, worker, flags, spans_len = _HEADER.unpack_from(
        data, 0
    )
    if magic != RANGE_MAGIC:
        raise BatchError(f"bad batch magic 0x{magic:08x}")
    info = RangeInfo(
        count=count,
        slot_lo=lo,
        slot_hi=hi,
        worker=worker,
        traced=bool(flags & _FLAG_TRACED),
        spans_len=spans_len,
    )
    if len(data) < info.entries_offset:
        raise BatchError("batch header overruns frame")
    return info


def pack_range_batch(
    payloads: list[bytes],
    slot_lo: int,
    slot_hi: int,
    worker: int,
    ctx: TraceContext | None = None,
    spans_blob: bytes = b"",
) -> bytes:
    """Coalesce a slot range's payloads (and span blob) into one frame.

    A ``ctx`` sets flags bit0 and rides behind the header.  An empty
    ``payloads`` list is legal: the frame still carries the range
    header, serving as the worker's progress heartbeat.
    """
    if len(spans_blob) > MAX_FRAME // 2:
        raise BatchError(f"span blob too large: {len(spans_blob)}")
    parts = [
        _HEADER.pack(
            RANGE_MAGIC, len(payloads), slot_lo, slot_hi, worker,
            _FLAG_TRACED if ctx is not None else 0, len(spans_blob),
        )
    ]
    if ctx is not None:
        parts.append(ctx.pack())
    if spans_blob:
        parts.append(spans_blob)
    for payload in payloads:
        parts.append(_ENTRY_LEN.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def encode_span_blob(spans: list[dict]) -> bytes:
    """Compress span export docs for the frame's spans field."""
    if not spans:
        return b""
    return zlib.compress(
        json.dumps(spans, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
    )


def batch_spans(data: bytes) -> list[dict]:
    """Span docs streamed inside the frame (empty when it has no blob)."""
    info = range_info(data)
    if info.spans_len == 0:
        return []
    end = info.entries_offset
    try:
        blob = zlib.decompress(data[end - info.spans_len : end])
        docs = json.loads(blob.decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BatchError(f"corrupt span blob: {exc}") from exc
    if not isinstance(docs, list):
        raise BatchError("span blob is not a list of span documents")
    return docs


def batch_trace(data: bytes) -> TraceContext | None:
    """The producing span's context carried by a traced frame, if any."""
    if not range_info(data).traced:
        return None
    return TraceContext.unpack(
        data[_HEADER.size : _HEADER.size + TraceContext.WIRE_LEN]
    )


def unpack_batch(data: bytes) -> list[bytes]:
    """Split a batch frame body back into its payloads."""
    info = range_info(data)
    offset = info.entries_offset
    payloads = []
    for _ in range(info.count):
        if offset + 4 > len(data):
            raise BatchError("batch entry header overruns frame")
        (length,) = _ENTRY_LEN.unpack_from(data, offset)
        offset += 4
        if offset + length > len(data):
            raise BatchError("batch entry overruns frame")
        payloads.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise BatchError(f"{len(data) - offset} trailing bytes after batch")
    return payloads


def _bind_queue_wait(reg: MetricsRegistry):
    return reg.histogram(
        "waran_uplink_queue_wait_us",
        "batch-queue wait from enqueue to flush (us)",
    ).labels()


def _flush_span(facts, children_us) -> tuple:
    """The ``uplink.flush`` span's attrs, status and children, built on
    read: ``(dest, messages, bytes)``."""
    dest, messages, nbytes = facts
    return {"dest": dest, "messages": messages, "bytes": nbytes}, "ok", children_us


class BatchSender:
    """A bounded, explicitly flushed batch queue toward one destination.

    ``offer`` enqueues (returning ``False`` and counting a drop when the
    queue is full); ``flush`` packs everything queued into as few frames
    as fit under ``MAX_FRAME`` and sends them.  The producer decides the
    flush cadence (the cluster workers flush every N slots).
    """

    def __init__(
        self,
        endpoint: Endpoint,
        dest: str,
        max_queue: int = 4096,
        max_batch: int = 512,
    ):
        if max_queue <= 0 or max_batch <= 0:
            raise ValueError("max_queue and max_batch must be positive")
        self.endpoint = endpoint
        self.dest = dest
        self.max_queue = max_queue
        self.max_batch = max_batch
        self._queue: deque[tuple[bytes, int]] = deque()  # (payload, enqueue_ns)
        self.offered = 0
        self.dropped = 0
        self.dropped_oversize = 0
        self.batches_sent = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self._wait_series = BoundMetrics(_bind_queue_wait)
        self._span = SpanMark()

    @property
    def queued(self) -> int:
        return len(self._queue)

    def offer(self, payload: bytes) -> bool:
        """Enqueue one payload; False (and a drop count) on backpressure."""
        self.offered += 1
        if len(payload) > MAX_PAYLOAD:
            self.dropped_oversize += 1
            self.dropped += 1
            return False
        if len(self._queue) >= self.max_queue:
            self.dropped += 1
            return False
        self._queue.append((bytes(payload), time.perf_counter_ns()))
        return True

    def flush(
        self,
        slot_range: tuple[int, int],
        worker: int = 0,
        spans_blob: bytes = b"",
    ) -> int:
        """Send everything queued; returns the number of messages flushed.

        Emits slot-range frames for ``slot_range=(lo, hi)`` - at least
        one even when the queue is empty (the range header doubles as
        the progress heartbeat) - and the first frame carries
        ``spans_blob`` (see :func:`encode_span_blob`), alone if it would
        crowd out the first payload.  Every later frame has room for at
        least one payload, because ``offer`` admits nothing larger than
        :data:`MAX_PAYLOAD`.

        When tracing is live, the active span's context (the worker's
        slot span) is stamped into each frame header and the whole flush
        is timed as an ``uplink.flush`` span (a reused
        :class:`~repro.obs.tracing.SpanMark`, its ``Span`` built on read);
        per-payload queue wait is observed into
        ``waran_uplink_queue_wait_us``.
        """
        tracer = OBS.tracer
        traced = tracer.enabled
        ctx = tracer.current() if traced else None
        wait_hist = None
        if OBS.enabled and self._queue:
            wait_hist = self._wait_series.get(OBS.registry)
        flushed = 0
        bytes_before = self.bytes_sent
        blob_bytes = 0  # kept out of the span attr: blob size tracks
        # compressed float timings, which would make the structural
        # trace digest wobble run-to-run
        if traced:
            mark = self._span
            tracer.begin(mark)
            start = time.perf_counter_ns()
        try:
            now = time.perf_counter_ns()
            blob = spans_blob
            while True:
                batch: list[bytes] = []
                room = _FRAME_BUDGET - _entries_offset(
                    ctx is not None, len(blob)
                )
                while (
                    self._queue
                    and len(batch) < self.max_batch
                    and _ENTRY_LEN.size + len(self._queue[0][0]) <= room
                ):
                    payload, enq_ns = self._queue.popleft()
                    if wait_hist is not None:
                        wait_hist.observe((now - enq_ns) / 1000.0)
                    room -= _ENTRY_LEN.size + len(payload)
                    batch.append(payload)
                frame = pack_range_batch(
                    batch,
                    slot_range[0],
                    slot_range[1],
                    worker,
                    ctx=ctx,
                    spans_blob=blob,
                )
                self.endpoint.send(self.dest, frame)
                self.batches_sent += 1
                self.messages_sent += len(batch)
                self.bytes_sent += len(frame)
                blob_bytes += len(blob)
                flushed += len(batch)
                blob = b""
                if not self._queue:
                    break
        except BaseException as exc:
            if traced:
                tracer.record_error(
                    mark, "uplink.flush", start, {"dest": self.dest}, exc
                )
            raise
        if traced:
            tracer.record(
                mark, "uplink.flush", start, time.perf_counter_ns(), _flush_span,
                (self.dest, flushed, self.bytes_sent - bytes_before - blob_bytes),
            )
        return flushed

    def stats(self) -> dict[str, int]:
        return {
            "offered": self.offered,
            "dropped": self.dropped,
            "dropped_oversize": self.dropped_oversize,
            "batches_sent": self.batches_sent,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "queued": self.queued,
        }

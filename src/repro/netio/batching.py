"""Payload batching with bounded queues, backpressure, and trace context.

The cluster's E2 uplink coalesces many per-slot indications into one
transport frame instead of paying per-message framing and syscall costs.
The wire format is transport-agnostic (it rides *inside* the existing
length-prefixed frame of :mod:`repro.netio.framing`).  Three header
variants share the format::

    u32 magic 'WBAT' | u32 count | count * (u32 len | payload)
    u32 magic 'WBT2' | u32 count | u64 trace_id | u64 span_id | entries...
    u32 magic 'WBR3' | u32 count | u32 slot_lo | u32 slot_hi | u32 worker
                     | u32 flags | u32 spans_len
                     | [16B trace ctx when flags&1]
                     | [spans_len bytes of zlib'd span JSON]
                     | entries...

``WBT2`` is the distributed-tracing variant: the 16-byte
:class:`~repro.obs.tracing.TraceContext` of the span that *flushed* the
batch (the worker's active slot span) rides in the header, so the
receiver can parent its ingest span under the producing slot - that is
how a coordinator's demultiplex work shows up inside the worker slot's
span tree.  Receivers accept both variants; senders emit ``WBT2`` only
when tracing is live, so untraced runs stay byte-identical to before.

``WBR3`` is the slot-range variant the cluster uses: instead of per-slot
lockstep control messages, one frame carries everything a worker
produced for a contiguous slot range - the E2 entries, the producing
worker id and ``[slot_lo, slot_hi]`` (doubling as the liveness/progress
heartbeat, so a frame with ``count == 0`` is still meaningful), and
optionally the span documents finished during the range (drained from
the worker tracer so traces stream home instead of riding the final
result message).  ``flags`` bit0 mirrors the WBT2 convention: the trace
context is present and the E2 entries use the traced (v2) layout.

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

from repro.netio.bus import Endpoint
from repro.netio.framing import MAX_FRAME
from repro.obs import OBS
from repro.obs.tracing import TraceContext

BATCH_MAGIC = 0x54414257  # 'WBAT' little-endian
BATCH_MAGIC_TRACED = 0x32544257  # 'WBT2' little-endian
RANGE_MAGIC = 0x33524257  # 'WBR3' little-endian

_HEADER = struct.Struct("<II")
_RANGE_HEADER = struct.Struct("<IIIIIII")  # magic count lo hi worker flags spans
_ENTRY_LEN = struct.Struct("<I")

_RANGE_FLAG_TRACED = 0x1

#: room the outer frame header needs inside MAX_FRAME
_FRAME_SLACK = 1024


class BatchError(ValueError):
    """Malformed batch payload."""


@dataclasses.dataclass(frozen=True)
class RangeInfo:
    """Decoded ``WBR3`` header: which worker covered which slots."""

    count: int
    slot_lo: int
    slot_hi: int
    worker: int
    traced: bool
    spans_len: int


def is_batch(data: bytes) -> bool:
    """True iff ``data`` starts with any batch magic."""
    if len(data) < 8:
        return False
    magic = _HEADER.unpack_from(data, 0)[0]
    return magic in (BATCH_MAGIC, BATCH_MAGIC_TRACED, RANGE_MAGIC)


def _range_header(data: bytes) -> RangeInfo:
    if len(data) < _RANGE_HEADER.size:
        raise BatchError("short range batch frame")
    _, count, lo, hi, worker, flags, spans_len = _RANGE_HEADER.unpack_from(
        data, 0
    )
    return RangeInfo(
        count=count,
        slot_lo=lo,
        slot_hi=hi,
        worker=worker,
        traced=bool(flags & _RANGE_FLAG_TRACED),
        spans_len=spans_len,
    )


def _entries_offset(data: bytes) -> tuple[int, int]:
    """``(count, offset-of-first-entry)`` for any header variant."""
    if len(data) < 8:
        raise BatchError("short batch frame")
    magic, count = _HEADER.unpack_from(data, 0)
    if magic == BATCH_MAGIC:
        return count, 8
    if magic == BATCH_MAGIC_TRACED:
        if len(data) < 8 + TraceContext.WIRE_LEN:
            raise BatchError("traced batch frame missing context")
        return count, 8 + TraceContext.WIRE_LEN
    if magic == RANGE_MAGIC:
        info = _range_header(data)
        offset = _RANGE_HEADER.size
        if info.traced:
            offset += TraceContext.WIRE_LEN
        offset += info.spans_len
        if len(data) < offset:
            raise BatchError("range batch header overruns frame")
        return count, offset
    raise BatchError(f"bad batch magic 0x{magic:08x}")


def pack_batch(
    payloads: list[bytes],
    ctx: TraceContext | None = None,
    traced: bool = False,
) -> bytes:
    """Coalesce payloads into one batch frame body.

    ``ctx`` (or ``traced=True`` with no specific context - an all-zero
    context is written) selects the ``WBT2`` header.  The magic is
    authoritative for receivers: payload layers key *their* traced entry
    layouts off :func:`is_traced_batch`, never off payload sniffing.
    """
    if ctx is None and not traced:
        parts = [_HEADER.pack(BATCH_MAGIC, len(payloads))]
    else:
        wire = ctx.pack() if ctx is not None else b"\x00" * TraceContext.WIRE_LEN
        parts = [_HEADER.pack(BATCH_MAGIC_TRACED, len(payloads)), wire]
    for payload in payloads:
        parts.append(_ENTRY_LEN.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def pack_range_batch(
    payloads: list[bytes],
    slot_lo: int,
    slot_hi: int,
    worker: int,
    ctx: TraceContext | None = None,
    traced: bool = False,
    spans_blob: bytes = b"",
) -> bytes:
    """Coalesce a slot range's payloads (and span blob) into one frame.

    ``traced`` (or a concrete ``ctx``) sets flags bit0, meaning the
    trace context is present *and* the entries use the traced (v2)
    layout - the magic+flags stay authoritative for receivers, exactly
    like the WBAT/WBT2 split.  An empty ``payloads`` list is legal: the
    frame still carries the range header, serving as the worker's
    progress heartbeat.
    """
    if spans_blob and len(spans_blob) > MAX_FRAME // 2:
        raise BatchError(f"span blob too large: {len(spans_blob)}")
    is_traced = traced or ctx is not None
    flags = _RANGE_FLAG_TRACED if is_traced else 0
    parts = [
        _RANGE_HEADER.pack(
            RANGE_MAGIC, len(payloads), slot_lo, slot_hi, worker, flags,
            len(spans_blob),
        )
    ]
    if is_traced:
        parts.append(
            ctx.pack() if ctx is not None else b"\x00" * TraceContext.WIRE_LEN
        )
    if spans_blob:
        parts.append(spans_blob)
    for payload in payloads:
        parts.append(_ENTRY_LEN.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def range_info(data: bytes) -> RangeInfo | None:
    """Decoded range header when ``data`` is a ``WBR3`` frame, else None."""
    if len(data) >= 8 and _HEADER.unpack_from(data, 0)[0] == RANGE_MAGIC:
        return _range_header(data)
    return None


def encode_span_blob(spans: list[dict]) -> bytes:
    """Compress span export docs for the WBR3 spans field."""
    if not spans:
        return b""
    return zlib.compress(
        json.dumps(spans, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
    )


def batch_spans(data: bytes) -> list[dict]:
    """Span docs streamed inside a ``WBR3`` frame (empty for other frames)."""
    info = range_info(data)
    if info is None or info.spans_len == 0:
        return []
    offset = _RANGE_HEADER.size + (
        TraceContext.WIRE_LEN if info.traced else 0
    )
    blob = data[offset : offset + info.spans_len]
    if len(blob) != info.spans_len:
        raise BatchError("span blob overruns frame")
    return json.loads(zlib.decompress(blob).decode("utf-8"))


def is_traced_batch(data: bytes) -> bool:
    """True iff the frame's entries use the traced (v2) layouts."""
    if len(data) < 8:
        return False
    magic = _HEADER.unpack_from(data, 0)[0]
    if magic == BATCH_MAGIC_TRACED:
        return True
    if magic == RANGE_MAGIC:
        return _range_header(data).traced
    return False


def batch_trace(data: bytes) -> TraceContext | None:
    """The producing span's context carried by a traced frame, if any."""
    if len(data) < 8:
        return None
    magic = _HEADER.unpack_from(data, 0)[0]
    ctx = None
    if magic == BATCH_MAGIC_TRACED and len(data) >= 8 + TraceContext.WIRE_LEN:
        ctx = TraceContext.unpack(data[8:])
    elif magic == RANGE_MAGIC:
        info = _range_header(data)
        offset = _RANGE_HEADER.size
        if info.traced and len(data) >= offset + TraceContext.WIRE_LEN:
            ctx = TraceContext.unpack(data[offset:])
    if ctx is not None and (ctx.trace_id or ctx.span_id):
        return ctx
    return None


def unpack_batch(data: bytes) -> list[bytes]:
    """Split a batch frame body (either variant) back into its payloads."""
    count, offset = _entries_offset(data)
    payloads = []
    for _ in range(count):
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


class BatchSender:
    """A bounded, explicitly flushed batch queue toward one destination.

    ``offer`` enqueues (returning ``False`` and counting a drop when the
    queue is full); ``flush`` packs everything queued into as few frames
    as fit under ``MAX_FRAME`` and sends them.  The producer decides the
    flush cadence (the cluster workers flush every N slots).
    """

    #: per-variant worst-case header bytes an entry adds inside a frame
    _ENTRY_OVERHEAD = 4 + TraceContext.WIRE_LEN

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
        self._queue: list[tuple[bytes, int]] = []  # (payload, enqueue_ns)
        self.offered = 0
        self.dropped = 0
        self.dropped_oversize = 0
        self.batches_sent = 0
        self.messages_sent = 0
        self.bytes_sent = 0

    @property
    def queued(self) -> int:
        return len(self._queue)

    def offer(self, payload: bytes) -> bool:
        """Enqueue one payload; False (and a drop count) on backpressure."""
        self.offered += 1
        if len(payload) + 16 > MAX_FRAME - _FRAME_SLACK:
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
        slot_range: tuple[int, int] | None = None,
        worker: int = 0,
        spans_blob: bytes = b"",
    ) -> int:
        """Send everything queued; returns the number of messages flushed.

        Without ``slot_range`` this is the legacy behaviour: WBAT/WBT2
        frames, nothing on the wire when the queue is empty.  With
        ``slot_range=(lo, hi)`` the flush emits ``WBR3`` slot-range
        frames instead - at least one even when the queue is empty (the
        range header doubles as the progress heartbeat) - and the first
        frame carries ``spans_blob`` (see :func:`encode_span_blob`).

        When tracing is live, the active span's context (the worker's
        slot span) is stamped into each frame's traced header and the
        whole flush is timed as an ``uplink.flush`` span; per-payload
        queue wait is observed into ``waran_uplink_queue_wait_us``.
        """
        ranged = slot_range is not None
        if not self._queue and not ranged:
            return 0
        tracer = OBS.tracer
        traced = tracer.enabled
        ctx = tracer.current() if traced else None
        wait_hist = None
        if OBS.enabled and self._queue:
            # one flush drains many payloads: resolve the series once
            wait_hist = OBS.registry.histogram(
                "waran_uplink_queue_wait_us",
                "batch-queue wait from enqueue to flush (us)",
            ).labels()
        flushed = 0
        bytes_before = self.bytes_sent
        blob_bytes = 0  # kept out of the span attr: blob size tracks
        # compressed float timings, which would make the structural
        # trace digest wobble run-to-run
        with tracer.span("uplink.flush", dest=self.dest) as span:
            now = time.perf_counter_ns()
            first = True
            while True:
                blob = spans_blob if (first and ranged) else b""
                batch: list[bytes] = []
                size = (
                    (_RANGE_HEADER.size if ranged else 8)
                    + (TraceContext.WIRE_LEN if traced else 0)
                    + len(blob)
                )
                while (
                    self._queue
                    and len(batch) < self.max_batch
                    and size + 4 + len(self._queue[0][0])
                    <= MAX_FRAME - _FRAME_SLACK
                ):
                    payload, enq_ns = self._queue.pop(0)
                    if wait_hist is not None:
                        wait_hist.observe((now - enq_ns) / 1000.0)
                    size += 4 + len(payload)
                    batch.append(payload)
                if ranged:
                    frame = pack_range_batch(
                        batch,
                        slot_range[0],
                        slot_range[1],
                        worker,
                        ctx=ctx,
                        traced=traced,
                        spans_blob=blob,
                    )
                elif not batch:
                    break
                else:
                    frame = pack_batch(batch, ctx=ctx, traced=traced)
                self.endpoint.send(self.dest, frame)
                self.batches_sent += 1
                self.messages_sent += len(batch)
                self.bytes_sent += len(frame)
                blob_bytes += len(blob)
                flushed += len(batch)
                first = False
                if not self._queue:
                    break
            span.set(
                messages=flushed,
                bytes=self.bytes_sent - bytes_before - blob_bytes,
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

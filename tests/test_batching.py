"""Tests for the one uplink wire: the slot-range frame and the bounded
BatchSender (the E2 entry inside it is covered in test_cluster.py)."""

import pytest

from repro import obs
from repro.e2.batch import encode_batch_entry, iter_batch_frame
from repro.netio import (
    BatchError,
    BatchSender,
    InProcNetwork,
    batch_spans,
    batch_trace,
    is_batch,
    pack_range_batch,
    range_info,
    unpack_batch,
)
from repro.netio.batching import MAX_PAYLOAD, encode_span_blob
from repro.netio.framing import MAX_FRAME
from repro.obs import OBS
from repro.obs.tracing import TraceContext

CTX = TraceContext(0x0102030405060708, 0x1112131415161718)
RANGE = (8, 11)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Untraced is the default here, whatever an earlier test left on."""
    obs.disable()
    yield
    obs.reset()
    obs.disable()


@pytest.fixture
def telemetry():
    obs.enable()
    obs.reset()
    return OBS


def pack(payloads, **kwargs):
    return pack_range_batch(payloads, *RANGE, worker=3, **kwargs)


# ----- golden bytes: the format itself, not just round-trips ----------------

SPANS = [{"name": "worker.slot", "slot": 8}]
#: zlib of the compact JSON of SPANS, as a literal: the fixture must not
#: depend on which deflate implementation the host's zlib links
SPANS_BLOB = bytes.fromhex(
    "789c8bae56ca4bcc4d55b2522acf2fca4e2dd22bcec92f51d25102535616b5b100c1a50b42"
)
ENTRIES = [
    encode_batch_entry("cell0", b"\xe2\x01kpm"),
    encode_batch_entry("cell10", b""),  # a node may report an empty payload
]
_ENTRY_HEX = (
    "0c000000" "0500" "63656c6c30" "e2016b706d"  # len | node_len | cell0 | payload
    "08000000" "0600" "63656c6c3130"  # len | node_len | cell10 | (empty)
)
GOLDEN_UNTRACED = bytes.fromhex(
    # magic    count      slot_lo    slot_hi    worker     flags      spans_len
    "57425233" "02000000" "08000000" "0b000000" "03000000" "00000000" "00000000"
    + _ENTRY_HEX
)
GOLDEN_TRACED = bytes.fromhex(
    "57425233" "02000000" "08000000" "0b000000" "03000000" "01000000" "25000000"
    "0807060504030201" "1817161514131211"  # trace_id | span_id
    + SPANS_BLOB.hex()
    + _ENTRY_HEX
)
GOLDEN_HEARTBEAT = bytes.fromhex(
    "57425233" "00000000" "0c000000" "0f000000" "03000000" "00000000" "00000000"
)


class TestGoldenFrames:
    def test_untraced_frame_bytes(self):
        # byte-identical to what the cluster emitted before the WBAT/WBT2
        # generations were deleted: an untraced run's wire did not move
        assert pack(ENTRIES) == GOLDEN_UNTRACED

    def test_traced_frame_bytes(self):
        frame = pack(ENTRIES, ctx=CTX, spans_blob=SPANS_BLOB)
        assert frame == GOLDEN_TRACED

    def test_heartbeat_frame_bytes(self):
        assert pack_range_batch([], 12, 15, worker=3) == GOLDEN_HEARTBEAT

    def test_untraced_decodes_field_by_field(self):
        info = range_info(GOLDEN_UNTRACED)
        assert (info.count, info.slot_lo, info.slot_hi, info.worker) == (
            2, 8, 11, 3,
        )
        assert not info.traced and info.spans_len == 0
        assert batch_trace(GOLDEN_UNTRACED) is None
        assert batch_spans(GOLDEN_UNTRACED) == []
        assert unpack_batch(GOLDEN_UNTRACED) == ENTRIES
        assert list(iter_batch_frame(GOLDEN_UNTRACED)) == [
            ("cell0", b"\xe2\x01kpm"),
            ("cell10", b""),
        ]

    def test_traced_decodes_field_by_field(self):
        info = range_info(GOLDEN_TRACED)
        assert (info.count, info.slot_lo, info.slot_hi, info.worker) == (
            2, 8, 11, 3,
        )
        assert info.traced and info.spans_len == len(SPANS_BLOB)
        assert batch_trace(GOLDEN_TRACED) == CTX
        assert batch_spans(GOLDEN_TRACED) == SPANS
        # the entry layout does not depend on the frame being traced
        assert unpack_batch(GOLDEN_TRACED) == ENTRIES

    def test_heartbeat_decodes(self):
        info = range_info(GOLDEN_HEARTBEAT)
        assert (info.count, info.slot_lo, info.slot_hi) == (0, 12, 15)
        assert unpack_batch(GOLDEN_HEARTBEAT) == []

    @pytest.mark.parametrize(
        "frame", [GOLDEN_UNTRACED, GOLDEN_TRACED, GOLDEN_HEARTBEAT]
    )
    def test_every_strict_prefix_rejected(self, frame):
        for cut in range(len(frame)):
            with pytest.raises(BatchError):
                unpack_batch(frame[:cut])

    def test_span_blob_roundtrip(self):
        frame = pack([], spans_blob=encode_span_blob(SPANS))
        assert batch_spans(frame) == SPANS
        assert encode_span_blob([]) == b""


class TestBatchFormat:
    def test_roundtrip(self):
        payloads = [b"", b"a", bytes(range(256)), b"tail"]
        assert unpack_batch(pack(payloads)) == payloads

    def test_traced_roundtrip(self):
        frame = pack([b"a", b"bb"], ctx=CTX)
        assert is_batch(frame) and range_info(frame).traced
        assert unpack_batch(frame) == [b"a", b"bb"]
        assert batch_trace(frame) == CTX

    def test_header_overhead_is_exactly_ctx_len(self):
        plain = pack([b"payload"])
        traced = pack([b"payload"], ctx=CTX)
        assert len(traced) - len(plain) == TraceContext.WIRE_LEN

    def test_empty_batch(self):
        assert unpack_batch(pack([])) == []

    def test_is_batch(self):
        assert is_batch(pack([b"x"]))
        assert not is_batch(b"")
        assert not is_batch(b"\x00" * 8)
        assert not is_batch(b"WBR")  # shorter than the magic
        assert not is_batch(b"WBAT" + b"\x00" * 4)  # a deleted generation

    def test_bad_magic_rejected(self):
        with pytest.raises(BatchError):
            unpack_batch(b"WBAT" + GOLDEN_UNTRACED[4:])
        with pytest.raises(BatchError):
            range_info(b"\x00" * 28)

    def test_truncated_entry_rejected(self):
        with pytest.raises(BatchError):
            unpack_batch(pack([b"hello world"])[:-3])

    def test_truncated_entry_header_rejected(self):
        with pytest.raises(BatchError):
            unpack_batch(pack([b"a", b"b"])[:-6])  # 2nd length field cut

    def test_trailing_garbage_rejected(self):
        with pytest.raises(BatchError):
            unpack_batch(pack([b"x"]) + b"junk")

    def test_short_frame_rejected(self):
        with pytest.raises(BatchError):
            unpack_batch(b"WB")

    def test_oversize_span_blob_rejected(self):
        with pytest.raises(BatchError):
            pack([], spans_blob=b"\x00" * (MAX_FRAME // 2 + 1))


class TestCorruptFrames:
    """Whatever a damaged frame provokes here is a BatchError."""

    @pytest.mark.parametrize("bit", range(8))
    def test_any_flipped_bit_is_a_typed_error(self, bit):
        for pos in range(len(GOLDEN_TRACED)):
            frame = bytearray(GOLDEN_TRACED)
            frame[pos] ^= 1 << bit
            for decode in (range_info, batch_trace, batch_spans, unpack_batch):
                try:
                    decode(bytes(frame))
                except BatchError:
                    pass

    def test_corrupt_span_blob_is_a_batch_error(self):
        frame = bytearray(GOLDEN_TRACED)
        frame[28 + 16 + 10] ^= 0xFF  # inside the deflate stream
        with pytest.raises(BatchError, match="corrupt span blob"):
            batch_spans(bytes(frame))
        # the entries behind the blob are intact and still decode
        assert unpack_batch(bytes(frame)) == ENTRIES

    def test_span_blob_of_wrong_shape_rejected(self):
        import zlib

        for doc in (b'{"not": "a list"}', b"\xff\xfe", b"not json"):
            with pytest.raises(BatchError):
                batch_spans(pack([], spans_blob=zlib.compress(doc)))


def make_sender(**kwargs):
    net = InProcNetwork()
    sink = net.endpoint("sink")
    sender = BatchSender(net.endpoint("src"), "sink", **kwargs)
    return sink, sender


class TestBatchSender:
    def test_offer_flush_delivers(self):
        sink, sender = make_sender()
        assert sender.offer(b"one")
        assert sender.offer(b"two")
        assert sender.queued == 2
        assert sender.flush(RANGE, worker=5) == 2
        assert sender.queued == 0
        frames = [payload for _src, payload in sink.drain()]
        assert len(frames) == 1
        assert unpack_batch(frames[0]) == [b"one", b"two"]
        info = range_info(frames[0])
        assert (info.slot_lo, info.slot_hi, info.worker) == (8, 11, 5)

    def test_flush_empty_sends_heartbeat(self):
        sink, sender = make_sender()
        assert sender.flush(RANGE) == 0
        [(_src, frame)] = sink.drain()
        assert range_info(frame).count == 0
        assert sender.batches_sent == 1

    def test_slot_range_is_required(self):
        _sink, sender = make_sender()
        with pytest.raises(TypeError):
            sender.flush()

    def test_backpressure_refuses_and_counts(self):
        sink, sender = make_sender(max_queue=3)
        assert all(sender.offer(bytes([i])) for i in range(3))
        assert not sender.offer(b"overflow")  # refused, not buffered
        assert not sender.offer(b"overflow2")
        assert sender.queued == 3
        assert sender.dropped == 2
        assert sender.offered == 5
        sender.flush(RANGE)
        assert sender.offer(b"after flush")  # capacity freed

    def test_oversize_payload_dropped(self):
        sink, sender = make_sender()
        assert not sender.offer(b"\x00" * MAX_FRAME)
        assert sender.dropped_oversize == 1
        assert sender.dropped == 1
        assert sender.queued == 0

    def test_max_batch_splits_frames(self):
        sink, sender = make_sender(max_batch=4)
        for i in range(10):
            assert sender.offer(bytes([i]))
        assert sender.flush(RANGE) == 10
        frames = [payload for _src, payload in sink.drain()]
        assert [len(unpack_batch(f)) for f in frames] == [4, 4, 2]
        # order survives the split
        flat = [p for f in frames for p in unpack_batch(f)]
        assert flat == [bytes([i]) for i in range(10)]

    def test_frame_size_cap_splits_frames(self):
        sink, sender = make_sender(max_batch=10_000)
        chunk = b"\x00" * (6 << 20)  # three don't fit in one 16MiB frame
        for _ in range(3):
            assert sender.offer(chunk)
        sender.flush(RANGE)
        frames = [payload for _src, payload in sink.drain()]
        assert len(frames) == 2
        assert all(len(f) <= MAX_FRAME for f in frames)

    def test_only_first_frame_carries_span_blob(self):
        sink, sender = make_sender(max_batch=1)
        sender.offer(b"a")
        sender.offer(b"b")
        sender.flush(RANGE, spans_blob=SPANS_BLOB)
        first, second = (payload for _src, payload in sink.drain())
        assert batch_spans(first) == SPANS
        assert batch_spans(second) == []

    def test_stats_shape(self):
        _sink, sender = make_sender()
        sender.offer(b"x")
        sender.flush(RANGE)
        stats = sender.stats()
        assert stats["offered"] == 1
        assert stats["messages_sent"] == 1
        assert stats["batches_sent"] == 1
        assert stats["dropped"] == 0
        assert stats["queued"] == 0
        assert stats["bytes_sent"] > 0

    def test_bad_limits_rejected(self):
        net = InProcNetwork()
        with pytest.raises(ValueError):
            BatchSender(net.endpoint("a"), "b", max_queue=0)
        with pytest.raises(ValueError):
            BatchSender(net.endpoint("c"), "b", max_batch=0)


class _Wire:
    """Records sent frames; fails the test if a flush stops terminating."""

    def __init__(self):
        self.frames = []

    def send(self, dest, data):
        assert len(self.frames) < 8, "flush is spinning on an unsendable payload"
        self.frames.append(data)


class TestAdmission:
    """``offer`` and ``flush`` share one size rule: whatever was admitted
    fits alone in a frame, so ``flush`` terminates and delivers it."""

    @pytest.mark.parametrize("blob", [b"", SPANS_BLOB], ids=["noblob", "blob"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("lead", [[], [b"small"]], ids=["alone", "behind"])
    def test_largest_admitted_payload_is_delivered(
        self, lead, traced, blob, request
    ):
        if traced:
            request.getfixturevalue("telemetry")
        wire = _Wire()
        sender = BatchSender(wire, "sink")
        queued = lead + [b"\xab" * MAX_PAYLOAD]
        with OBS.tracer.span("worker.slot"):  # a no-op span when untraced
            assert all(sender.offer(p) for p in queued)
            assert sender.flush(RANGE, spans_blob=blob) == len(queued)
        assert sender.queued == 0
        assert all(len(f) <= MAX_FRAME for f in wire.frames)
        assert all(range_info(f).traced == traced for f in wire.frames)
        assert [p for f in wire.frames for p in unpack_batch(f)] == queued
        assert sum(range_info(f).spans_len for f in wire.frames) == len(blob)

    def test_one_byte_more_is_refused(self):
        sender = BatchSender(_Wire(), "sink")
        assert not sender.offer(b"\x00" * (MAX_PAYLOAD + 1))
        assert sender.dropped_oversize == 1
        assert sender.dropped == 1
        assert sender.queued == 0


class TestTracedSender:
    def test_sender_emits_traced_frames_inside_span(self, telemetry):
        sink, sender = make_sender()
        with telemetry.tracer.span("worker.slot", slot=7) as slot:
            sender.offer(b"data")
            sender.flush(RANGE)
            expected = slot.context
        _src, frame = sink.recv()
        assert batch_trace(frame) == expected
        names = [s.name for s in telemetry.tracer.finished()]
        assert "uplink.flush" in names

    def test_sender_untraced_when_disabled(self):
        sink, sender = make_sender()
        sender.offer(b"data")
        sender.flush(RANGE)
        _src, frame = sink.recv()
        assert not range_info(frame).traced
        assert batch_trace(frame) is None

    def test_queue_wait_histogram_recorded(self, telemetry):
        _sink, sender = make_sender()
        sender.offer(b"data")
        sender.flush(RANGE)
        snap = telemetry.registry.histogram(
            "waran_uplink_queue_wait_us", ""
        ).snapshot()
        assert snap["count"] == 1
        assert snap["min"] >= 0

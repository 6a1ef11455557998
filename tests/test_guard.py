"""Tests for the sandboxed message guard (§3B sanitization)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.pbwire import write_varint
from repro.e2 import CommChannel, setup_request, vendors
from repro.e2.comm import GuardedChannel, MessageGuard
from repro.netio import InProcNetwork


@pytest.fixture(scope="module")
def guard() -> MessageGuard:
    return MessageGuard()


class TestMessageGuard:
    def test_valid_pbwire_accepted(self, guard):
        payload = vendors.vendor_b().encode(setup_request("gnb1", [1, 2]))
        assert guard.check(payload)

    def test_empty_payload_accepted(self, guard):
        assert guard.check(b"")  # zero fields is structurally fine

    def test_truncated_varint_rejected(self, guard):
        assert not guard.check(b"\x80\x80")
        assert guard.last_fail_code == 1

    def test_unknown_wire_type_rejected(self, guard):
        # field 1, wire type 3 (group start - not supported)
        assert not guard.check(write_varint((1 << 3) | 3))
        assert guard.last_fail_code == 5

    def test_length_overrun_rejected(self, guard):
        bad = write_varint((1 << 3) | 2) + write_varint(100) + b"short"
        assert not guard.check(bad)
        assert guard.last_fail_code == 6

    def test_absurd_length_rejected(self, guard):
        bad = write_varint((1 << 3) | 2) + write_varint(1 << 30)
        assert not guard.check(bad)
        assert guard.last_fail_code == 4

    def test_field_flood_rejected(self, guard):
        flood = write_varint((1 << 3) | 0) + write_varint(0)
        assert not guard.check(flood * 5000)
        assert guard.last_fail_code == 7

    def test_counters(self):
        guard = MessageGuard()
        guard.check(b"")
        guard.check(b"\x80")
        assert guard.accepted == 1
        assert guard.rejected == 1

    @given(st.binary(max_size=512))
    @settings(max_examples=80, deadline=None)
    def test_fuzz_never_crashes_host(self, guard, data):
        """Arbitrary bytes: the guard answers True/False, never raises."""
        verdict = guard.check(data)
        assert isinstance(verdict, bool)

    @given(st.binary(max_size=256))
    @settings(max_examples=40, deadline=None)
    def test_accepted_payloads_are_host_decodable_structurally(self, guard, data):
        """Soundness: whatever the guard accepts, the host pbwire walker can
        skip through without reading out of bounds."""
        if not guard.check(data):
            return
        from repro.codecs.base import CodecError
        from repro.e2.vendors import E2_PB_SCHEMA

        try:
            E2_PB_SCHEMA.decode(data)
        except CodecError:
            pass  # semantic rejection is fine; no crash is the point


    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_an_overrun_the_guard_sees_never_decodes(self, guard, data):
        """The host decoder is as strict as its sandboxed guard about a
        field - known to the schema or not - that runs past the end of the
        payload: most channels run unguarded."""
        from repro.codecs.base import CodecError
        from repro.e2.vendors import E2_PB_SCHEMA

        if guard.check(data) or guard.last_fail_code != 6:
            return
        with pytest.raises(CodecError):
            E2_PB_SCHEMA.decode(data)


class TestGuardedChannel:
    def test_end_to_end_filtering(self):
        net = InProcNetwork()
        vendor = vendors.vendor_b()
        sender = CommChannel(net.endpoint("ric"), vendor)
        attacker = net.endpoint("attacker")
        receiver = GuardedChannel(net.endpoint("gnb"), vendor)

        sender.send("gnb", setup_request("ric", [1]))
        attacker.send("gnb", b"\x80\x80\x80")  # malicious garbage
        sender.send("gnb", setup_request("ric", [2]))

        got = receiver.poll()
        assert len(got) == 2
        assert receiver.guard.rejected == 1
        # a guard verdict is not a codec failure: operators must be able to
        # tell a hostile payload from a dialect mismatch
        assert receiver.guard_rejections == 1
        assert receiver.decode_failures == 0

    def test_guard_rejection_metric(self):
        from repro import obs

        obs.enable()
        obs.reset()
        try:
            net = InProcNetwork()
            vendor = vendors.vendor_b()
            attacker = net.endpoint("attacker")
            receiver = GuardedChannel(net.endpoint("gnb"), vendor)
            attacker.send("gnb", b"\x80\x80\x80")
            receiver.poll()
            assert (
                obs.OBS.registry.counter(
                    "waran_e2_guard_rejections_total"
                ).value(channel="gnb")
                == 1
            )
        finally:
            obs.reset()
            obs.disable()

    def test_guard_survives_sustained_attack(self):
        net = InProcNetwork()
        vendor = vendors.vendor_b()
        attacker = net.endpoint("attacker")
        receiver = GuardedChannel(net.endpoint("gnb"), vendor)
        import random

        rng = random.Random(1)
        for _ in range(100):
            attacker.send("gnb", bytes(rng.randrange(256) for _ in range(64)))
        assert receiver.poll() == [] or receiver.guard.accepted >= 0
        # after the attack the channel still works for honest senders
        honest = CommChannel(net.endpoint("ric"), vendor)
        honest.send("gnb", setup_request("ric", [1]))
        assert len(receiver.poll()) == 1

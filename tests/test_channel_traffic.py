"""Tests for channel models and traffic sources."""

import pytest

from repro.channel import FixedMcsChannel, MarkovCqiChannel
from repro.traffic import CbrSource, DownlinkBuffer, FullBufferSource


class TestFixedMcsChannel:
    def test_reports_requested_mcs(self):
        ch = FixedMcsChannel(20)
        assert ch.mcs(0) == 20
        assert ch.mcs(100) == 20

    def test_cqi_consistent_with_mcs(self):
        from repro.phy.mcs import cqi_to_mcs

        ch = FixedMcsChannel(24)
        assert cqi_to_mcs(ch.step(0)) >= 24

    def test_range_check(self):
        with pytest.raises(ValueError):
            FixedMcsChannel(29)


class TestMarkovCqiChannel:
    def test_stays_in_bounds(self):
        ch = MarkovCqiChannel(initial_cqi=9, p_step=0.9, lo=5, hi=12, seed=1)
        values = [ch.step(slot) for slot in range(2000)]
        assert all(5 <= v <= 12 for v in values)

    def test_actually_moves(self):
        ch = MarkovCqiChannel(initial_cqi=9, p_step=0.5, seed=2)
        values = {ch.step(slot) for slot in range(500)}
        assert len(values) > 1

    def test_idempotent_within_slot(self):
        ch = MarkovCqiChannel(seed=3)
        assert ch.step(5) == ch.step(5)

    def test_deterministic_with_seed(self):
        a = [MarkovCqiChannel(seed=7).step(s) for s in range(100)]
        b = [MarkovCqiChannel(seed=7).step(s) for s in range(100)]
        assert a == b

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            MarkovCqiChannel(lo=10, hi=5)


class TestTrafficSources:
    def test_full_buffer_never_dry(self):
        src = FullBufferSource()
        assert src.arrivals(0.0, 1e-3) > 100_000

    def test_cbr_exact_rate(self):
        src = CbrSource(8e6)  # 1 MB/s
        total = sum(src.arrivals(i * 1e-3, 1e-3) for i in range(1000))
        assert total == pytest.approx(1_000_000, abs=2)

    def test_cbr_fractional_carry(self):
        src = CbrSource(1000.0)  # 125 B/s -> 0.125 B per ms
        total = sum(src.arrivals(i * 1e-3, 1e-3) for i in range(8000))
        assert total == pytest.approx(1000, abs=1)

    def test_cbr_zero_rate(self):
        src = CbrSource(0.0)
        assert src.arrivals(0.0, 1.0) == 0

    def test_cbr_negative_rejected(self):
        with pytest.raises(ValueError):
            CbrSource(-1)


class TestDownlinkBuffer:
    def test_enqueue_drain(self):
        buf = DownlinkBuffer()
        buf.enqueue(1000)
        assert buf.occupancy_bytes == 1000
        assert buf.drain(400) == 400
        assert buf.occupancy_bytes == 600
        assert buf.delivered_bytes == 400

    def test_drain_more_than_available(self):
        buf = DownlinkBuffer()
        buf.enqueue(100)
        assert buf.drain(500) == 100
        assert buf.occupancy_bytes == 0

    def test_overflow_drops(self):
        buf = DownlinkBuffer(capacity_bytes=1000)
        buf.enqueue(1500)
        assert buf.occupancy_bytes == 1000
        assert buf.dropped_bytes == 500

    def test_negative_rejected(self):
        buf = DownlinkBuffer()
        with pytest.raises(ValueError):
            buf.enqueue(-1)
        with pytest.raises(ValueError):
            buf.drain(-1)

"""Tests for the 5G PHY tables and TBS computation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy import (
    CQI_TABLE_1,
    MCS_TABLE_1,
    CarrierConfig,
    Numerology,
    cqi_to_mcs,
    transport_block_size_bits,
)


class TestNumerology:
    def test_mu0_is_lte_like(self):
        n = Numerology(0)
        assert n.scs_khz == 15
        assert n.slot_duration_us == 1000.0

    def test_mu1(self):
        n = Numerology(1)
        assert n.scs_khz == 30
        assert n.slot_duration_us == 500.0

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            Numerology(5)

    def test_paper_carrier_is_52_prb(self):
        carrier = CarrierConfig()  # n3, 10 MHz, 15 kHz
        assert carrier.n_prb == 52
        assert carrier.slot_duration_s == 1e-3

    def test_other_bandwidths(self):
        assert CarrierConfig(bandwidth_mhz=20).n_prb == 106
        assert CarrierConfig(bandwidth_mhz=50).n_prb == 270

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            CarrierConfig(bandwidth_mhz=7)


class TestMcsTables:
    def test_table_sizes(self):
        assert len(MCS_TABLE_1) == 29
        assert len(CQI_TABLE_1) == 15

    def test_spectral_efficiency_monotone_within_modulation(self):
        """SE is non-decreasing except the real dip at the 16QAM->64QAM
        boundary (MCS 16 -> 17: 2.5703 -> 2.5664, straight from the spec)."""
        ses = [e.spectral_efficiency for e in MCS_TABLE_1]
        for i in range(1, len(ses)):
            if i == 17:
                assert ses[17] == pytest.approx(2.5664, abs=1e-3)
                continue
            assert ses[i] >= ses[i - 1], i

    def test_known_entries(self):
        assert MCS_TABLE_1[0].qm == 2 and MCS_TABLE_1[0].rate_x1024 == 120
        assert MCS_TABLE_1[28].qm == 6 and MCS_TABLE_1[28].rate_x1024 == 948
        assert MCS_TABLE_1[10].qm == 4  # 16QAM starts at MCS 10
        assert MCS_TABLE_1[17].qm == 6  # 64QAM starts at MCS 17

    def test_cqi_15_maps_to_mcs_28(self):
        assert cqi_to_mcs(15) == 28

    def test_cqi_1_maps_to_low_mcs(self):
        assert cqi_to_mcs(1) == 0

    def test_cqi_mapping_monotone(self):
        mcs = [cqi_to_mcs(c) for c in range(1, 16)]
        assert mcs == sorted(mcs)

    def test_cqi_mcs_never_exceeds_cqi_efficiency(self):
        for cqi in range(1, 16):
            mcs = cqi_to_mcs(cqi)
            if mcs == 0:
                continue  # MCS 0 is the floor even when CQI is lower still
            assert (
                MCS_TABLE_1[mcs].spectral_efficiency
                <= CQI_TABLE_1[cqi - 1].spectral_efficiency + 1e-9
            )

    def test_cqi_range_check(self):
        with pytest.raises(ValueError):
            cqi_to_mcs(16)
        with pytest.raises(ValueError):
            cqi_to_mcs(-1)
        with pytest.raises(ValueError):
            cqi_to_mcs(7, table=3)

    def test_cqi_table_lookup_equals_the_rule(self):
        """The import-time table against the rule it was built from:
        highest MCS whose spectral efficiency <= the CQI's, CQI 0 -> 0."""
        from repro.phy.mcs import CQI_TABLES, MCS_TABLES

        def by_rule(cqi, table):
            if cqi == 0:
                return 0
            target = CQI_TABLES[table][cqi - 1].spectral_efficiency
            fits = [
                e.index for e in MCS_TABLES[table]
                if e.spectral_efficiency <= target + 1e-9
            ]
            return max(fits, default=0)

        pinned = {
            1: [0, 0, 0, 2, 4, 6, 8, 11, 13, 15, 18, 20, 22, 24, 26, 28],
            2: [0, 0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27],
        }
        for table, expect in pinned.items():
            got = [cqi_to_mcs(cqi, table) for cqi in range(16)]
            assert got == expect, table
            assert got == [by_rule(cqi, table) for cqi in range(16)], table


class TestTbs:
    def test_zero_prbs(self):
        assert transport_block_size_bits(0, 10) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transport_block_size_bits(-1, 10)

    def test_small_grant_uses_table(self):
        tbs = transport_block_size_bits(1, 0)
        from repro.phy.tbs import TBS_TABLE

        assert tbs in TBS_TABLE

    def test_byte_aligned_above_3824(self):
        tbs = transport_block_size_bits(52, 28)
        assert tbs > 3824
        assert (tbs + 24) % 8 == 0

    def test_monotone_in_prbs(self):
        for mcs in (0, 9, 16, 28):
            prev = 0
            for prbs in range(1, 53):
                tbs = transport_block_size_bits(prbs, mcs)
                assert tbs >= prev, (mcs, prbs)
                prev = tbs

    def test_monotone_in_mcs_within_modulation(self):
        # the 16QAM->64QAM SE dip (MCS 16->17) is allowed to reduce TBS
        for prbs in (1, 10, 52):
            prev = 0
            for mcs in range(29):
                tbs = transport_block_size_bits(prbs, mcs)
                if mcs != 17:
                    assert tbs >= prev, (mcs, prbs)
                prev = tbs

    def test_full_carrier_peak_rate_plausible(self):
        """52 PRB @ MCS 28 should give roughly 25-30 Mb/s (the shape the
        paper's 10 MHz cell exhibits: MVNO targets up to 15 Mb/s fit)."""
        rate = transport_block_size_bits(52, 28) / 1e-3
        assert 20e6 < rate < 40e6

    def test_mcs20_vs_mcs28_ratio(self):
        r20 = transport_block_size_bits(52, 20)
        r28 = transport_block_size_bits(52, 28)
        assert 0.5 < r20 / r28 < 0.75  # 567/948 ~ 0.60

    @given(st.integers(1, 270), st.integers(0, 28))
    def test_tbs_positive_and_bounded(self, prbs, mcs):
        tbs = transport_block_size_bits(prbs, mcs)
        assert tbs >= 24
        # can't carry more than raw REs * bits/symbol
        assert tbs <= 156 * prbs * 6


class TestTable2:
    """MCS/CQI table 2 (256QAM) - switchable via RC-lite set_cqi_table."""

    def test_table_sizes(self):
        from repro.phy.mcs import CQI_TABLE_2, MCS_TABLE_2

        assert len(MCS_TABLE_2) == 28
        assert len(CQI_TABLE_2) == 15

    def test_256qam_present(self):
        from repro.phy.mcs import MCS_TABLE_2

        assert MCS_TABLE_2[27].qm == 8
        assert MCS_TABLE_2[27].rate_x1024 == 948

    def test_cqi15_maps_to_top_mcs(self):
        assert cqi_to_mcs(15, table=2) == 27

    def test_peak_rate_gain_over_table1(self):
        """256QAM raises the 52-PRB peak by ~33% (8/6 bits per symbol)."""
        t1 = transport_block_size_bits(52, 28, mcs_table=1)
        t2 = transport_block_size_bits(52, 27, mcs_table=2)
        assert t2 / t1 == pytest.approx(8 / 6, rel=0.02)

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            cqi_to_mcs(5, table=3)

    def test_table2_mcs_range_checked(self):
        from repro.phy.mcs import mcs_entry

        with pytest.raises(ValueError):
            mcs_entry(28, table=2)  # table 2 tops out at 27

    def test_low_cqi_same_modulation_both_tables(self):
        # CQI 1 is QPSK 78/1024 in both tables
        from repro.phy.mcs import CQI_TABLE_1, CQI_TABLE_2

        assert CQI_TABLE_1[0].qm == CQI_TABLE_2[0].qm == 2
        assert CQI_TABLE_1[0].rate_x1024 == CQI_TABLE_2[0].rate_x1024 == 78

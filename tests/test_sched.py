"""Tests for native intra- and inter-slice schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.numerology import PAPER_CARRIER
from repro.sched import (
    MaximumThroughputScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    TargetRateInterSlice,
    UeSchedInfo,
    make_intra_scheduler,
    validate_grants,
)
from repro.sched.types import GrantValidationError


def full(ue_id, mcs=15, avg=0.0):
    return UeSchedInfo(ue_id, mcs, 9, 10_000_000, avg)


def gd(grants):
    return {g.ue_id: g.prbs for g in grants}


ue_strategy = st.builds(
    UeSchedInfo,
    ue_id=st.integers(0, 100),
    mcs=st.integers(0, 28),
    cqi=st.integers(0, 15),
    buffer_bytes=st.integers(0, 5_000_000),
    avg_tput_bps=st.floats(0, 1e8, allow_nan=False),
)


class TestGrantValidation:
    def test_valid(self):
        ues = [full(1), full(2)]
        sched = RoundRobinScheduler()
        grants = sched.schedule(52, ues, 0)
        validate_grants(grants, 52, ues)

    def test_unknown_ue(self):
        from repro.sched.types import UeGrant

        with pytest.raises(GrantValidationError, match="unknown UE"):
            validate_grants([UeGrant(99, 1)], 52, [full(1)])

    def test_duplicate(self):
        from repro.sched.types import UeGrant

        with pytest.raises(GrantValidationError, match="duplicate"):
            validate_grants([UeGrant(1, 1), UeGrant(1, 2)], 52, [full(1)])

    def test_overallocation(self):
        from repro.sched.types import UeGrant

        with pytest.raises(GrantValidationError, match="allocate"):
            validate_grants([UeGrant(1, 53)], 52, [full(1)])

    def test_negative(self):
        from repro.sched.types import UeGrant

        with pytest.raises(GrantValidationError, match="negative"):
            validate_grants([UeGrant(1, -1)], 52, [full(1)])


class TestIntraSchedulers:
    @pytest.mark.parametrize("name", ["rr", "pf", "mt"])
    @given(ues=st.lists(ue_strategy, max_size=10), prbs=st.integers(0, 106))
    @settings(max_examples=30, deadline=None)
    def test_never_overallocates(self, name, ues, prbs):
        seen = {}
        for ue in ues:
            seen[ue.ue_id] = ue
        ues = list(seen.values())
        sched = make_intra_scheduler(name)
        for slot in range(3):
            grants = sched.schedule(prbs, ues, slot)
            validate_grants(grants, prbs, ues)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_intra_scheduler("edf")

    def test_rr_full_utilisation(self):
        grants = RoundRobinScheduler().schedule(52, [full(1), full(2)], 0)
        assert sum(gd(grants).values()) == 52

    def test_rr_skips_empty_buffers(self):
        ues = [full(1), UeSchedInfo(2, 15, 9, 0, 0.0)]
        grants = gd(RoundRobinScheduler().schedule(52, ues, 0))
        assert 2 not in grants
        assert grants[1] == 52

    def test_mt_picks_best_channel(self):
        ues = [full(1, mcs=10), full(2, mcs=28), full(3, mcs=20)]
        grants = gd(MaximumThroughputScheduler().schedule(52, ues, 0))
        assert grants == {2: 52}

    def test_mt_spills_to_second_best(self):
        ues = [
            UeSchedInfo(1, 28, 15, 1000, 0.0),  # small buffer
            full(2, mcs=20),
        ]
        grants = gd(MaximumThroughputScheduler().schedule(52, ues, 0))
        assert grants[1] <= 12  # 1000 B at MCS 28 ~ 11 PRBs
        assert grants[2] >= 40

    def test_pf_metric_balance(self):
        """PF must eventually serve both UEs when averages update."""
        sched = ProportionalFairScheduler()
        avg = {1: 1.0, 2: 1.0}
        served_count = {1: 0, 2: 0}
        tc = 20
        for slot in range(200):
            ues = [
                UeSchedInfo(1, 28, 15, 10_000_000, avg[1]),
                UeSchedInfo(2, 16, 9, 10_000_000, avg[2]),
            ]
            grants = gd(sched.schedule(52, ues, slot))
            from repro.phy.tbs import transport_block_size_bits

            for uid in (1, 2):
                inst = transport_block_size_bits(
                    grants.get(uid, 0), 28 if uid == 1 else 16
                ) * 1000
                avg[uid] = (1 - 1 / tc) * avg[uid] + inst / tc
                if grants.get(uid, 0) > 0:
                    served_count[uid] += 1
        assert served_count[1] > 20
        assert served_count[2] > 20

    def test_pf_alpha_zero_ignores_rate(self):
        sched = ProportionalFairScheduler(alpha=0.0)
        a = UeSchedInfo(1, 28, 15, 1000, 5e6)
        b = UeSchedInfo(2, 0, 1, 1000, 1e6)
        # with alpha=0, only avg matters -> b (lower avg) wins
        assert sched.metric(b) > sched.metric(a)


#: the slot length a gNB passes its inter-slice scheduler: the paper's carrier's
SLOT_S = PAPER_CARRIER.slot_duration_s


class TestTargetRateInter:
    def test_rates_capped_at_target(self):
        """Non-work-conserving: a slice never gets more than its tokens."""
        inter = TargetRateInterSlice({1: 3e6})
        delivered = 0
        from repro.phy.tbs import transport_block_size_bits

        for _ in range(2000):
            alloc = inter.allocate(52, {1: [full(1, mcs=28)]}, SLOT_S)
            nbytes = transport_block_size_bits(alloc.get(1, 0), 28) // 8
            inter.notify_delivery(1, nbytes, SLOT_S)
            delivered += nbytes
        rate = delivered * 8 / 2.0
        assert rate == pytest.approx(3e6, rel=0.1)

    def test_competing_slices_scale_down(self):
        inter = TargetRateInterSlice({1: 50e6, 2: 50e6})
        slice_ues = {1: [full(1, mcs=28)], 2: [full(2, mcs=28)]}
        for _ in range(60):
            alloc = inter.allocate(52, slice_ues, SLOT_S)
            assert sum(alloc.values()) <= 52
        # both saturated and symmetric
        assert abs(alloc[1] - alloc[2]) <= 1

    def test_no_demand_no_allocation(self):
        inter = TargetRateInterSlice({1: 10e6})
        alloc = inter.allocate(52, {1: [UeSchedInfo(1, 15, 9, 0, 0.0)]}, SLOT_S)
        assert alloc[1] == 0

    def test_work_conserving_redistributes(self):
        inter = TargetRateInterSlice(
            {1: 1e6, 2: 1e6}, work_conserving=True, burst_slots=1
        )
        slice_ues = {1: [full(1)], 2: [UeSchedInfo(2, 15, 9, 0, 0.0)]}
        for _ in range(10):
            alloc = inter.allocate(52, slice_ues, SLOT_S)
        assert alloc[1] == 52  # slice 1 absorbs everything

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            TargetRateInterSlice({1: -5})

"""Property-style invariant tests for the native schedulers.

Three families of invariants, each checked over randomized traffic:

- **capacity/validity** — every intra-slice scheduler's output passes the
  gNB-side :func:`validate_grants` check and never over-allocates;
- **starvation** — RR serves every backlogged UE within ``n`` slots, PF
  with throughput feedback serves everyone eventually, MT starves the
  worst channel by design (the Fig. 5b phase-one behaviour);
- **conservation** — draining a finite backlog delivers exactly the bytes
  that were buffered, and inter-slice allocators never hand out more PRBs
  than the carrier has.
"""

import random

import pytest

from repro.phy.numerology import PAPER_CARRIER
from repro.phy.tbs import transport_block_size_bits
from repro.sched.inter import TargetRateInterSlice
from repro.sched.intra import (
    DEMAND_CAP_PRBS,
    make_intra_scheduler,
    prbs_for_bytes,
)
from repro.sched.types import UeSchedInfo, validate_grants

INTRA_POLICIES = ("rr", "pf", "mt")


def random_ues(rng: random.Random, n: int) -> list[UeSchedInfo]:
    return [
        UeSchedInfo(
            ue_id=i,
            mcs=rng.randint(0, 28),
            cqi=rng.randint(0, 15),
            buffer_bytes=rng.choice([0, rng.randint(1, 200_000)]),
            avg_tput_bps=rng.uniform(1.0, 5e7),
        )
        for i in range(n)
    ]


class TestPrbsForBytes:
    def test_zero_bytes_zero_prbs(self):
        assert prbs_for_bytes(0, 10) == 0

    @pytest.mark.parametrize("mcs", range(29))
    def test_result_is_minimal_sufficient(self, mcs):
        # every TBS boundary: the bytes one to 512 PRBs carry, one byte
        # either side, and demand past the cap.  TBS is monotone in the
        # PRB count, so this pins the search's answer exactly
        tbs = [transport_block_size_bits(n, mcs) for n in range(DEMAND_CAP_PRBS + 1)]
        assert all(a <= b for a, b in zip(tbs, tbs[1:]))
        sizes = {tbs[DEMAND_CAP_PRBS] // 8 + 1, 10**9}
        for n in range(1, DEMAND_CAP_PRBS + 1):
            sizes.update((tbs[n] // 8 - 1, tbs[n] // 8, tbs[n] // 8 + 1))
        for nbytes in sorted(sizes):
            n = prbs_for_bytes(nbytes, mcs)
            if nbytes <= 0:
                assert n == 0
            elif tbs[DEMAND_CAP_PRBS] < nbytes * 8:
                assert n == DEMAND_CAP_PRBS
            else:
                assert tbs[n] >= nbytes * 8
                assert n == 1 or tbs[n - 1] < nbytes * 8

    @pytest.mark.parametrize("mcs", [-1, 29])
    def test_out_of_range_mcs_raises(self, mcs):
        with pytest.raises(ValueError, match="MCS index"):
            prbs_for_bytes(100, mcs)

    def test_monotonic_in_bytes(self):
        prev = 0
        for nbytes in range(0, 5000, 250):
            cur = prbs_for_bytes(nbytes, 10)
            assert cur >= prev
            prev = cur

    def test_saturates_at_cap(self):
        assert prbs_for_bytes(10**9, 0) == DEMAND_CAP_PRBS


class TestGrantValidity:
    @pytest.mark.parametrize("policy", INTRA_POLICIES)
    @pytest.mark.parametrize("seed", range(15))
    def test_random_traffic_always_validates(self, policy, seed):
        rng = random.Random(seed)
        sched = make_intra_scheduler(policy)
        for slot in range(30):
            ues = random_ues(rng, rng.randint(1, 12))
            prbs = rng.randint(0, 100)
            grants = sched.schedule(prbs, ues, slot)
            validate_grants(grants, prbs, ues)  # raises on any violation
            assert sum(g.prbs for g in grants) <= prbs
            backlogged = {u.ue_id for u in ues if u.buffer_bytes > 0}
            assert {g.ue_id for g in grants} <= backlogged

    @pytest.mark.parametrize("policy", INTRA_POLICIES)
    def test_no_grants_without_demand_or_capacity(self, policy):
        sched = make_intra_scheduler(policy)
        idle = [UeSchedInfo(0, 10, 8, 0, 1e6)]
        busy = [UeSchedInfo(0, 10, 8, 5000, 1e6)]
        assert sched.schedule(50, idle, 0) == []
        assert sched.schedule(0, busy, 0) == []


class TestStarvation:
    def test_rr_bounded_starvation(self):
        """With n backlogged UEs, RR serves every UE within n slots."""
        n_ues, prbs, slots = 8, 3, 100
        sched = make_intra_scheduler("rr")
        last_served = {i: -1 for i in range(n_ues)}
        worst_gap = 0
        for slot in range(slots):
            ues = [UeSchedInfo(i, 10, 8, 100_000, 1e6) for i in range(n_ues)]
            for grant in sched.schedule(prbs, ues, slot):
                gap = slot - last_served[grant.ue_id]
                worst_gap = max(worst_gap, gap)
                last_served[grant.ue_id] = slot
        assert all(s >= 0 for s in last_served.values()), "some UE never served"
        assert worst_gap <= n_ues
        # the tail matters too: nobody has been waiting > n slots at the end
        assert all(slots - s <= n_ues for s in last_served.values())

    def test_pf_with_feedback_serves_everyone(self):
        """PF + EWMA throughput feedback never starves a UE for long."""
        mcs_levels = [28, 20, 10, 4]
        sched = make_intra_scheduler("pf")
        avg = {i: 1.0 for i in range(len(mcs_levels))}
        served_slots = {i: 0 for i in range(len(mcs_levels))}
        for slot in range(300):
            ues = [
                UeSchedInfo(i, m, 8, 100_000, avg[i])
                for i, m in enumerate(mcs_levels)
            ]
            grants = {g.ue_id: g.prbs for g in sched.schedule(10, ues, slot)}
            for i, m in enumerate(mcs_levels):
                bits = transport_block_size_bits(grants.get(i, 0), m) if grants.get(i, 0) else 0
                avg[i] = 0.99 * avg[i] + 0.01 * bits * 1000.0
                if grants.get(i, 0) > 0:
                    served_slots[i] += 1
        assert all(count >= 10 for count in served_slots.values()), served_slots

    def test_mt_starves_worst_channel_by_design(self):
        """MT gives everything to the best channel — the inverse property."""
        sched = make_intra_scheduler("mt")
        bad_served = 0
        for slot in range(100):
            ues = [
                UeSchedInfo(0, 28, 15, 10**6, 1e6),
                UeSchedInfo(1, 5, 3, 10**6, 1e6),
            ]
            grants = {g.ue_id: g.prbs for g in sched.schedule(20, ues, slot)}
            bad_served += grants.get(1, 0)
        assert bad_served == 0


class TestConservation:
    @pytest.mark.parametrize("policy", INTRA_POLICIES)
    def test_drain_delivers_exactly_the_backlog(self, policy):
        """Simulated drain: served bytes == initial buffered bytes."""
        rng = random.Random(42)
        buffers = {i: rng.randint(1_000, 60_000) for i in range(6)}
        mcs = {i: rng.randint(4, 28) for i in range(6)}
        initial = sum(buffers.values())
        sched = make_intra_scheduler(policy)
        delivered = 0
        for slot in range(3_000):
            if all(b == 0 for b in buffers.values()):
                break
            ues = [
                UeSchedInfo(i, mcs[i], 8, buffers[i], 1e6)
                for i in range(6)
            ]
            for grant in sched.schedule(8, ues, slot):
                capacity = transport_block_size_bits(grant.prbs, mcs[grant.ue_id]) // 8
                chunk = min(buffers[grant.ue_id], capacity)
                buffers[grant.ue_id] -= chunk
                delivered += chunk
        assert all(b == 0 for b in buffers.values()), "drain did not finish"
        assert delivered == initial


class TestInterSliceCapacity:
    def _random_slice_ues(self, rng, n_slices=3):
        return {
            sid: random_ues(rng, rng.randint(0, 6)) for sid in range(n_slices)
        }

    @pytest.mark.parametrize("work_conserving", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_target_rate_never_overallocates(self, seed, work_conserving):
        rng = random.Random(seed)
        sched = TargetRateInterSlice(
            {0: 3e6, 1: 12e6, 2: 15e6}, work_conserving=work_conserving
        )
        slot_s = PAPER_CARRIER.slot_duration_s
        for _ in range(50):
            slice_ues = self._random_slice_ues(rng)
            total = rng.randint(1, 100)
            alloc = sched.allocate(total, slice_ues, slot_s)
            assert sum(alloc.values()) <= total
            assert all(v >= 0 for v in alloc.values())
            for sid, prbs in alloc.items():
                sched.notify_delivery(
                    sid, transport_block_size_bits(prbs, 10) // 8 if prbs else 0, slot_s
                )

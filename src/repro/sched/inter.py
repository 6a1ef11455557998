"""Inter-slice schedulers: divide the carrier's PRBs among slices.

The paper's MVNO experiment uses target cumulative DL rates per slice
(3/12/15 Mb/s); :class:`TargetRateInterSlice` enforces those with per-slice
token buckets and optional work-conserving redistribution of unused PRBs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter

from repro.sched.intra import prbs_for_bytes
from repro.sched.types import UeSchedInfo

_MCS = attrgetter("mcs")


class InterSliceScheduler(ABC):
    """Allocates PRBs to slices each slot of ``slot_s`` seconds, the
    carrier's slot length, which the gNB passes in."""

    @abstractmethod
    def allocate(
        self,
        total_prbs: int,
        slice_ues: dict[int, list[UeSchedInfo]],
        slot_s: float,
    ) -> dict[int, int]:
        """Return {slice_id: prbs}; sum must not exceed ``total_prbs``."""

    def notify_delivery(self, slice_id: int, nbytes: int, slot_s: float) -> None:
        """Feedback hook: bytes actually delivered for a slice this slot."""


def _demand_prbs(ues: list[UeSchedInfo], cap_bytes: float | None = None) -> int:
    """PRBs a slice could usefully consume this slot."""
    total = 0
    budget = cap_bytes
    # best MCS first; the sort is stable, so ties keep the slice's row order
    for ue in sorted(ues, key=_MCS, reverse=True):
        nbytes = ue.buffer_bytes
        if budget is not None:
            nbytes = min(nbytes, int(budget))
            budget -= nbytes
        total += prbs_for_bytes(nbytes, ue.mcs)
        if budget is not None and budget <= 0:
            break
    return total


class TargetRateInterSlice(InterSliceScheduler):
    """Token-bucket enforcement of per-slice target rates.

    Each slice accrues ``target_rate_bps * slot_s`` worth of byte tokens
    (capped at ``burst_slots`` slots of burst).  A slot's PRBs go first to
    slices with tokens *and* buffered data, proportionally to their token
    deficit; leftover PRBs are redistributed to backlogged slices if
    ``work_conserving`` (off by default: the paper's experiment caps each
    MVNO at its purchased rate, which is what Fig. 5a shows).
    """

    def __init__(
        self,
        targets_bps: dict[int, float],
        burst_slots: int = 50,
        work_conserving: bool = False,
    ):
        if any(t < 0 for t in targets_bps.values()):
            raise ValueError("target rates must be non-negative")
        self.targets_bps = dict(targets_bps)
        self.burst_slots = burst_slots
        self.work_conserving = work_conserving
        self.tokens_bytes: dict[int, float] = {sid: 0.0 for sid in targets_bps}

    def allocate(self, total_prbs, slice_ues, slot_s):
        # accrue tokens
        for sid, target in self.targets_bps.items():
            cap = target * slot_s * self.burst_slots / 8
            self.tokens_bytes[sid] = min(
                self.tokens_bytes.get(sid, 0.0) + target * slot_s / 8,
                cap,
            )
        desired: dict[int, int] = {}
        for sid, ues in slice_ues.items():
            tokens = self.tokens_bytes.get(sid, 0.0)
            desired[sid] = _demand_prbs(ues, cap_bytes=tokens)

        total_desired = sum(desired.values())
        alloc: dict[int, int] = {sid: 0 for sid in slice_ues}
        if total_desired <= total_prbs:
            alloc.update(desired)
        else:
            # proportional scale-down, largest remainder
            exact = {
                sid: desired[sid] * total_prbs / total_desired for sid in desired
            }
            alloc = {sid: int(v) for sid, v in exact.items()}
            leftover = total_prbs - sum(alloc.values())
            for sid in sorted(exact, key=lambda s: exact[s] - alloc[s], reverse=True):
                if leftover <= 0:
                    break
                alloc[sid] += 1
                leftover -= 1
        if self.work_conserving:
            spare = total_prbs - sum(alloc.values())
            if spare > 0:
                backlogged = {
                    sid: _demand_prbs(ues) - alloc[sid]
                    for sid, ues in slice_ues.items()
                }
                for sid in sorted(backlogged, key=backlogged.get, reverse=True):
                    if spare <= 0:
                        break
                    extra = min(max(backlogged[sid], 0), spare)
                    alloc[sid] += extra
                    spare -= extra
        return alloc

    def notify_delivery(self, slice_id: int, nbytes: int, slot_s: float) -> None:
        tokens = self.tokens_bytes.get(slice_id)
        if tokens is not None:
            # Debt is allowed (down to one burst's worth): PRB granularity
            # rounds each slot's delivery up, and without debt the slice
            # would systematically overshoot its purchased rate.
            target = self.targets_bps.get(slice_id, 0.0)
            floor = -target * slot_s * self.burst_slots / 8
            tokens -= nbytes
            self.tokens_bytes[slice_id] = tokens if tokens > floor else floor

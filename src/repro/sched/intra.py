"""Native intra-slice schedulers: Round Robin, Proportional Fair, Maximum
Throughput - the three policies the paper evaluates (§4A, §5).

These serve two roles: as the *baselines* a host gNB would ship built-in,
and as the reference implementations the Wasm plugins are differentially
tested against (plugin output must equal native output on identical input).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from operator import attrgetter

from repro.phy.tbs import ROW_PRBS, TBS_ROWS
from repro.sched.types import UeGrant, UeSchedInfo

#: demand is capped here: no real carrier exceeds 275 PRBs, so "needs more
#: than 512" and "needs 512" are indistinguishable to every caller.  A
#: TBS row covers exactly 0..cap.
DEMAND_CAP_PRBS = ROW_PRBS


def prbs_for_bytes(nbytes: int, mcs: int) -> int:
    """PRBs needed to move ``nbytes`` at ``mcs`` in one slot (ceil search).

    The minimal n in 1..cap with ``tbs(n) >= bits``, by binary search on
    the MCS's TBS row: ``bisect_left`` takes the same lo/hi/mid steps as
    the plugin prelude's search, so outputs match exactly.  TBS is
    monotone in n, so demand beyond :data:`DEMAND_CAP_PRBS` saturates at
    the cap (callers always ``min()`` against the slice share anyway).
    """
    if nbytes <= 0:
        return 0
    return bisect_left(TBS_ROWS[mcs], nbytes * 8, 1, DEMAND_CAP_PRBS)


class IntraSliceScheduler(ABC):
    """Distributes a slice's PRB share among its UEs for one slot."""

    name = "base"

    @abstractmethod
    def schedule(
        self, allocated_prbs: int, ues: list[UeSchedInfo], slot: int
    ) -> list[UeGrant]:
        """Return grants; total PRBs must not exceed ``allocated_prbs``."""


class RoundRobinScheduler(IntraSliceScheduler):
    """Equal shares with a rotating remainder pointer.

    Every UE with buffered data gets ``floor(P/n)`` PRBs; the remainder
    goes to the UEs after the rotating pointer, which advances each slot so
    the extra PRBs cycle fairly.
    """

    name = "rr"

    def __init__(self) -> None:
        self._pointer = 0

    def schedule(
        self, allocated_prbs: int, ues: list[UeSchedInfo], slot: int
    ) -> list[UeGrant]:
        eligible = _backlogged(ues)
        if not eligible or allocated_prbs <= 0:
            return []
        n = len(eligible)
        base = allocated_prbs // n
        remainder = allocated_prbs % n
        start = self._pointer % n
        self._pointer += 1
        need = [prbs_for_bytes(ue.buffer_bytes, ue.mcs) for ue in eligible]
        granted: dict[int, int] = {}  # ue_id -> PRBs, in grant order
        for offset in range(n):
            i = (start + offset) % n
            prbs = min(base + (1 if offset < remainder else 0), need[i])
            if prbs > 0:
                granted[eligible[i].ue_id] = prbs
        # PRBs freed by buffer-limited UEs go to UEs that can still use them
        leftover = allocated_prbs - sum(granted.values())
        for i, ue in enumerate(eligible):
            if leftover <= 0:
                break
            extra = min(need[i] - granted.get(ue.ue_id, 0), leftover)
            if extra > 0:
                granted[ue.ue_id] = granted.get(ue.ue_id, 0) + extra
                leftover -= extra
        return [UeGrant(ue_id, prbs) for ue_id, prbs in granted.items()]


class ProportionalFairScheduler(IntraSliceScheduler):
    """Classic PF: rank by instantaneous rate / long-term throughput.

    ``time_constant`` is the PF averaging window in slots (the paper's
    Fig. 5b deliberately uses a *large* time constant so the long-run
    throughput term dominates after a scheduler swap).  The long-term
    average itself is maintained by the gNB and arrives in
    ``UeSchedInfo.avg_tput_bps``; the exponent knobs allow the usual
    alpha/beta PF generalisation.
    """

    name = "pf"

    def __init__(self, alpha: float = 1.0, beta: float = 1.0):
        self.alpha = alpha
        self.beta = beta

    def metric(self, ue: UeSchedInfo) -> float:
        inst_rate = TBS_ROWS[ue.mcs][1] * 1000.0  # bps per PRB
        avg = max(ue.avg_tput_bps, 1.0)
        return (inst_rate**self.alpha) / (avg**self.beta)

    def schedule(
        self, allocated_prbs: int, ues: list[UeSchedInfo], slot: int
    ) -> list[UeGrant]:
        eligible = _backlogged(ues)
        if not eligible or allocated_prbs <= 0:
            return []
        # highest metric first; the sort is stable, so ties keep ue_id order
        eligible.sort(key=self.metric, reverse=True)
        return _greedy(eligible, allocated_prbs)


class MaximumThroughputScheduler(IntraSliceScheduler):
    """Greedy: serve the best-channel UE first (cell-throughput maximal).

    Starves bad-channel UEs by design - exactly the behaviour Fig. 5b's
    first phase demonstrates with the MCS-20 UE.
    """

    name = "mt"

    def schedule(
        self, allocated_prbs: int, ues: list[UeSchedInfo], slot: int
    ) -> list[UeGrant]:
        eligible = _backlogged(ues)
        if not eligible or allocated_prbs <= 0:
            return []
        # best MCS first; the sort is stable, so ties keep ue_id order
        eligible.sort(key=_MCS, reverse=True)
        return _greedy(eligible, allocated_prbs)


_UE_ID = attrgetter("ue_id")
_MCS = attrgetter("mcs")


def _backlogged(ues: list[UeSchedInfo]) -> list[UeSchedInfo]:
    """The UEs with buffered data, in ``ue_id`` order."""
    return sorted([ue for ue in ues if ue.buffer_bytes > 0], key=_UE_ID)


def _greedy(ranked: list[UeSchedInfo], allocated_prbs: int) -> list[UeGrant]:
    """Serve ``ranked`` in order, each UE up to its demand, until the share
    runs out."""
    grants = []
    remaining = allocated_prbs
    for ue in ranked:
        if remaining <= 0:
            break
        prbs = min(prbs_for_bytes(ue.buffer_bytes, ue.mcs), remaining)
        if prbs > 0:
            grants.append(UeGrant(ue.ue_id, prbs))
            remaining -= prbs
    return grants


_REGISTRY = {
    "rr": RoundRobinScheduler,
    "pf": ProportionalFairScheduler,
    "mt": MaximumThroughputScheduler,
}


def make_intra_scheduler(name: str, **params) -> IntraSliceScheduler:
    """Factory over the built-in policies."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**params)

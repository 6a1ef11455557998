"""Channel model implementations."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.phy.mcs import MCS_TABLE_1, cqi_to_mcs

#: link adaptation (``cqi_to_mcs``) per CQI 0..15
_MCS_OF_CQI = tuple(cqi_to_mcs(cqi) for cqi in range(16))


class ChannelModel(ABC):
    """Produces the channel state a UE reports each slot."""

    @abstractmethod
    def report(self, slot: int) -> tuple[int, int]:
        """Advance to ``slot`` and return the reported ``(CQI, MCS)``: the
        CQI (0..15) and its link-adapted MCS, read once per UE per slot."""

    def step(self, slot: int) -> int:
        """Advance to ``slot`` and return the reported CQI (0..15)."""
        return self.report(slot)[0]

    def mcs(self, slot: int) -> int:
        """Advance to ``slot`` and return the link-adapted MCS."""
        return self.report(slot)[1]


class FixedMcsChannel(ChannelModel):
    """A channel pinned to a fixed MCS (per Fig. 5b's controlled setup).

    Reports the smallest CQI whose link adaptation yields the target MCS,
    together with the exact target.
    """

    def __init__(self, mcs: int):
        if not 0 <= mcs < len(MCS_TABLE_1):
            raise ValueError(f"MCS must be 0..28, got {mcs}")
        self._mcs = mcs
        self._cqi = next(
            (cqi for cqi in range(1, 16) if cqi_to_mcs(cqi) >= mcs), 15
        )

    def report(self, slot: int) -> tuple[int, int]:
        return self._cqi, self._mcs


class MarkovCqiChannel(ChannelModel):
    """Bounded random walk over CQI with configurable step probability."""

    def __init__(
        self,
        initial_cqi: int = 9,
        p_step: float = 0.1,
        lo: int = 1,
        hi: int = 15,
        seed: int | None = None,
    ):
        if not 0 <= initial_cqi <= 15:
            raise ValueError(f"CQI must be 0..15, got {initial_cqi}")
        if not 0 <= lo <= hi <= 15:
            raise ValueError(f"bad CQI bounds [{lo}, {hi}]")
        self.cqi = min(max(initial_cqi, lo), hi)
        self.p_step = p_step
        self.lo = lo
        self.hi = hi
        self._rng = random.Random(seed)
        self._last_slot = -1

    def report(self, slot: int) -> tuple[int, int]:
        # advance once per distinct slot (idempotent within a slot)
        if slot != self._last_slot:
            self._last_slot = slot
            if self._rng.random() < self.p_step:
                delta = 1 if self._rng.random() < 0.5 else -1
                self.cqi = min(max(self.cqi + delta, self.lo), self.hi)
        cqi = self.cqi  # within lo..hi, a subrange of 0..15
        return cqi, _MCS_OF_CQI[cqi]

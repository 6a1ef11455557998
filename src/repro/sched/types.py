"""Scheduler data model shared by native schedulers, the plugin ABI and the gNB."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(slots=True)
class UeSchedInfo:
    """Per-UE state handed to an intra-slice scheduler each slot.

    This mirrors the paper's description of the plugin input: "channel
    quality, buffer status, long-term throughput, and UE identifiers".
    """

    ue_id: int
    mcs: int  # current link-adapted MCS (0..28)
    cqi: int  # reported CQI (0..15)
    buffer_bytes: int  # downlink RLC occupancy
    avg_tput_bps: float  # long-term (EWMA) served throughput

    def __post_init__(self):
        if self.ue_id < 0:
            raise ValueError("ue_id must be non-negative")
        if not 0 <= self.mcs <= 28:
            raise ValueError(f"mcs out of range: {self.mcs}")
        if not 0 <= self.cqi <= 15:
            raise ValueError(f"cqi out of range: {self.cqi}")
        if self.buffer_bytes < 0:
            raise ValueError("buffer_bytes must be non-negative")


class UeGrant(NamedTuple):
    """One scheduling decision: ``prbs`` PRBs to ``ue_id`` this slot.

    Immutable; a named tuple rather than a frozen dataclass because every
    scheduler builds one per served UE per slot, at about half the cost.
    """

    ue_id: int
    prbs: int


class GrantValidationError(ValueError):
    """An intra-slice scheduler (plugin or native) returned invalid grants."""


def validate_grants(
    grants: list[UeGrant],
    allocated_prbs: int,
    ues: list[UeSchedInfo],
) -> None:
    """The gNB-side sanity check on scheduler output (fault tolerance, §6A).

    Rejects grants that name unknown UEs, duplicate a UE, use negative PRB
    counts, or over-allocate the slice's share.
    """
    ungranted = {ue.ue_id for ue in ues}
    total = 0
    for grant in grants:
        ue_id = grant.ue_id
        try:
            ungranted.remove(ue_id)
        except KeyError:
            if any(ue.ue_id == ue_id for ue in ues):
                raise GrantValidationError(f"duplicate grant for UE {ue_id}") from None
            raise GrantValidationError(f"grant names unknown UE {ue_id}") from None
        prbs = grant.prbs
        if prbs < 0:
            raise GrantValidationError(f"negative PRB count {prbs} for UE {ue_id}")
        total += prbs
    if total > allocated_prbs:
        raise GrantValidationError(
            f"grants allocate {total} PRBs, slice was given {allocated_prbs}"
        )

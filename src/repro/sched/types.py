"""Scheduler data model shared by native schedulers, the plugin ABI and the gNB."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
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


@dataclass(frozen=True)
class UeGrant:
    """One scheduling decision: ``prbs`` PRBs to ``ue_id`` this slot."""

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
    known = {ue.ue_id for ue in ues}
    seen: set[int] = set()
    total = 0
    for grant in grants:
        if grant.ue_id not in known:
            raise GrantValidationError(f"grant names unknown UE {grant.ue_id}")
        if grant.ue_id in seen:
            raise GrantValidationError(f"duplicate grant for UE {grant.ue_id}")
        seen.add(grant.ue_id)
        if grant.prbs < 0:
            raise GrantValidationError(
                f"negative PRB count {grant.prbs} for UE {grant.ue_id}"
            )
        total += grant.prbs
    if total > allocated_prbs:
        raise GrantValidationError(
            f"grants allocate {total} PRBs, slice was given {allocated_prbs}"
        )

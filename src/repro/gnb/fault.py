"""Plugin fault tolerance (paper §6A, implemented).

"The gNB can switch to a default scheduler or disconnect the MVNO if their
plugin is not behaving as expected."  :class:`FaultPolicy` implements that
escalation ladder:

1. every individual fault (trap, fuel/deadline exhaustion, ABI violation,
   invalid grants) falls back to the slice's default native scheduler for
   that slot - the slice's UEs never lose service;
2. ``quarantine_after`` *consecutive* faults park the plugin: the default
   scheduler serves the slice until an operator swaps a fixed plugin in
   (or restores a known-good checkpoint and releases it);
3. ``disconnect_after`` consecutive faults (if configured) drop the slice
   entirely - the contractual remedy against a hostile MVNO.

A released slice is on probation: :meth:`FaultPolicy.release` does *not*
reset the consecutive-fault counter (only a successful call does), so a
slice that faults straight after release keeps climbing the ladder toward
``disconnect_after`` instead of oscillating forever between quarantine and
release.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.obs import OBS


class FaultAction(enum.Enum):
    FALLBACK = "fallback"  # use default scheduler this slot
    QUARANTINE = "quarantine"  # stop calling the plugin until swapped
    DISCONNECT = "disconnect"  # drop the slice


@dataclass(frozen=True)
class FaultEvent:
    slot: int
    slice_id: int
    kind: str  # PluginError.kind or 'grants'
    action: FaultAction
    detail: str

    def describe(self) -> str:
        """The event's line in every digested fault log."""
        return (
            f"slot={self.slot} slice={self.slice_id} kind={self.kind} "
            f"action={self.action.value} detail={self.detail}"
        )


@dataclass
class FaultPolicy:
    quarantine_after: int = 3
    disconnect_after: int | None = None

    consecutive: dict[int, int] = field(default_factory=dict)
    quarantined: set[int] = field(default_factory=set)
    disconnected: set[int] = field(default_factory=set)
    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if (
            self.disconnect_after is not None
            and self.disconnect_after <= self.quarantine_after
        ):
            raise ValueError(
                f"disconnect_after ({self.disconnect_after}) must exceed "
                f"quarantine_after ({self.quarantine_after}): disconnection "
                "is the escalation beyond quarantine, not a shortcut past it"
            )

    def record_fault(self, slot: int, slice_id: int, kind: str, detail: str) -> FaultAction:
        """Register a plugin fault; returns the action the gNB must take."""
        if slice_id in self.disconnected:
            # a disconnected slice is already past the end of the ladder:
            # don't keep escalating or appending events for it
            return FaultAction.DISCONNECT
        count = self.consecutive.get(slice_id, 0) + 1
        self.consecutive[slice_id] = count
        if self.disconnect_after is not None and count >= self.disconnect_after:
            action = FaultAction.DISCONNECT
            self.disconnected.add(slice_id)
        elif count >= self.quarantine_after:
            action = FaultAction.QUARANTINE
            self.quarantined.add(slice_id)
        else:
            action = FaultAction.FALLBACK
        self.events.append(FaultEvent(slot, slice_id, kind, action, detail))
        if OBS.enabled:
            OBS.events.emit(
                "gnb.fault",
                source=f"slice:{slice_id}",
                slot=slot,
                fault_kind=kind,
                action=action.value,
                consecutive=count,
                detail=detail,
            )
            OBS.registry.counter(
                "waran_gnb_faults_total", "plugin faults by kind and action"
            ).inc(slice=str(slice_id), kind=kind, action=action.value)
        return action

    def record_success(self, slice_id: int) -> None:
        self.consecutive[slice_id] = 0

    def is_quarantined(self, slice_id: int) -> bool:
        return slice_id in self.quarantined

    def is_disconnected(self, slice_id: int) -> bool:
        return slice_id in self.disconnected

    def release(self, slice_id: int) -> None:
        """Operator action: a fixed plugin (or checkpoint) went in; try again.

        The consecutive-fault counter deliberately survives release: the
        released slice is on probation, and another fault before any
        success continues the climb toward ``disconnect_after``.  A single
        successful call (:meth:`record_success`) clears it.
        """
        self.quarantined.discard(slice_id)
        if OBS.enabled:
            OBS.events.emit("gnb.release", source=f"slice:{slice_id}")


@dataclass
class OperatorLadder:
    """The operator's quarantine/release loop over one gNB (deterministic).

    A quarantined slice is released ``release_after`` slots after it was
    first seen parked (restoring its last checkpoint when one exists); a
    released slice leaves ``released_at`` when a successful call clears
    its probation (recovered) or the escalation ladder takes it again
    (reescalated).  Whatever stays in ``released_at`` is still silent -
    the chaos soak bounds how long that may last.
    """

    quarantined_at: dict[int, int] = field(default_factory=dict)
    released_at: dict[int, int] = field(default_factory=dict)
    #: fault-log lines, in the order the operator acted
    events: list[str] = field(default_factory=list)
    releases: int = 0
    recoveries: int = 0

    def step(self, gnb, slot: int, release_after: int) -> None:
        """One slot of the loop, after ``gnb`` (a GnbHost) has stepped."""
        policy = gnb.fault_policy
        for sid in sorted(policy.quarantined):
            self.quarantined_at.setdefault(sid, slot)
            if slot - self.quarantined_at[sid] >= release_after:
                restored = gnb.release_slice(sid)
                del self.quarantined_at[sid]
                self.released_at[sid] = slot
                self.releases += 1
                self.events.append(
                    f"slot={slot} release slice={sid} restored={restored}"
                )
        for sid in sorted(self.released_at):
            if policy.consecutive.get(sid, 0) == 0:
                self.recoveries += 1
                self.events.append(f"slot={slot} recovered slice={sid}")
                del self.released_at[sid]
            elif policy.is_quarantined(sid) or policy.is_disconnected(sid):
                self.events.append(f"slot={slot} reescalated slice={sid}")
                del self.released_at[sid]

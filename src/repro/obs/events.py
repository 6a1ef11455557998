"""Structured event log: traps, deadline misses, swaps, fault escalation.

Where metrics aggregate and spans time, events *narrate*: each
:class:`Event` is one discrete occurrence with a kind, a source, and
free-form fields.  The host stack emits them at every point where the
paper's fault-tolerance story has something to say - a plugin trap
(with the spec-level trap code), a blown fuel budget, a hot swap, a
quarantine/disconnect decision - so a post-mortem can be read straight
off the log instead of reconstructed from counters.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Event:
    seq: int
    ts_ns: int  # monotonic clock, for ordering/latency only
    kind: str  # e.g. 'plugin.trap', 'plugin.deadline', 'plugin.swap', 'gnb.fault'
    source: str  # plugin / slice / component name
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts_ns": self.ts_ns,
            "kind": self.kind,
            "source": self.source,
            **self.fields,
        }


class EventLog:
    """Bounded, append-only log of structured events."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = itertools.count(1)

    def emit(self, kind: str, source: str = "", **fields: Any) -> Event:
        event = Event(
            seq=next(self._seq),
            ts_ns=time.perf_counter_ns(),
            kind=kind,
            source=source,
            fields=fields,
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: str | None = None) -> list[Event]:
        """Retained events oldest-first, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def last(self, n: int = 1) -> list[Event]:
        events = list(self._events)
        return events[-n:]

    def reset(self) -> None:
        self._events.clear()

    def to_json(self) -> list[dict[str, Any]]:
        return [event.to_json() for event in self._events]

"""Unified telemetry for the WA-RAN host stack.

One instrumentation layer shared by the gNB, the near-RT RIC, the Wasm
runtime, the WACC compiler, the benchmarks and the CLI, replacing the
ad-hoc ``perf_counter`` timing each of them used to hand-roll:

- :mod:`repro.obs.registry` - process-wide **metrics** (counters, gauges,
  exactly-mergeable bucket histograms with p50/p99; bound handles for
  hot sites) with JSON and Prometheus exposition;
- :mod:`repro.obs.tracing` - **spans** (``with tracer.span(...)``,
  parent/child nesting) over the hot path: ``plugin.call`` with
  encode/invoke/decode children, ``gnb.step`` per slot, RIC xApp
  dispatch, ``wacc.compile``;
- :mod:`repro.obs.flight` - the **flight recorder**: the last N plugin
  calls as replayable records (``PluginHost.replay``);
- :mod:`repro.obs.events` - the structured **event log**: traps (with
  spec trap codes), deadline misses, hot swaps, fault escalation.

A telemetry-on plugin call makes one record (:mod:`repro.obs.flight`) in
the call log, :attr:`Observability.calls`, that the registry and the
flight recorder take, in order, when it is full and before they read; a
traced call writes its span to the tracer's ring when it closes.

Everything hangs off one :class:`Observability` bundle; the module-level
:data:`OBS` is the process default.  Telemetry is **off by default** and
costs one branch per instrumented site when off::

    from repro import obs

    obs.enable()
    ...  # run plugins, experiments, benchmarks
    print(obs.OBS.registry.to_prometheus())
    print(obs.OBS.tracer.render_tree())

``python -m repro obs`` exercises a demo workload and dumps all four
sections as JSON or Prometheus text.
"""

from __future__ import annotations

import threading

from repro.obs.attribution import AttributionReport, attribute_slots
from repro.obs.events import Event, EventLog
from repro.obs.flight import CallRecord, CallSeries, FlightRecorder
from repro.obs.merge import (
    DEFAULT_GAUGE_MODES,
    MergeError,
    merge_snapshots,
    snapshot_to_prometheus,
)
from repro.obs.registry import (
    BoundMetrics,
    Counter,
    Gauge,
    Histogram,
    LogReader,
    MetricsRegistry,
)
from repro.obs.traceexport import (
    TraceExportError,
    chrome_trace,
    merge_span_collections,
    trace_digest,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    render_span_tree,
)


class Observability:
    """The four telemetry primitives, the call log and one master switch."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        #: the call log: the records the readers have not taken yet
        self.calls: list[tuple] = []
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=enabled)
        self.flight = FlightRecorder()
        self.events = EventLog()

    def __setattr__(self, name: str, value) -> None:
        # a new registry or flight recorder: the outgoing one takes what
        # was logged while it was installed, the new one pulls the log
        if isinstance(value, LogReader):
            if name in self.__dict__:
                self.fold_calls()
                self.__dict__[name]._log = None
            value._log = self.fold_calls
        object.__setattr__(self, name, value)

    def fold_calls(self) -> None:
        """Hand the logged calls to the readers (thread-safe: a call
        logged meanwhile waits for the next fold)."""
        with self._lock:
            records = self.calls[:]
            if records:
                del self.calls[:len(records)]
                reg = self.registry
                reg.batch(CallSeries, lambda: CallSeries(reg)).take(records)
                self.flight._take(records)

    def enable(self) -> None:
        self.enabled = True
        self.tracer.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.tracer.enabled = False

    def reset(self) -> None:
        """Drop all recorded telemetry (the enabled flag is untouched)."""
        self.fold_calls()
        self.registry.reset()
        self.tracer.reset()
        self.flight.reset()
        self.events.reset()

    def to_json(self) -> dict:
        """Everything, as one JSON-serialisable document."""
        return {
            "metrics": self.registry.to_json(),
            "spans": self.tracer.to_json(),
            "events": self.events.to_json(),
            "flight": self.flight.to_json(),
        }


#: the process-wide telemetry bundle every instrumented site reports into
OBS = Observability()


def enable() -> None:
    """Turn on the process-wide telemetry (metrics, spans, flight, events)."""
    OBS.enable()


def disable() -> None:
    OBS.disable()


def reset() -> None:
    OBS.reset()


__all__ = [
    "OBS",
    "Observability",
    "enable",
    "disable",
    "reset",
    "MetricsRegistry",
    "BoundMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "TraceContext",
    "NULL_SPAN",
    "render_span_tree",
    "FlightRecorder",
    "CallRecord",
    "EventLog",
    "Event",
    "MergeError",
    "DEFAULT_GAUGE_MODES",
    "merge_snapshots",
    "snapshot_to_prometheus",
    "AttributionReport",
    "attribute_slots",
    "TraceExportError",
    "chrome_trace",
    "merge_span_collections",
    "trace_digest",
    "validate_chrome_trace",
    "write_chrome_trace",
]

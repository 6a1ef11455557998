"""Exporting merged span collections as Chrome/Perfetto trace-event JSON.

The cluster produces one span collection per process (each worker ships
``tracer.to_json()`` home in its result frame; the coordinator has its
own).  :func:`merge_span_collections` flattens them into one document
list - the tracing analog of :func:`repro.obs.merge.merge_snapshots` -
and :func:`chrome_trace` renders that list in the `trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
Chrome's ``chrome://tracing`` and Perfetto load directly:

- every span becomes one complete (``"ph": "X"``) event with
  microsecond ``ts``/``dur``;
- every service (process) becomes one ``pid`` with a ``process_name``
  metadata event, every recorded thread one ``tid`` - so the
  coordinator, each worker, and each pump thread get their own swimlane;
- span/trace ids, status, attributes and the per-child time split
  (``children_us``) ride in ``args``.

Clock caveat: span timestamps are ``time.perf_counter_ns`` values, whose
epoch is *per process*.  Within one process the timeline is exact; across
processes the exporter re-bases every service to its own earliest span,
so swimlanes align at zero rather than pretending to a synchronized
clock.  Cross-process ordering comes from the parent/child ids, not from
comparing timestamps between pids.

:func:`trace_digest` hashes the *structure* of a collection (service,
span name, parent name, stable attributes - never ids or timings), so two
runs of the same deterministic workload digest identically even though
every span id and duration differs; the ``trace-smoke`` CI job holds the
cluster to exactly that.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

#: required keys for a complete ("X") trace event, per the spec
CHROME_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")


class TraceExportError(ValueError):
    """A span collection or trace file is malformed."""


def merge_span_collections(
    collections: Iterable[tuple[str, list[dict[str, Any]]]],
) -> list[dict[str, Any]]:
    """Flatten ``(service, spans)`` collections into one span-doc list.

    Each span document is stamped with its collection's service name
    (overriding the tracer-local default, which inline-mode workers all
    share).  Parent/child links need no fixup: span ids are globally
    unique, so cross-collection edges resolve by id.
    """
    merged: list[dict[str, Any]] = []
    seen: set[int] = set()
    for service, spans in collections:
        for doc in spans:
            span_id = doc.get("span_id")
            if span_id is None:
                raise TraceExportError(f"span without span_id in {service!r}")
            if span_id in seen:
                continue  # e.g. the coordinator re-shipping its own spans
            seen.add(span_id)
            merged.append({**doc, "service": service})
    return merged


def chrome_trace(span_docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Render merged span documents as a Chrome trace-event JSON document."""
    services = sorted({doc.get("service", "main") for doc in span_docs})
    pid_of = {service: i + 1 for i, service in enumerate(services)}
    # per-service zero point, so each process's swimlane starts at ts=0
    base_ns: dict[str, int] = {}
    for doc in span_docs:
        service = doc.get("service", "main")
        start = int(doc.get("start_ns", 0))
        if service not in base_ns or start < base_ns[service]:
            base_ns[service] = start
    tid_of: dict[tuple[str, int], int] = {}
    events: list[dict[str, Any]] = []
    for service in services:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid_of[service],
                "tid": 0,
                "args": {"name": service},
            }
        )
    for doc in span_docs:
        service = doc.get("service", "main")
        thread_key = (service, int(doc.get("thread_id", 0)))
        tid = tid_of.setdefault(thread_key, len(
            [k for k in tid_of if k[0] == service]) + 1)
        args: dict[str, Any] = {
            "trace_id": doc.get("trace_id", ""),
            "span_id": doc["span_id"],
            "status": doc.get("status", "ok"),
        }
        if doc.get("parent_id") is not None:
            args["parent_id"] = doc["parent_id"]
        args.update(doc.get("attrs", {}))
        if doc.get("children_us"):
            args["children_us"] = doc["children_us"]
        events.append(
            {
                "name": doc["name"],
                "cat": "waran",
                "ph": "X",
                "ts": round((int(doc.get("start_ns", 0)) - base_ns[service]) / 1000.0, 3),
                "dur": round(float(doc.get("elapsed_us", 0.0)), 3),
                "pid": pid_of[service],
                "tid": tid,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.traceexport"},
    }


def validate_chrome_trace(doc: dict[str, Any]) -> int:
    """Check a trace document against the spec's required keys.

    Returns the number of complete events; raises
    :class:`TraceExportError` naming the first malformed event.  This is
    what the ``trace-smoke`` CI job runs over the exported file.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise TraceExportError("traceEvents missing or empty")
    n_complete = 0
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            raise TraceExportError(f"event {i}: unexpected phase {ph!r}")
        for key in CHROME_EVENT_KEYS:
            if key not in event:
                raise TraceExportError(f"event {i}: missing key {key!r}")
        if event["dur"] < 0:
            raise TraceExportError(f"event {i}: negative duration")
        n_complete += 1
    if n_complete == 0:
        raise TraceExportError("no complete events in trace")
    return n_complete


def trace_digest(span_docs: list[dict[str, Any]]) -> str:
    """A sha256 over the trace's *structure*, stable across runs.

    Ids and timings differ between runs of the same workload; what must
    not differ (for a deterministic run) is which spans exist, how they
    nest, and their stable attributes.  The digest therefore folds the
    sorted multiset of ``(service, name, parent-name, status, attrs)``
    lines, where float-valued attributes (timings smuggled into attrs)
    are excluded.
    """
    names = {doc["span_id"]: doc["name"] for doc in span_docs}
    lines = []
    for doc in span_docs:
        parent = names.get(doc.get("parent_id"), "")
        attrs = ",".join(
            f"{k}={v}"
            for k, v in sorted(doc.get("attrs", {}).items())
            if not isinstance(v, float)
        )
        lines.append(
            f"{doc.get('service', 'main')}|{doc['name']}|{parent}"
            f"|{doc.get('status', 'ok')}|{attrs}"
        )
    payload = "\n".join(sorted(lines)).encode()
    return hashlib.sha256(payload).hexdigest()


def write_chrome_trace(path: str, span_docs: list[dict[str, Any]]) -> int:
    """Export to a file; returns the number of events written."""
    doc = chrome_trace(span_docs)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    return len(doc["traceEvents"])

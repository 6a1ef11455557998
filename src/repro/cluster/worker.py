"""The cell worker: one shard of the cluster, one process (or inline).

A worker derives its shard from ``(spec, worker_id)``, steps every hosted
cell slot-synchronously, and coalesces all cells' KPM indications into
the shared batched uplink.  Every ``spec.flush_every`` slots it emits one
slot-range frame (see :mod:`repro.netio.batching`) carrying the
range's E2 entries, the ``[slot_lo, slot_hi]`` progress header that
doubles as the liveness heartbeat, and - when tracing - the span
documents finished during the range (drained from the tracer, so traces
stream home incrementally).  Finally it ships one ``result`` control
frame to the coordinator carrying:

- per-cell scheduled-bytes totals and deterministic fault logs,
- its process-wide metrics-registry snapshot (merged by the coordinator
  via :func:`repro.obs.merge.merge_snapshots`),
- uplink/backpressure counters (also exported as ``waran_cluster_*``
  metrics inside the snapshot),
- with ``spec.trace``: the spans still open at the end (the streamed
  ranges carry the rest) and its trace context, so the coordinator can
  stitch one cross-process trace (:mod:`repro.obs.traceexport`) - every
  slot becomes a ``worker.slot`` span (children: ``gnb.step``,
  ``e2.encode``, ``uplink.flush``, ``net.send``, ...) parented under the
  coordinator's reserved root,
- with ``spec.capture``: its captured call streams as one base64 ``.wrc``
  corpus (``repro record`` merges the per-worker streams into one).

With a ``spec.budget_us`` latency budget, slots that overrun it emit a
live ``trace.deadline_miss`` event naming the *guilty segment* - the
child span (or self-time) that cost the most - so SLO violations are
attributable the moment they happen, not only in the offline report.

Control frames share the transport with batched E2 frames and are
distinguished by magic::

    u32 magic 'CLS1' | utf-8 JSON document
"""

from __future__ import annotations

import base64
import json
import os
import struct
import time
from typing import Any

from repro import obs
from repro.chaos.schedule import schedule_from_spec
from repro.cluster.shard import (
    CellShard,
    build_cell,
    render_cell_log,
    step_operator_loop,
)
from repro.cluster.spec import COORD, ClusterSpec
from repro.e2 import vendors
from repro.netio.batching import BatchSender, encode_span_blob
from repro.netio.bus import Endpoint, TcpNetwork
from repro.obs.tracing import TraceContext

CLUSTER_MAGIC = 0x31534C43  # 'CLS1' little-endian


def pack_control(doc: dict[str, Any]) -> bytes:
    return struct.pack("<I", CLUSTER_MAGIC) + json.dumps(
        doc, separators=(",", ":"), sort_keys=True
    ).encode()


def unpack_control(data: bytes) -> dict[str, Any] | None:
    """The parsed control document, or ``None`` for non-control frames."""
    if len(data) < 4 or struct.unpack_from("<I", data, 0)[0] != CLUSTER_MAGIC:
        return None
    return json.loads(data[4:].decode())


def _span_capacity(spec: ClusterSpec, cells: int) -> int:
    """Ring-buffer size that keeps a whole traced run (slot spans and
    their per-cell children) instead of silently evicting the early slots.

    Each slot emits the slot span, one gnb.step per cell, one plugin.call
    per scheduled slice (its phases are timestamps on that span) and the
    periodic flush/encode pair: 5 per cell-slot on the default cells, so
    8 leaves slack."""
    per_slot = 8 * max(1, cells) + 8
    return max(4096, spec.slots * per_slot)


def run_worker(
    spec: ClusterSpec,
    worker_id: int,
    endpoint: Endpoint,
    trace_parent: TraceContext | None = None,
) -> dict[str, Any]:
    """Build the shard, run the slot loop, return the result document.

    Enables (and, in its own process, effectively owns) the process-wide
    telemetry registry: the returned snapshot carries everything the
    shard's gNBs, plugins and uplink recorded.  Inline-mode callers reset
    the registry around each worker so snapshots stay per-worker.
    """
    from repro.wasm.threaded import resolve_engine

    obs.enable()
    tracer = obs.OBS.tracer
    service = f"worker{worker_id}"
    tracer.service = service
    engine = resolve_engine(spec.engine)
    schedule = schedule_from_spec(spec.chaos) if spec.chaos else None
    profile = vendors.vendor_b()
    sender = BatchSender(
        endpoint, COORD, max_queue=spec.queue_limit, max_batch=spec.max_batch
    )
    prev_flight = None
    if spec.capture:
        # corpus capture: swap in a capture-mode recorder *before* the
        # cells load their plugins, so module binaries get registered
        from repro.obs.flight import FlightRecorder

        shard_cells = len(spec.cells_for_worker(worker_id))
        prev_flight = obs.OBS.flight
        obs.OBS.flight = FlightRecorder(
            capacity=spec.slots * 24 * max(1, shard_cells) + 4096,
            capture=True,
        )
    try:
        return _run_worker_body(
            spec, worker_id, endpoint, trace_parent, sender, cells=[
                build_cell(spec, g, sender, profile, schedule)
                for g in spec.cells_for_worker(worker_id)
            ], engine=engine, schedule=schedule, tracer=tracer,
            service=service,
        )
    finally:
        if prev_flight is not None:
            obs.OBS.flight = prev_flight


def _run_worker_body(
    spec: ClusterSpec,
    worker_id: int,
    endpoint: Endpoint,
    trace_parent: TraceContext | None,
    sender: BatchSender,
    cells: list[CellShard],
    engine: str,
    schedule,
    tracer,
    service: str,
) -> dict[str, Any]:
    if spec.trace:
        tracer.resize(_span_capacity(spec, len(cells)))

    registry = obs.OBS.registry
    label = str(worker_id)
    registry.gauge(
        "waran_cluster_cells", "cells hosted, by worker"
    ).set(len(cells), worker=label)
    if cells and cells[0].gnb.rt is not None:
        # the rt budget is per *cell* and slot (policy-defined, never
        # divided by worker count): an oversubscribed shard sheds load
        # inside each cell's own budget instead of ballooning p99.  The
        # gauge reports the shard's aggregate fuel ceiling per slot.
        registry.gauge(
            "waran_rt_shard_budget_fuel",
            "aggregate per-slot plugin fuel ceiling across hosted cells, "
            "by worker",
        ).set(
            sum(cell.gnb.rt.slot_budget_fuel for cell in cells),
            worker=label,
        )
    #: test hook: REPRO_TEST_WORKER_DIE="<worker>:<slot>" hard-kills this
    #: worker process at that slot (exit code 0 - the nastiest case: the
    #: coordinator sees a clean exit with no result frame)
    die_at = None
    die_spec = os.environ.get("REPRO_TEST_WORKER_DIE")
    if die_spec:
        die_worker, _, die_slot = die_spec.partition(":")
        if int(die_worker) == worker_id:
            die_at = int(die_slot)
    slot_hist = registry.histogram(
        "waran_cluster_slot_us",
        "per-slot shard step time (all hosted cells), by worker (us)",
    ).labels(worker=label)
    budget = spec.budget_us or None
    miss_counter = registry.counter(
        "waran_cluster_deadline_miss_total",
        "slots that overran the latency budget, by worker",
    )

    t0 = time.perf_counter()
    range_start = 0
    with tracer.span(
        "worker.run", parent=trace_parent, worker=worker_id, cells=len(cells)
    ) as run_span:
        run_ctx = run_span.context if run_span is not obs.NULL_SPAN else None
        for slot in range(spec.slots):
            if die_at is not None and slot == die_at:
                os._exit(0)  # simulated hard crash for the fail-fast test
            with tracer.span("worker.slot", slot=slot) as slot_span:
                s0 = time.perf_counter()
                for cell in cells:
                    if cell.stepper is not None:
                        cell.stepper.step(slot)
                    cell.gnb.step()
                    cell.node.step()
                    if schedule is not None or spec.scenario is not None:
                        step_operator_loop(cell, slot, spec.release_after)
                slot_hist.observe((time.perf_counter() - s0) * 1e6)
                if (slot + 1) % spec.flush_every == 0:
                    # one frame per slot range: E2 entries, the
                    # progress heartbeat (its header names the range even
                    # when no entries queued), and the spans finished so
                    # far - no separate per-flush control message
                    blob = (
                        encode_span_blob(tracer.drain_finished())
                        if spec.trace
                        else b""
                    )
                    sender.flush(
                        slot_range=(range_start, slot),
                        worker=worker_id,
                        spans_blob=blob,
                    )
                    range_start = slot + 1
            if budget and slot_span is not obs.NULL_SPAN:
                elapsed = slot_span.elapsed_us
                if elapsed > budget:
                    guilty, guilty_us = slot_span.guilty_segment()
                    miss_counter.inc(worker=label)
                    obs.OBS.events.emit(
                        "trace.deadline_miss",
                        source=service,
                        slot=slot,
                        elapsed_us=round(elapsed, 1),
                        budget_us=budget,
                        guilty=guilty,
                        guilty_us=round(guilty_us, 1),
                    )
        with tracer.span("uplink.flush.final"):
            blob = (
                encode_span_blob(tracer.drain_finished())
                if spec.trace
                else b""
            )
            sender.flush(
                slot_range=(range_start, spec.slots - 1),
                worker=worker_id,
                spans_blob=blob,
            )
    run_seconds = time.perf_counter() - t0

    for cell in cells:
        cell.gnb.finish_meters()

    stats = sender.stats()
    for key, metric_name in (
        ("offered", "waran_cluster_uplink_offered_total"),
        ("dropped", "waran_cluster_uplink_dropped_total"),
        ("batches_sent", "waran_cluster_uplink_batches_total"),
        ("messages_sent", "waran_cluster_uplink_messages_total"),
        ("bytes_sent", "waran_cluster_uplink_bytes_total"),
    ):
        registry.counter(
            metric_name, f"batched E2 uplink {key.replace('_', ' ')}, by worker"
        ).inc(stats[key], worker=label)

    result = {
        "t": "result",
        "worker": worker_id,
        "engine": engine,
        "cells": [cell.name for cell in cells],
        "slots": spec.slots,
        "run_seconds": run_seconds,
        "delivered_bytes": {
            cell.name: cell.gnb.total_delivered_bytes for cell in cells
        },
        "fault_logs": {
            cell.name: render_cell_log(cell, spec, engine, schedule)
            for cell in cells
        },
        "indications_sent": sum(cell.node.channel.sent for cell in cells),
        "indications_dropped": sum(
            cell.node.channel.dropped for cell in cells
        ),
        "uplink": stats,
        "slot_us": slot_hist.snapshot(),
        "metrics": registry.to_json(),
    }
    if spec.trace:
        result["service"] = service
        # only the spans finished after the last drain - the slot ranges
        # streamed the rest home already
        result["spans"] = tracer.to_json()
        result["events"] = [
            e.to_json() for e in obs.OBS.events.events("trace.deadline_miss")
        ]
        if run_ctx is not None:
            result["trace"] = run_ctx.to_json()
    if spec.capture:
        from repro.replay.corpus import dumps_corpus
        from repro.replay.record import build_corpus

        recorder = obs.OBS.flight
        records = recorder.records()
        if records and records[0].seq != 1:
            raise RuntimeError(
                f"worker {worker_id} flight recorder overflowed while "
                "capturing; shorten the run"
            )
        result["flight"] = base64.b64encode(
            dumps_corpus(build_corpus(records, recorder.modules, {}))
        ).decode("ascii")
    return result


def _worker_entry(
    spec_doc: dict,
    worker_id: int,
    coord_port: int,
    trace_parent: dict | None = None,
) -> None:
    """Process entry point: connect back to the coordinator and run."""
    spec = ClusterSpec.from_json(spec_doc)
    parent = TraceContext.from_json(trace_parent)
    with TcpNetwork() as net:
        net.register_peer(COORD, coord_port)
        endpoint = net.endpoint(f"worker{worker_id}")
        endpoint.send(
            COORD, pack_control({"t": "hello", "worker": worker_id})
        )
        try:
            result = run_worker(spec, worker_id, endpoint, trace_parent=parent)
        except Exception as exc:  # surfaced by the coordinator, not lost
            endpoint.send(
                COORD,
                pack_control(
                    {
                        "t": "error",
                        "worker": worker_id,
                        "detail": f"{type(exc).__name__}: {exc}",
                    }
                ),
            )
            raise
        endpoint.send(COORD, pack_control(result))

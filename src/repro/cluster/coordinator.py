"""The cluster coordinator: owns the near-RT RIC, aggregates the shards.

:class:`ClusterCoordinator` spawns N :mod:`cell workers
<repro.cluster.worker>` (separate processes over :class:`TcpNetwork`, or
inline over :class:`InProcNetwork` for deterministic single-process
runs), demultiplexes their batched E2 uplink frames into per-node
messages for the one :class:`~repro.ric.host.NearRtRic`, and merges the
workers' metrics-registry snapshots with its own registry into a single
aggregate exposition.

Control actions the RIC's xApps emit toward shard nodes are *captured*
at the coordinator (counted per node, visible as
``waran_cluster_controls_captured_total``) rather than delivered: the
uplink is one-directional by design, which is exactly what keeps
per-cell results independent of worker interleaving.  See
``docs/SCALING.md`` for the architecture and determinism argument.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.cluster.spec import COORD, ClusterSpec, cell_name
from repro.cluster.worker import _worker_entry, run_worker, unpack_control
from repro.e2 import vendors
from repro.e2.batch import E2BatchError, iter_batch_frame
from repro.e2.comm import CommChannel
from repro.metrics import LogHistogram
from repro.netio.batching import (
    BatchError,
    batch_spans,
    batch_trace,
    is_batch,
    range_info,
)
from repro.netio.bus import InProcNetwork, TcpNetwork
from repro.obs.attribution import attribute_slots
from repro.obs.merge import DEFAULT_GAUGE_MODES, merge_snapshots
from repro.obs.traceexport import merge_span_collections, trace_digest
from repro.obs.tracing import TraceContext
from repro.ric.host import NearRtRic
from repro.ric.wire import MSG_SLICE_KPI


class ClusterError(RuntimeError):
    """A worker died, timed out, or sent garbage."""


class WorkerFailed(ClusterError):
    """A specific worker died or went silent mid-run.

    Carries the worker id and the last slot it reported completing (via
    its flush-cadence progress heartbeats; -1 = died before any), so an
    operator knows exactly where the run stopped instead of staring at a
    blocked recv.
    """

    def __init__(self, worker: int, last_slot: int, detail: str):
        self.worker = worker
        self.last_slot = last_slot
        super().__init__(
            f"worker {worker} failed after slot {last_slot}: {detail}"
        )


@dataclass
class ClusterReport:
    """Aggregate results of one scale-out run."""

    spec: ClusterSpec
    engine: str = ""
    wall_seconds: float = 0.0
    #: slowest worker's slot-loop time - the cluster's critical path
    max_worker_seconds: float = 0.0
    worker_seconds: list[float] = field(default_factory=list)
    slot_rate: float = 0.0  # slots/sec through the slowest worker
    cell_slot_rate: float = 0.0  # cell-slots/sec across the cluster
    p50_slot_us: float = 0.0
    p99_slot_us: float = 0.0
    delivered_bytes: int = 0
    bytes_by_cell: dict[str, int] = field(default_factory=dict)
    fault_log: str = ""
    indications_sent: int = 0
    indications_dropped: int = 0
    indications_seen: int = 0
    indications_by_node: dict[str, int] = field(default_factory=dict)
    controls_captured: dict[str, int] = field(default_factory=dict)
    uplink: dict[str, int] = field(default_factory=dict)
    xapp_calls: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    #: with ``spec.trace``: the stitched cross-process span documents
    #: (coordinator + every worker), the structural trace digest, the
    #: per-slot latency-attribution doc, and live deadline-miss events
    spans: list[dict] = field(default_factory=list, repr=False)
    trace_digest: str = ""
    attribution: dict[str, Any] = field(default_factory=dict)
    deadline_misses: list[dict] = field(default_factory=list)
    #: with ``spec.capture``: one base64 ``.wrc`` corpus per worker
    #: (worker-id order), merged by :func:`repro.replay.record_workload`
    flights: list[str] = field(default_factory=list, repr=False)

    @property
    def bytes_digest(self) -> str:
        """sha256 over per-cell scheduled bytes, in cell order."""
        text = "\n".join(
            f"{name}={self.bytes_by_cell[name]}"
            for name in sorted(self.bytes_by_cell)
        )
        return hashlib.sha256(text.encode()).hexdigest()

    @property
    def fault_digest(self) -> str:
        return hashlib.sha256(self.fault_log.encode()).hexdigest()

    def summary(self) -> str:
        spec = self.spec
        return (
            f"cluster workers={spec.workers} cells={spec.cells} "
            f"ues={spec.ues} slots={spec.slots} seed={spec.seed} "
            f"engine={self.engine} mode={spec.mode}: "
            f"{self.slot_rate:.1f} slots/s ({self.cell_slot_rate:.1f} "
            f"cell-slots/s), slot p50={self.p50_slot_us:.0f}us "
            f"p99={self.p99_slot_us:.0f}us; "
            f"bytes={self.delivered_bytes} [{self.bytes_digest[:12]}] "
            f"faults[{self.fault_digest[:12]}]; "
            f"indications sent={self.indications_sent} "
            f"seen={self.indications_seen} "
            f"dropped={self.indications_dropped}; "
            f"controls={sum(self.controls_captured.values())}"
            + (
                f"; p99 blame: {self.attribution.get('dominant', '?')} "
                f"({len(self.deadline_misses)} deadline misses)"
                if self.attribution
                else ""
            )
        )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "spec": self.spec.to_json(),
            "engine": self.engine,
            "wall_seconds": self.wall_seconds,
            "max_worker_seconds": self.max_worker_seconds,
            "worker_seconds": self.worker_seconds,
            "slot_rate": self.slot_rate,
            "cell_slot_rate": self.cell_slot_rate,
            "p50_slot_us": self.p50_slot_us,
            "p99_slot_us": self.p99_slot_us,
            "delivered_bytes": self.delivered_bytes,
            "bytes_by_cell": self.bytes_by_cell,
            "bytes_digest": self.bytes_digest,
            "fault_digest": self.fault_digest,
            "indications_sent": self.indications_sent,
            "indications_dropped": self.indications_dropped,
            "indications_seen": self.indications_seen,
            "indications_by_node": self.indications_by_node,
            "controls_captured": self.controls_captured,
            "uplink": self.uplink,
            "xapp_calls": self.xapp_calls,
            "metrics": self.metrics,
        }
        if self.attribution:
            doc["attribution"] = self.attribution
            doc["trace"] = {
                "digest": self.trace_digest,
                "span_count": len(self.spans),
                "deadline_misses": self.deadline_misses,
            }
        return doc


class ClusterCoordinator:
    """Runs one cluster: spawn, ingest, aggregate, merge."""

    def __init__(self, spec: ClusterSpec):
        spec.validate()
        self.spec = spec
        self.ric: NearRtRic | None = None
        self._ingress: dict[str, Any] = {}
        self._results: dict[int, dict] = {}
        self._frames_ingested = 0
        self._messages_ingested = 0
        self._ingest_failures = 0
        #: last slot each worker's frame headers reported complete
        self._progress: dict[int, int] = {}
        #: span docs streamed home inside uplink frames, per worker
        self._streamed: dict[int, list[dict]] = {}
        #: the reserved root trace context every worker parents under
        self._root_ctx: TraceContext | None = None

    # ----- RIC fabric -------------------------------------------------------

    def _build_ric(self) -> None:
        from repro.plugins import plugin_wasm

        net = InProcNetwork()
        ric_endpoint = net.endpoint("ric")
        for g in range(self.spec.cells):
            self._ingress[cell_name(g)] = net.endpoint(cell_name(g))
        self.ric = NearRtRic(
            CommChannel(ric_endpoint, vendors.vendor_b()), name="ric"
        )
        self.ric.load_xapp(
            "sla",
            plugin_wasm("xapp_sla"),
            (MSG_SLICE_KPI,),
            engine=self.spec.engine,
        )
        for g in range(self.spec.cells):
            self.ric.register_node(cell_name(g), subscription_id=g + 1)

    def _ingest_frame(self, data: bytes) -> None:
        """Demultiplex one batched uplink frame into the RIC's fabric.

        The ingest span parents under the *producing worker slot's* trace
        context carried in the frame header, so the coordinator's demux
        work appears inside that slot's cross-process span tree.  The
        header also updates the worker's progress watermark (its
        heartbeat), and any streamed span docs are collected.
        """
        self._frames_ingested += 1
        try:
            info = range_info(data)
        except BatchError:
            self._ingest_failures += 1
            return
        prev = self._progress.get(info.worker, -1)
        if info.slot_hi >= info.slot_lo and info.slot_hi > prev:
            self._progress[info.worker] = info.slot_hi
        if self.spec.trace and info.spans_len:
            try:
                self._streamed.setdefault(info.worker, []).extend(
                    batch_spans(data)
                )
            except BatchError:
                self._ingest_failures += 1
        messages = 0
        # span-blob bytes stay out of the attr: the blob compresses float
        # timings, so its length would wobble the structural trace digest
        with obs.OBS.tracer.span(
            "coord.ingest",
            parent=batch_trace(data),
            bytes=len(data) - info.spans_len,
        ) as span:
            try:
                for node, payload in iter_batch_frame(data):
                    ingress = self._ingress.get(node)
                    if ingress is None:
                        self._ingest_failures += 1
                        continue
                    ingress.send("ric", payload)
                    messages += 1
            except (BatchError, E2BatchError):
                self._ingest_failures += 1
            span.set(messages=messages)
        self._messages_ingested += messages

    # ----- run modes --------------------------------------------------------

    def run(self) -> ClusterReport:
        """Execute the whole scale-out run and return the aggregate report."""
        obs.enable()
        obs.reset()
        tracer = obs.OBS.tracer
        tracer.service = "coord"
        if self.spec.trace:
            # the root identity is *reserved*, not held open as a live
            # span: inline mode resets telemetry around each worker, and
            # a live root would not survive that.  The root span document
            # is synthesised at finalize time instead.
            self._root_ctx = tracer.reserve_context()
            tracer.resize(max(tracer.capacity, self.spec.slots * 16))
        t0 = time.perf_counter()
        if self.spec.mode == "inline":
            snapshots = self._run_inline()
        else:
            snapshots = self._run_proc()
        report = self._finalize(snapshots, time.perf_counter() - t0)
        return report

    def _run_inline(self) -> list[dict]:
        """Workers run sequentially in this process over in-proc queues.

        The registry is reset around each worker so every snapshot is
        per-worker, exactly as separate processes would produce; the
        coordinator's own registry (RIC + ingest metrics) is rebuilt
        afterwards and merged last.
        """
        net = InProcNetwork()
        coord_endpoint = net.endpoint(COORD)
        snapshots: list[dict] = []
        for worker_id in range(self.spec.workers):
            obs.reset()
            result = run_worker(
                self.spec,
                worker_id,
                net.endpoint(f"worker{worker_id}"),
                trace_parent=self._root_ctx,
            )
            self._results[worker_id] = result
            snapshots.append(result["metrics"])
        obs.reset()
        obs.OBS.tracer.service = "coord"  # run_worker relabelled the tracer
        self._build_ric()
        with obs.OBS.tracer.span("coord.drain"):
            for _source, data in coord_endpoint.drain():
                if is_batch(data):
                    self._ingest_frame(data)
            self._drain_ric()
        return snapshots

    def _run_proc(self) -> list[dict]:
        """Workers run as real processes dialling back over TCP loopback;
        frames stream in as they arrive."""
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        parent_doc = self._root_ctx.to_json() if self._root_ctx else None
        with TcpNetwork() as net:
            coord_endpoint = net.endpoint(COORD)
            self._build_ric()
            with obs.OBS.tracer.span(
                "coord.spawn", workers=self.spec.workers
            ):
                # covers spec serialisation + interpreter spawn - the
                # fixed cost every proc-mode run pays before slot 0
                procs = {
                    worker_id: ctx.Process(
                        target=_worker_entry,
                        args=(
                            self.spec.to_json(),
                            worker_id,
                            coord_endpoint.port,  # type: ignore[attr-defined]
                            parent_doc,
                        ),
                        daemon=True,
                    )
                    for worker_id in range(self.spec.workers)
                }
                for proc in procs.values():
                    proc.start()
            try:
                self._pump(coord_endpoint, procs)
            finally:
                for proc in procs.values():
                    proc.join(timeout=10)
                    if proc.is_alive():  # pragma: no cover - hung worker
                        proc.terminate()
        with obs.OBS.tracer.span("coord.drain"):
            self._drain_ric()
        return [self._results[k]["metrics"] for k in sorted(self._results)]

    def _pump(self, endpoint, procs) -> None:
        """Overlap uplink ingestion with worker compute and monitoring.

        A dedicated drain thread consumes the coordinator endpoint -
        demultiplexing uplink frames into the RIC fabric and stepping the
        RIC whenever the wire goes momentarily quiet - while this thread
        watches process exit codes, per-worker liveness, and the overall
        deadline.  Worker compute therefore never waits on coordinator
        ingestion (and vice versa); the two only meet at the bounded
        transport.  Shared state is GIL-atomic (dict/set item ops), and
        worker failures found by either thread surface here.
        """
        start = time.monotonic()
        deadline = start + self.spec.timeout_s
        liveness = self.spec.liveness_timeout_s or None
        pending = set(procs)
        for worker_id in procs:
            self._progress.setdefault(worker_id, -1)
        last_seen = {w: start for w in procs}
        dead_since: dict[int, float] = {}
        stop = threading.Event()
        failure: list[ClusterError] = []

        def drain_loop() -> None:
            dirty = False
            while True:
                item = endpoint.recv(timeout=0.05)
                if item is None:
                    if dirty:
                        # batch RIC dispatch per drain burst instead of
                        # per frame: ingest stays ahead of the wire
                        self.ric.step()
                        dirty = False
                    if stop.is_set():
                        return
                    continue
                source, data = item
                if source.startswith("worker"):
                    try:
                        last_seen[int(source[6:])] = time.monotonic()
                    except (ValueError, KeyError):
                        pass
                if is_batch(data):
                    self._ingest_frame(data)
                    dirty = True
                    continue
                with obs.OBS.tracer.span(
                    "coord.result.decode", bytes=len(data)
                ):
                    doc = unpack_control(data)
                if doc is None:
                    self._ingest_failures += 1
                elif doc.get("t") == "result":
                    self._results[int(doc["worker"])] = doc
                    pending.discard(int(doc["worker"]))
                elif doc.get("t") == "error":
                    worker = int(doc.get("worker", -1))
                    failure.append(
                        WorkerFailed(
                            worker,
                            self._progress.get(worker, -1),
                            str(doc.get("detail")),
                        )
                    )
                    return

        drain = threading.Thread(
            target=drain_loop, name="coord-drain", daemon=True
        )
        drain.start()
        try:
            while pending and not failure:
                time.sleep(0.05)
                now = time.monotonic()
                for worker_id in sorted(pending.copy()):
                    proc = procs[worker_id]
                    if proc.exitcode is not None:
                        if proc.exitcode != 0:
                            raise WorkerFailed(
                                worker_id,
                                self._progress[worker_id],
                                f"exited with code {proc.exitcode} "
                                "before reporting",
                            )
                        # clean exit without a result frame: allow a short
                        # grace for in-flight frames to drain, then fail
                        died = dead_since.setdefault(worker_id, now)
                        if now - died > 2.0 and worker_id in pending:
                            raise WorkerFailed(
                                worker_id,
                                self._progress[worker_id],
                                "exited cleanly without reporting a result",
                            )
                    elif liveness and now - last_seen[worker_id] > liveness:
                        raise WorkerFailed(
                            worker_id,
                            self._progress[worker_id],
                            f"no frame or heartbeat for {liveness:.0f}s "
                            "(liveness_timeout_s)",
                        )
                if now > deadline:
                    raise ClusterError(
                        f"workers {sorted(pending)} did not report within "
                        f"{self.spec.timeout_s:.0f}s"
                    )
        finally:
            stop.set()
            drain.join(timeout=10)
        if failure:
            raise failure[0]

    def _drain_ric(self) -> None:
        """Dispatch everything queued at the RIC until it goes quiet."""
        assert self.ric is not None
        while True:
            before = self.ric.indications_seen
            self.ric.step()
            if self.ric.indications_seen == before:
                return

    # ----- aggregation ------------------------------------------------------

    def _finalize(self, snapshots: list[dict], wall: float) -> ClusterReport:
        if len(self._results) != self.spec.workers:
            raise ClusterError(
                f"only {len(self._results)}/{self.spec.workers} workers "
                "reported"
            )
        spec = self.spec
        results = [self._results[k] for k in sorted(self._results)]
        registry = obs.OBS.registry
        registry.gauge("waran_cluster_workers", "worker count").set(
            spec.workers
        )
        registry.counter(
            "waran_cluster_ingested_batches_total",
            "batched uplink frames the coordinator demultiplexed",
        ).inc(self._frames_ingested)
        registry.counter(
            "waran_cluster_ingested_messages_total",
            "E2 messages recovered from batched frames",
        ).inc(self._messages_ingested)
        registry.counter(
            "waran_cluster_ingest_failures_total",
            "uplink frames or entries the coordinator could not place",
        ).inc(self._ingest_failures)
        controls: dict[str, int] = {}
        for name, ingress in sorted(self._ingress.items()):
            captured = len(ingress.drain())
            if captured:
                controls[name] = captured
                registry.counter(
                    "waran_cluster_controls_captured_total",
                    "xApp control actions captured at the coordinator "
                    "(one-directional uplink), by node",
                ).inc(captured, node=name)

        report = ClusterReport(spec)
        report.wall_seconds = wall
        report.engine = results[0]["engine"] if results else ""
        report.worker_seconds = [r["run_seconds"] for r in results]
        report.max_worker_seconds = max(report.worker_seconds, default=0.0)
        if report.max_worker_seconds > 0:
            report.slot_rate = spec.slots / report.max_worker_seconds
            report.cell_slot_rate = (
                spec.slots * spec.cells / report.max_worker_seconds
            )
        slot_us = LogHistogram()
        for r in results:
            slot_us.merge(LogHistogram.from_snapshot(r.get("slot_us", {})))
        if slot_us.count:
            report.p50_slot_us = slot_us.quantile(0.5)
            report.p99_slot_us = slot_us.quantile(0.99)
        for r in results:
            report.bytes_by_cell.update(
                {name: int(n) for name, n in r["delivered_bytes"].items()}
            )
            report.indications_sent += r["indications_sent"]
            report.indications_dropped += r["indications_dropped"]
            for key, value in r["uplink"].items():
                report.uplink[key] = report.uplink.get(key, 0) + value
        report.delivered_bytes = sum(report.bytes_by_cell.values())
        logs: dict[str, str] = {}
        for r in results:
            logs.update(r["fault_logs"])
        report.fault_log = (
            "\n".join(logs[name] for name in sorted(logs)) + "\n"
        )
        assert self.ric is not None
        report.indications_seen = self.ric.indications_seen
        report.indications_by_node = dict(self.ric.indications_by_node)
        report.controls_captured = controls
        report.xapp_calls = sum(
            runtime.calls for runtime in self.ric.xapps.values()
        )
        report.metrics = merge_snapshots(
            snapshots + [registry.to_json()],
            gauge_modes=DEFAULT_GAUGE_MODES,
        )
        if spec.capture:
            report.flights = [
                r["flight"] for r in results if r.get("flight") is not None
            ]
        if spec.trace and self._root_ctx is not None:
            self._stitch_trace(report, results, wall)
        return report

    def _stitch_trace(
        self, report: ClusterReport, results: list[dict], wall: float
    ) -> None:
        """Merge every process's span collection into one stitched trace."""
        ctx = self._root_ctx
        assert ctx is not None
        coord_spans = obs.OBS.tracer.to_json()
        # synthesise the reserved root: cluster.run spans the whole wall
        # time and every worker.run parents under it by reserved id
        coord_spans.append(
            {
                "trace_id": f"{ctx.trace_id:016x}",
                "span_id": ctx.span_id,
                "parent_id": None,
                "name": "cluster.run",
                "service": "coord",
                "thread_id": 0,
                "start_ns": min(
                    (int(d["start_ns"]) for d in coord_spans), default=0
                ),
                "elapsed_us": wall * 1e6,
                "status": "ok",
                "attrs": {
                    "workers": self.spec.workers,
                    "cells": self.spec.cells,
                    "mode": self.spec.mode,
                },
            }
        )
        collections = [("coord", coord_spans)]
        for r in results:
            worker = int(r["worker"])
            # spans streamed home in the uplink frames, then whatever was
            # still unfinished when the worker built its result
            spans = self._streamed.get(worker, []) + r.get("spans", [])
            collections.append(
                (r.get("service", f"worker{worker}"), spans)
            )
            report.deadline_misses.extend(r.get("events", []))
        report.spans = merge_span_collections(collections)
        report.trace_digest = trace_digest(report.spans)
        report.attribution = attribute_slots(
            report.spans,
            slot_name="worker.slot",
            budget_us=self.spec.budget_us or None,
        ).to_json()


def run_cluster(spec: ClusterSpec) -> ClusterReport:
    """Convenience wrapper: one spec in, one aggregate report out."""
    return ClusterCoordinator(spec).run()

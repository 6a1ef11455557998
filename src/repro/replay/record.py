"""``repro record``: capture a live workload as a replay corpus.

Runs one of the existing deterministic workloads - the chaos soak, any
rt stress scenario, the Fig-5b hot-swap experiment, or a cluster sweep -
with the flight recorder swapped into corpus-capture mode, then folds
every captured plugin call stream into a
:class:`repro.replay.corpus.ReplayCorpus`.

The ``cluster`` workload records a multi-worker run: every worker
captures its own call stream (``spec.capture`` swaps a capture-mode
recorder in per worker), folds it into a corpus of its own and ships
that home in its result frame as ``.wrc`` bytes - the one lossless
serialization of recorded calls; the streams merge cleanly because
plugin names are per-cell (``cell3/sched_rr``), so no two workers ever
share a stream key.

The workloads are seeded and fuel-clocked, so recording the same
``(workload, seed, slots)`` twice produces byte-identical corpora - the
recording itself is reproducible, not just the replay.
"""

from __future__ import annotations

import base64
from typing import Any

from repro.obs.flight import CallRecord, FlightRecorder
from repro.replay.corpus import (
    ReplayCall,
    ReplayCorpus,
    ReplayStream,
    loads_corpus,
)

#: workloads ``record_workload`` knows how to drive
RECORDABLE_WORKLOADS = (
    "chaos",
    "flash_crowd",
    "handover",
    "mixed_sla",
    "fig5b",
    "cluster",
)


def build_corpus(
    records: list[CallRecord],
    modules: dict[str, bytes],
    meta: dict[str, Any],
) -> ReplayCorpus:
    """Group capture-mode flight records into per-plugin call streams."""
    streams: dict[tuple[str, int], ReplayStream] = {}
    for rec in records:
        pre = rec.attrs.get("pre")
        if pre is None or not rec.module_sha:
            continue  # recorded outside capture mode; not replayable
        key = (rec.plugin, rec.generation)
        stream = streams.get(key)
        if stream is None:
            stream = streams[key] = ReplayStream(
                plugin=rec.plugin,
                generation=rec.generation,
                module_sha=rec.module_sha,
                fuel_limit=pre.get("fuel_limit"),
                output_record_bytes=pre.get("orb", 8),
                max_output_bytes=pre.get("max_out", 1 << 16),
            )
        stream.calls.append(
            ReplayCall(
                seq=rec.seq,
                entry=rec.entry,
                input_bytes=rec.input_bytes,
                outcome=rec.outcome,
                output_bytes=rec.output_bytes,
                fuel_used=rec.fuel_used,
                globals_pre=[list(pair) for pair in pre.get("globals", [])],
                alloc=bool(pre.get("alloc", False)),
                chaos=rec.attrs.get("chaos"),
                rt=rec.attrs.get("rt"),
            )
        )
    for stream in streams.values():
        # renumber per stream: the recorder's global counter encodes how
        # streams interleaved in the source process (worker count, shard
        # layout), and corpora must be invariant to deployment shape
        for position, call in enumerate(stream.calls, start=1):
            call.seq = position
    used = {stream.module_sha for stream in streams.values()}
    return _assemble(
        meta,
        {sha: modules[sha] for sha in sorted(used) if sha in modules},
        list(streams.values()),
    )


def _assemble(
    meta: dict[str, Any], modules: dict[str, bytes], streams: list[ReplayStream]
) -> ReplayCorpus:
    """A corpus in canonical stream order, with its call/stream counts."""
    corpus = ReplayCorpus(
        meta=dict(meta),
        modules=modules,
        streams=sorted(streams, key=lambda s: (s.plugin, s.generation)),
    )
    corpus.meta["recorded_calls"] = corpus.total_calls
    corpus.meta["streams"] = len(corpus.streams)
    return corpus


#: seconds per phase of a recorded ``fig5b`` run (it has three phases)
FIG5B_PHASE_S = 0.4


def record_workload(
    workload: str,
    seed: int = 0,
    slots: int | None = None,
    engine: str | None = None,
    rt: str | None = None,
    workers: int = 2,
    cells: int = 4,
    ues: int = 8,
    mode: str = "inline",
) -> ReplayCorpus:
    """Run ``workload`` under corpus capture and return the corpus.

    ``rt`` is an :class:`repro.rt.RtPolicy` string (``"on"`` for the
    defaults): for the chaos soak it composes rt dispatch with the
    faults, for the rt scenarios it overrides the scenario policy.
    ``workers``/``cells``/``ues``/``mode`` apply to ``cluster`` only.
    """
    if workload not in RECORDABLE_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} "
            f"(expected one of {RECORDABLE_WORKLOADS})"
        )
    if workload == "cluster":
        # every worker owns its capture recorder (spec.capture), so no
        # process-global swap here - the per-worker streams merge below
        from repro.cluster import ClusterCoordinator, ClusterSpec

        spec = ClusterSpec(
            workers=workers,
            cells=cells,
            ues=ues,
            slots=slots if slots is not None else 80,
            seed=seed,
            engine=engine,
            rt=rt,
            mode=mode,
            capture=True,
        )
        report = ClusterCoordinator(spec).run()
        modules: dict[str, bytes] = {}
        streams: list[ReplayStream] = []
        for blob in report.flights:
            shard = loads_corpus(base64.b64decode(blob))
            modules.update(shard.modules)
            streams.extend(shard.streams)
        meta = {
            "workload": "cluster",
            "seed": seed,
            "slots": spec.slots,
            "cells": spec.cells,
            "ues": spec.ues,
            "source_digest": report.bytes_digest,
        }
        # deployment shape (workers, proc vs inline) is deliberately NOT
        # recorded: like the engine, it cannot change what was captured,
        # so the container must be byte-identical however the sweep ran
        if engine is not None:
            meta["recorded_engine"] = engine
        return _assemble(meta, modules, streams)
    from repro import obs

    bundle = obs.OBS
    prev_flight = bundle.flight
    prev_enabled = bundle.enabled
    if workload == "fig5b":
        est_calls = int(3 * FIG5B_PHASE_S / 1e-3) + 1024
    else:
        est_calls = (slots or 10_000) * 24 + 4096
    recorder = FlightRecorder(capacity=est_calls, capture=True)
    bundle.flight = recorder
    bundle.enable()
    meta: dict[str, Any] = {"workload": workload, "seed": seed}
    try:
        if workload == "chaos":
            from repro.chaos import ChaosRunner

            slots = slots if slots is not None else 2000
            runner = ChaosRunner(seed=seed, slots=slots, engine=engine, rt=rt)
            report = runner.run()
            meta.update(slots=slots, source_digest=report.digest)
        elif workload == "fig5b":
            from repro.experiments import run_fig5b

            run_fig5b(phase_duration_s=FIG5B_PHASE_S)
            meta.update(phase_duration_s=FIG5B_PHASE_S)
        else:
            from repro.rt.dispatcher import RtPolicy
            from repro.rt.scenarios import (
                run_scenario,
                scenario_policy,
                scenario_slots,
            )

            policy = scenario_policy(workload)
            if rt is not None:
                policy = RtPolicy.from_string(rt)
            slots = slots if slots is not None else scenario_slots(workload)
            report = run_scenario(
                workload, seed=seed, slots=slots, policy=policy, engine=engine
            )
            meta.update(
                slots=slots,
                policy=policy.to_string(),
                source_digest=report.digest,
            )
    finally:
        bundle.flight = prev_flight
        if not prev_enabled:
            bundle.disable()

    records = recorder.records()
    if records and records[0].seq != 1:
        # the ring wrapped: the corpus would silently miss the oldest calls
        raise RuntimeError(
            f"flight recorder capacity {est_calls} overflowed while "
            f"recording {workload}; shorten the run"
        )
    if engine is not None:
        meta["recorded_engine"] = engine
    return build_corpus(records, recorder.modules, meta)

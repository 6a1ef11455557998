"""``repro record``: capture a live workload as a replay corpus.

Runs one of the existing deterministic workloads - the chaos soak, any
rt stress scenario, the Fig-5b hot-swap experiment, or a cluster sweep -
with the flight recorder swapped into corpus-capture mode, then folds
every captured plugin call stream into a
:class:`repro.replay.corpus.ReplayCorpus`.

The ``cluster`` workload records a multi-worker run: every worker
captures its own call stream (``spec.capture`` swaps a capture-mode
recorder in per worker) and ships it home in its result frame via
:func:`flight_to_wire`; the streams merge cleanly because plugin names
are per-cell (``cell3/sched_rr``), so no two workers ever share a
stream key.

The workloads are seeded and fuel-clocked, so recording the same
``(workload, seed, slots)`` twice produces byte-identical corpora - the
recording itself is reproducible, not just the replay.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import Any

from repro.fuzz.corpus import decode_value, encode_value
from repro.obs.flight import CallRecord, FlightRecorder
from repro.replay.corpus import ReplayCall, ReplayCorpus, ReplayStream

#: workloads ``record_workload`` knows how to drive
RECORDABLE_WORKLOADS = (
    "chaos",
    "flash_crowd",
    "handover",
    "mixed_sla",
    "fig5b",
    "cluster",
)


# ----- cross-process capture wire form --------------------------------------


def _record_to_doc(rec: CallRecord) -> dict[str, Any]:
    attrs = dict(rec.attrs)
    pre = attrs.get("pre")
    if pre is not None:
        pre = dict(pre)
        pre["globals"] = [
            [index, encode_value(value)]
            for index, value in pre.get("globals", [])
        ]
        attrs["pre"] = pre
    return {
        "seq": rec.seq,
        "plugin": rec.plugin,
        "entry": rec.entry,
        "generation": rec.generation,
        "input_hex": rec.input_bytes.hex(),
        "output_hex": (
            None if rec.output_bytes is None else rec.output_bytes.hex()
        ),
        "outcome": rec.outcome,
        "elapsed_us": rec.elapsed_us,
        "fuel_used": rec.fuel_used,
        "instructions": rec.instructions,
        "error": rec.error,
        "module_sha": rec.module_sha,
        "attrs": attrs,
    }


def _record_from_doc(doc: dict[str, Any]) -> CallRecord:
    attrs = dict(doc.get("attrs", {}))
    pre = attrs.get("pre")
    if pre is not None:
        pre = dict(pre)
        pre["globals"] = [
            [index, decode_value(value)]
            for index, value in pre.get("globals", [])
        ]
        attrs["pre"] = pre
    return CallRecord(
        seq=doc["seq"],
        plugin=doc["plugin"],
        entry=doc["entry"],
        generation=doc["generation"],
        input_bytes=bytes.fromhex(doc["input_hex"]),
        output_bytes=(
            None
            if doc.get("output_hex") is None
            else bytes.fromhex(doc["output_hex"])
        ),
        outcome=doc["outcome"],
        elapsed_us=doc.get("elapsed_us", 0.0),
        fuel_used=doc.get("fuel_used"),
        instructions=doc.get("instructions"),
        error=doc.get("error", ""),
        attrs=attrs,
        module_sha=doc.get("module_sha", ""),
    )


def flight_to_wire(recorder: FlightRecorder) -> dict[str, Any]:
    """Full-fidelity wire form of a capture-mode flight recorder.

    Unlike :meth:`CallRecord.to_json` (which truncates payloads for
    humans) this keeps exact bytes - it is what a cluster worker ships
    home so the coordinator side can rebuild the records losslessly with
    :func:`flight_from_wire`.  Float globals ride through the fuzz
    corpus value encoding, so NaN/inf survive JSON.
    """
    payload = json.dumps(
        {
            "records": [_record_to_doc(rec) for rec in recorder.records()],
            "modules": {
                sha: base64.b64encode(blob).decode("ascii")
                for sha, blob in sorted(recorder.modules.items())
            },
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return {
        "v": 1,
        "z": base64.b64encode(zlib.compress(payload, 6)).decode("ascii"),
    }


def flight_from_wire(
    doc: dict[str, Any],
) -> tuple[list[CallRecord], dict[str, bytes]]:
    """Rebuild ``(records, modules)`` from :func:`flight_to_wire` output."""
    if doc.get("v") != 1:
        raise ValueError(f"unknown flight wire version {doc.get('v')!r}")
    payload = json.loads(
        zlib.decompress(base64.b64decode(doc["z"])).decode("utf-8")
    )
    records = [_record_from_doc(d) for d in payload.get("records", [])]
    modules = {
        sha: base64.b64decode(blob)
        for sha, blob in payload.get("modules", {}).items()
    }
    return records, modules


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
    ordered = [streams[key] for key in sorted(streams)]
    for stream in ordered:
        # renumber per stream: the recorder's global counter encodes how
        # streams interleaved in the source process (worker count, shard
        # layout), and corpora must be invariant to deployment shape
        for position, call in enumerate(stream.calls, start=1):
            call.seq = position
    used = {stream.module_sha for stream in ordered}
    corpus = ReplayCorpus(
        meta=dict(meta),
        modules={sha: modules[sha] for sha in sorted(used) if sha in modules},
        streams=ordered,
    )
    corpus.meta["recorded_calls"] = corpus.total_calls
    corpus.meta["streams"] = len(corpus.streams)
    return corpus


def record_workload(
    workload: str,
    seed: int = 0,
    slots: int | None = None,
    engine: str | None = None,
    rt: str | None = None,
    phase_duration_s: float = 0.4,
    workers: int = 2,
    cells: int = 4,
    ues: int = 8,
    mode: str = "inline",
) -> ReplayCorpus:
    """Run ``workload`` under corpus capture and return the corpus.

    ``rt`` is an :class:`repro.rt.RtPolicy` string (``"on"`` for the
    defaults): for the chaos soak it composes rt dispatch with the
    faults, for the rt scenarios it overrides the scenario policy.
    ``phase_duration_s`` applies to ``fig5b`` only (three phases);
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
        records: list[CallRecord] = []
        modules: dict[str, bytes] = {}
        for wire in report.flights:
            recs, mods = flight_from_wire(wire)
            records.extend(recs)
            modules.update(mods)
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
        return build_corpus(records, modules, meta)
    from repro import obs

    bundle = obs.OBS
    prev_flight = bundle.flight
    prev_enabled = bundle.enabled
    if workload == "fig5b":
        est_calls = int(3 * phase_duration_s / 1e-3) + 1024
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

            run_fig5b(phase_duration_s=phase_duration_s)
            meta.update(phase_duration_s=phase_duration_s)
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

"""``repro reduce``: shrink a recorded corpus while it stays faithful.

Reduction happens on two axes, Wasm-R3 style:

1. **Calls** - a soak records tens of thousands of near-identical
   invocations.  Exact duplicates are dropped first, then calls are
   bucketed into ``(entry, input-shape, outcome, chaos-kind, rt-budget,
   alloc)`` equivalence classes and a handful of representatives is kept
   per class.  Every representative is then re-executed standalone: a
   call that reproduces its recording is kept verbatim; one that
   deterministically differs (an xApp answered by stubbed host functions,
   a fault whose fuel echo was recording-order dependent) is *rebased* to
   the standalone expectation and flagged ``live_match=False``; a call
   that cannot be staged at all is dropped.
2. **Modules** - the fuzzer's shrinking machinery
   (:func:`repro.fuzz.shrink.shrink`) minimises each module body under
   the predicate "every kept call still reproduces its expectation".
   Because expectations are fuel-exact, only genuinely dead code can go -
   the shrunk module is behaviourally identical on the corpus by
   construction.

The output corpus carries its own (re-verified) expectations, so
``repro replay-bench`` runs bit-identically under all three engines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.fuzz.shrink import shrink
from repro.replay.bench import ReplayError, make_stream_host, replay_call
from repro.replay.corpus import (
    ReplayCall,
    ReplayCorpus,
    ReplayStream,
    dumps_corpus,
)


@dataclass
class ReduceReport:
    """What reduction kept, rebased, dropped and shrank."""

    original_calls: int = 0
    kept_calls: int = 0
    rebased: int = 0
    dropped: int = 0
    original_bytes: int = 0
    reduced_bytes: int = 0
    #: per-module byte sizes, ``{sha12: [before, after]}``
    module_sizes: dict[str, list[int]] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Corpus size reduction factor (serialised bytes)."""
        return self.original_bytes / max(self.reduced_bytes, 1)

    def to_json(self) -> dict[str, Any]:
        return {
            "original_calls": self.original_calls,
            "kept_calls": self.kept_calls,
            "rebased": self.rebased,
            "dropped": self.dropped,
            "original_bytes": self.original_bytes,
            "reduced_bytes": self.reduced_bytes,
            "ratio": round(self.ratio, 2),
            "module_sizes": self.module_sizes,
        }

    def summary(self) -> str:
        return (
            f"reduce: {self.original_calls} -> {self.kept_calls} calls "
            f"({self.rebased} rebased, {self.dropped} dropped), "
            f"{self.original_bytes} -> {self.reduced_bytes} bytes "
            f"({self.ratio:.1f}x)"
        )


def _call_class(call: ReplayCall) -> tuple:
    """The trap/fuel equivalence class a call samples into."""
    chaos_kind = call.chaos.get("kind") if call.chaos else None
    budgeted = call.rt is not None and call.rt.get("fuel") is not None
    return (
        call.entry,
        len(call.input_bytes),
        call.outcome,
        chaos_kind,
        budgeted,
        call.alloc,
    )


def _exact_key(call: ReplayCall) -> tuple:
    return (
        call.entry,
        call.input_bytes,
        call.outcome,
        call.output_bytes,
        call.fuel_used,
        call.alloc,
        tuple(tuple(pair) for pair in call.globals_pre),
        json.dumps(call.chaos, sort_keys=True),
        json.dumps(call.rt, sort_keys=True),
    )


def _sample_stream(
    stream: ReplayStream, max_per_class: int
) -> list[ReplayCall]:
    """Exact-dedup then keep the first ``max_per_class`` of each class."""
    seen: set[tuple] = set()
    per_class: dict[tuple, int] = {}
    kept: list[ReplayCall] = []
    for call in stream.calls:
        exact = _exact_key(call)
        if exact in seen:
            continue
        seen.add(exact)
        cls = _call_class(call)
        if per_class.get(cls, 0) >= max_per_class:
            continue
        per_class[cls] = per_class.get(cls, 0) + 1
        # private copy: verification below may rebase expectations
        kept.append(ReplayCall.from_json(call.to_json()))
    return kept


def _verify_stream(
    corpus: ReplayCorpus,
    stream: ReplayStream,
    engine: str | None,
    report: ReduceReport,
) -> list[ReplayCall]:
    """Replay the stream's calls in order; keep, rebase or drop each one."""
    verified: list[ReplayCall] = []
    try:
        host = make_stream_host(corpus, stream, engine)
    except ReplayError:
        report.dropped += len(stream.calls)
        return []
    for call in stream.calls:
        try:
            result = replay_call(host, call)
        except ReplayError:
            report.dropped += 1
            continue
        if not call.matches(result):
            call.outcome = result.outcome
            call.output_bytes = result.output
            call.fuel_used = result.fuel_used
            call.live_match = False
            report.rebased += 1
        verified.append(call)
    return verified


def _replays_faithfully(
    wasm: bytes, streams: list[ReplayStream], engine: str | None
) -> bool:
    """True iff every stream reproduces all expectations on ``wasm``.

    Never raises: the shrinker counts predicate exceptions as *failing*
    (its findings are crashes), which for us would keep a broken module -
    so any staging error simply reads as "not faithful".
    """
    try:
        for stream in streams:
            candidate = ReplayCorpus(modules={stream.module_sha: wasm})
            host = make_stream_host(candidate, stream, engine)
            for call in stream.calls:
                if not call.matches(replay_call(host, call)):
                    return False
        return True
    except Exception:  # noqa: BLE001 - unstageable candidate
        return False


def reduce_corpus(
    corpus: ReplayCorpus,
    max_per_class: int = 3,
    shrink_modules: bool = True,
    max_checks: int = 120,
    engine: str | None = None,
) -> tuple[ReplayCorpus, ReduceReport]:
    """Reduce ``corpus``; returns the new corpus and what happened.

    The input corpus is not modified.  ``max_checks`` bounds the module
    shrinker's predicate evaluations per module (each evaluation replays
    every kept call of that module's streams).
    """
    report = ReduceReport(
        original_calls=corpus.total_calls,
        original_bytes=len(dumps_corpus(corpus)),
    )

    reduced = ReplayCorpus(meta=dict(corpus.meta), modules=dict(corpus.modules))
    for stream in corpus.streams:
        sampled = ReplayStream(
            plugin=stream.plugin,
            generation=stream.generation,
            module_sha=stream.module_sha,
            fuel_limit=stream.fuel_limit,
            output_record_bytes=stream.output_record_bytes,
            max_output_bytes=stream.max_output_bytes,
            calls=_sample_stream(stream, max_per_class),
        )
        sampled.calls = _verify_stream(reduced, sampled, engine, report)
        if sampled.calls:
            reduced.streams.append(sampled)

    if shrink_modules:
        by_module: dict[str, list[ReplayStream]] = {}
        for stream in reduced.streams:
            by_module.setdefault(stream.module_sha, []).append(stream)
        for sha, streams in sorted(by_module.items()):
            wasm = reduced.modules[sha]
            shrunk, _calls = shrink(
                wasm,
                [("corpus", [])],  # single entry: disables call-dropping
                lambda w, _c, _s=streams: _replays_faithfully(w, _s, engine),
                max_checks=max_checks,
            )
            report.module_sizes[sha[:12]] = [len(wasm), len(shrunk)]
            if len(shrunk) < len(wasm):
                new_sha = hashlib.sha256(shrunk).hexdigest()
                del reduced.modules[sha]
                reduced.modules[new_sha] = shrunk
                for stream in streams:
                    stream.module_sha = new_sha

    used = {stream.module_sha for stream in reduced.streams}
    reduced.modules = {
        sha: raw for sha, raw in reduced.modules.items() if sha in used
    }
    report.kept_calls = reduced.total_calls
    report.reduced_bytes = len(dumps_corpus(reduced))
    reduced.meta["recorded_calls"] = corpus.meta.get(
        "recorded_calls", report.original_calls
    )
    reduced.meta["streams"] = len(reduced.streams)
    reduced.meta["reduced"] = True
    reduced.meta["reduction"] = report.to_json()
    return reduced, report

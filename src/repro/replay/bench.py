"""``repro replay-bench``: execute a corpus standalone, prove it faithful.

The harness rebuilds one :class:`~repro.abi.host.PluginHost` per call
stream - no gNB, RIC or cluster anywhere - and re-executes every
recorded call under any of the three engines.  Faithfulness is checked
bit-exactly: outcome kind, output bytes and fuel count must equal the
corpus expectations (fuel is 1 per executed instruction, so the check is
engine-independent by construction).

Reconstructing a call that ran deep inside a live soak takes three
deterministic moves, mirrored from what the recording captured:

- **scratch**: a recorded call either reused the host's persistent
  input region (its fuel excludes ``alloc``) or allocated it (fuel
  includes ``alloc``).  The harness primes the region without a budget
  (:meth:`PluginHost.prime_scratch`) or resets it
  (:meth:`PluginHost.reset_scratch`) to match.
- **globals**: stateful plugins (rr's rotation pointer) read mutable
  globals left by earlier calls; the recorded pre-call values are
  written back first.
- **chaos/rt**: :meth:`PluginHost.reissue` fires a captured injection
  exactly once and re-applies a captured rt budget as the per-call fuel
  budget, reproducing fuel-cut preemption.

Every call, clean or faulted, reports through its
:class:`~repro.abi.host.PluginCallResult` (a fault injected *before* any
Wasm ran says ``fuel_used=None``), so a replay needs no telemetry: it
runs with the process's telemetry as it found it - off by default - and
touches no process-wide state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.abi.host import HostLimits, PluginCallResult, PluginError, PluginHost
from repro.abi.hostfuncs import make_env
from repro.replay.corpus import ReplayCall, ReplayCorpus, ReplayStream
from repro.wasm.decoder import decode_module
from repro.wasm.instance import HostFunc
from repro.wasm.threaded import resolve_engine
from repro.wasm.traps import Trap, WasmError
from repro.wasm.wtypes import ValType


class ReplayError(RuntimeError):
    """A call could not even be staged (bad module, alloc trap, ...)."""


def stub_hostfuncs(wasm_bytes: bytes) -> dict[str, HostFunc] | None:
    """Zero-returning stubs for env imports beyond the base gNB set.

    xApps import ``publish``/``poll_msg``/``get_param``; standalone there
    is no RIC to answer, so every extra import deterministically returns
    zero.  Streams whose behaviour depended on live answers are caught by
    reduction's verify step and rebased to the standalone expectation.
    """
    module = decode_module(wasm_bytes)
    base = make_env()
    extra: dict[str, HostFunc] = {}
    for imp in module.imports:
        if imp.module != "env" or imp.kind != "func" or imp.name in base:
            continue
        functype = module.types[imp.desc]
        zeros = tuple(
            0.0 if t in (ValType.F32, ValType.F64) else 0
            for t in functype.results
        )

        def fn(caller, *args, _zeros=zeros):
            if not _zeros:
                return None
            return _zeros[0] if len(_zeros) == 1 else _zeros

        extra[imp.name] = HostFunc(functype, fn, imp.name)
    return extra or None


def make_stream_host(
    corpus: ReplayCorpus, stream: ReplayStream, engine: str | None = None
) -> PluginHost:
    """A fresh host configured exactly like the one that recorded."""
    wasm = corpus.modules.get(stream.module_sha)
    if wasm is None:
        raise ReplayError(
            f"stream {stream.plugin} references missing module "
            f"{stream.module_sha[:12]}..."
        )
    try:
        host = PluginHost(
            wasm,
            name=f"{stream.plugin}@replay",
            limits=HostLimits(
                fuel=stream.fuel_limit,
                max_output_bytes=stream.max_output_bytes,
            ),
            sanitize=False,  # ran live already; reduced modules stay runnable
            extra_hostfuncs=stub_hostfuncs(wasm),
            output_record_bytes=stream.output_record_bytes,
            engine=engine,
        )
    except (PluginError, WasmError) as exc:
        raise ReplayError(f"cannot stage {stream.plugin}: {exc}") from exc
    # a replay measures (and verifies) the engine it names: an aot host
    # would otherwise spend a short stream heating up on threaded code
    host.promote()
    wanted = resolve_engine(engine)
    if host.tier != wanted:
        raise ReplayError(
            f"stream {stream.plugin} staged on {host.tier}, not {wanted}"
        )
    return host


def replay_call(host: PluginHost, call: ReplayCall) -> PluginCallResult:
    """Execute one recorded call on its stream's host, independently of
    every other; a faulted call returns its report like a clean one."""
    instance = host.instance
    assert instance is not None
    try:
        if call.alloc:
            host.reset_scratch()
        else:
            host.prime_scratch(len(call.input_bytes))
    except (PluginError, Trap) as exc:
        raise ReplayError(f"scratch staging failed: {exc}") from exc
    for index, value in call.globals_pre:
        if index >= len(instance.globals):
            raise ReplayError(
                f"pre-call global {index} missing from module"
            )
        instance.globals[index].value = value
    try:
        return host.reissue(call.input_bytes, call.entry, call.chaos, call.rt)
    except PluginError as exc:
        return exc.result


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


@dataclass
class StreamResult:
    """One stream's replay outcome: fidelity verdict + timing/fuel stats."""

    plugin: str
    generation: int
    module_sha: str
    calls: int = 0
    matched: int = 0
    rebased: int = 0  # calls whose expectation was rebased during reduce
    fuel_total: int = 0
    total_us: float = 0.0
    mean_us: float = 0.0
    p50_us: float = 0.0
    p99_us: float = 0.0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.matched == self.calls

    def to_json(self) -> dict[str, Any]:
        return {
            "plugin": self.plugin,
            "generation": self.generation,
            "module_sha": self.module_sha[:16],
            "calls": self.calls,
            "matched": self.matched,
            "rebased": self.rebased,
            "ok": self.ok,
            "fuel_total": self.fuel_total,
            "total_us": round(self.total_us, 1),
            "mean_us": round(self.mean_us, 2),
            "p50_us": round(self.p50_us, 2),
            "p99_us": round(self.p99_us, 2),
            "mismatches": self.mismatches[:8],
        }


@dataclass
class ReplayBenchReport:
    """Everything one ``repro replay-bench`` run produced."""

    engine: str
    fidelity_digest: str
    meta: dict[str, Any]
    streams: list[StreamResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every call reproduced its expectation bit-exactly."""
        return all(stream.ok for stream in self.streams)

    @property
    def total_calls(self) -> int:
        return sum(stream.calls for stream in self.streams)

    @property
    def total_matched(self) -> int:
        return sum(stream.matched for stream in self.streams)

    @property
    def total_us(self) -> float:
        return sum(stream.total_us for stream in self.streams)

    @property
    def mean_call_us(self) -> float:
        calls = self.total_calls
        return self.total_us / calls if calls else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "fidelity_digest": self.fidelity_digest,
            "fidelity_ok": self.ok,
            "meta": self.meta,
            "calls": self.total_calls,
            "matched": self.total_matched,
            "total_us": round(self.total_us, 1),
            "mean_call_us": round(self.mean_call_us, 2),
            "streams": [stream.to_json() for stream in self.streams],
        }

    def summary(self) -> str:
        status = "bit-identical" if self.ok else (
            f"{self.total_calls - self.total_matched} mismatches"
        )
        return (
            f"replay engine={self.engine} streams={len(self.streams)} "
            f"calls={self.total_calls} fidelity={status} "
            f"total={self.total_us / 1000.0:.2f}ms "
            f"mean={self.mean_call_us:.1f}us/call "
            f"digest={self.fidelity_digest[:16]}"
        )


def _describe_mismatch(
    call: ReplayCall, actual: PluginCallResult
) -> dict[str, Any]:
    output = actual.output
    return {
        "seq": call.seq,
        "entry": call.entry,
        "expected": {
            "outcome": call.outcome,
            "output_sha": (
                None if call.output_bytes is None else call.output_bytes.hex()[:24]
            ),
            "fuel": call.fuel_used,
        },
        "actual": {
            "outcome": actual.outcome,
            "output_sha": None if output is None else output.hex()[:24],
            "fuel": actual.fuel_used,
        },
    }


def replay_corpus(
    corpus: ReplayCorpus, engine: str | None = None
) -> ReplayBenchReport:
    """Replay every stream standalone under ``engine``; never raises on
    mismatches - they land in the per-stream results for the caller (CLI,
    perf gate, reduction verify) to judge."""
    report = ReplayBenchReport(
        engine=resolve_engine(engine),
        fidelity_digest=corpus.fidelity_digest(),
        meta=dict(corpus.meta),
    )
    for stream in corpus.streams:
        result = StreamResult(
            plugin=stream.plugin,
            generation=stream.generation,
            module_sha=stream.module_sha,
        )
        report.streams.append(result)
        try:
            host = make_stream_host(corpus, stream, engine)
        except ReplayError as exc:
            result.calls = len(stream.calls)
            result.mismatches.append({"stage_error": str(exc)})
            continue
        elapsed: list[float] = []
        for call in stream.calls:
            result.calls += 1
            if not call.live_match:
                result.rebased += 1
            try:
                actual = replay_call(host, call)
            except ReplayError as exc:
                result.mismatches.append(
                    {"seq": call.seq, "stage_error": str(exc)}
                )
                continue
            elapsed.append(actual.elapsed_us)
            result.fuel_total += actual.fuel_used or 0
            if call.matches(actual):
                result.matched += 1
            else:
                result.mismatches.append(_describe_mismatch(call, actual))
        if elapsed:
            elapsed_sorted = sorted(elapsed)
            result.total_us = sum(elapsed)
            result.mean_us = result.total_us / len(elapsed)
            result.p50_us = _quantile(elapsed_sorted, 0.50)
            result.p99_us = _quantile(elapsed_sorted, 0.99)
    return report

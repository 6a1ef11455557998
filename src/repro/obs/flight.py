"""The plugin-call flight recorder.

In the spirit of Wasm-R3 (record-reduce-replay, PAPERS.md): every call
through :class:`repro.abi.host.PluginHost` can be captured as a
:class:`CallRecord` - entry point, exact input bytes, output bytes, fuel
(one unit per retired instruction), and the outcome (``ok`` or the fault
kind).  The recorder keeps the last N calls in a ring buffer, cheap
enough to leave on in production: recording one is a tuple of references
(the call's own result, chaos injection and rt decision among them), and
the ``CallRecord`` - its ``attrs`` included - is built when it is read;
``PluginHost.replay(record)`` re-executes a captured call against a fresh
instance for deterministic debugging.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class CallRecord:
    """One captured host→plugin invocation (treat as read-only: it is not
    frozen only because a frozen dataclass pays ``object.__setattr__`` per
    field on every record built)."""

    seq: int
    plugin: str
    entry: str
    generation: int
    input_bytes: bytes
    output_bytes: bytes | None
    outcome: str  # 'ok' | 'trap' | 'fuel' | 'abi' | 'deadline'
    elapsed_us: float
    fuel_used: int | None
    error: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)
    #: sha256 of the module binary that served this call (corpus key);
    #: empty when the recording host predates corpus capture
    module_sha: str = ""

    def to_json(self, max_bytes: int = 256) -> dict[str, Any]:
        """JSON-friendly form; payloads hex-encoded and truncated."""

        def hexed(data: bytes | None) -> str | None:
            if data is None:
                return None
            clipped = data[:max_bytes]
            text = clipped.hex()
            if len(data) > max_bytes:
                text += f"...(+{len(data) - max_bytes}B)"
            return text

        return {
            "seq": self.seq,
            "plugin": self.plugin,
            "entry": self.entry,
            "generation": self.generation,
            "input_len": len(self.input_bytes),
            "input_hex": hexed(self.input_bytes),
            "output_len": len(self.output_bytes) if self.output_bytes is not None else None,
            "output_hex": hexed(self.output_bytes),
            "outcome": self.outcome,
            "elapsed_us": self.elapsed_us,
            "fuel_used": self.fuel_used,
            "error": self.error,
            **({"module_sha": self.module_sha} if self.module_sha else {}),
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class FlightRecorder:
    """Bounded ring buffer of the most recent plugin calls.

    With :attr:`capture` set (corpus-capture mode, ``repro record``) the
    recording hosts additionally attach the pre-call state a standalone
    replay needs (mutable globals, whether the call allocated scratch,
    host limits) and register every module binary they run into
    :attr:`modules`, keyed by sha256 - the raw material
    :mod:`repro.replay` serialises into a benchmark corpus.
    """

    def __init__(self, capacity: int = 256, capture: bool = False):
        self.capacity = capacity
        #: corpus-capture mode: hosts attach replay-grade pre-call state
        self.capture = capture
        #: module binaries seen while capturing, keyed by sha256 hex
        self.modules: dict[str, bytes] = {}
        #: ``(seq, plugin, entry, generation, input, result, error,
        #: module_sha, chaos, rt, budget, pre)`` per call; the
        #: :class:`CallRecord` is built on read
        self._calls: deque[tuple] = deque(maxlen=capacity)
        self._seq = itertools.count(1)

    def register_module(self, sha: str, wasm_bytes: bytes) -> None:
        """Remember a module binary so a corpus can embed it."""
        if sha not in self.modules:
            self.modules[sha] = bytes(wasm_bytes)

    def record(
        self,
        plugin: str,
        entry: str,
        generation: int,
        input_bytes: bytes,
        result,
        error: str = "",
        module_sha: str = "",
        chaos=None,
        rt: dict | None = None,
        budget: int | None = None,
        pre: dict | None = None,
    ) -> None:
        """Append one call; ``result`` is its
        :class:`~repro.abi.host.PluginCallResult`, kept by reference (a
        mutable ``input_bytes`` is copied).

        The record's ``attrs`` are built on read from the rest: the chaos
        injection that fired (``chaos``), the rt decision document
        (``rt``) with the effective per-call fuel budget (``budget``) and,
        in corpus-capture mode, the pre-call state (``pre``).
        """
        if type(input_bytes) is not bytes:
            input_bytes = bytes(input_bytes)
        self._calls.append((
            next(self._seq), plugin, entry, generation, input_bytes, result,
            error, module_sha, chaos, rt, budget, pre,
        ))

    @staticmethod
    def _built(call: tuple) -> CallRecord:
        (
            seq, plugin, entry, generation, input_bytes, result, error, sha,
            chaos, rt, budget, pre,
        ) = call
        attrs: dict[str, Any] = {}
        if chaos is not None:
            attrs["chaos"] = chaos.to_json()
        if rt is not None or budget is not None:
            attrs["rt"] = rt_doc = dict(rt) if rt is not None else {}
            if budget is not None:
                rt_doc["fuel"] = budget
        if pre is not None:
            attrs["pre"] = pre
        output = result.output
        return CallRecord(
            seq, plugin, entry, generation, input_bytes,
            bytes(output) if output is not None else None,
            result.outcome, result.elapsed_us, result.fuel_used,
            error, attrs, sha,
        )

    def __len__(self) -> int:
        return len(self._calls)

    def records(self) -> list[CallRecord]:
        """All retained records, oldest first."""
        return [self._built(call) for call in list(self._calls)]

    def find(
        self, plugin: str | None = None, outcome: str | None = None
    ) -> list[CallRecord]:
        return [
            rec
            for rec in self.records()
            if (plugin is None or rec.plugin == plugin)
            and (outcome is None or rec.outcome == outcome)
        ]

    def reset(self) -> None:
        self._calls.clear()
        self.modules.clear()

    def to_json(self, max_bytes: int = 256) -> list[dict[str, Any]]:
        return [rec.to_json(max_bytes=max_bytes) for rec in self.records()]

"""Plugin-call records, and what the telemetry readers make of them.

A telemetry-on :meth:`repro.abi.host.PluginHost.call` appends one tuple
(the field positions below) to the call log,
:attr:`repro.obs.Observability.calls`.  Two readers take it:
:class:`CallSeries` folds it into the registry's series, and the
:class:`FlightRecorder` (after Wasm-R3, PAPERS.md) keeps the last N as
replayable :class:`CallRecord` s, built when read, for
``PluginHost.replay(record)``.  A traced call's span does not ride the
log: the call writes it to the tracer's ring when it closes.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from repro.obs.registry import LogReader

(
    RESULT, ENTRY, GENERATION, MODULE_SHA, INPUT, ERROR, CHAOS, RT, BUDGET,
    PRE, PLUGIN, OUTCOME, ELAPSED_US, FUEL_USED, FRAMES, CALL_DEPTH,
    VALUE_STACK, MEMORY_PAGES,
) = range(18)
"""Field positions.  ``ERROR`` is the fault's message, ``CHAOS`` the
injection that fired, ``RT`` / ``BUDGET`` the rt document and effective
fuel budget, ``PRE`` the corpus-capture pre-call state, ``FRAMES`` ..
``VALUE_STACK`` the call's ``ExecStats``."""


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


class FlightRecorder(LogReader):
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
        #: the last ``capacity`` call-log records taken, and how many were
        #: taken in all (the newest one's ``seq``)
        self._calls: deque[tuple] = deque(maxlen=capacity)
        self._taken = 0

    def register_module(self, sha: str, wasm_bytes: bytes) -> None:
        """Remember a module binary so a corpus can embed it."""
        if sha not in self.modules:
            self.modules[sha] = bytes(wasm_bytes)

    def _take(self, records: list[tuple]) -> None:
        self._calls.extend(records)
        self._taken += len(records)

    @staticmethod
    def _built(seq: int, call: tuple) -> CallRecord:
        result = call[RESULT]
        attrs: dict[str, Any] = {}
        if call[CHAOS] is not None:
            attrs["chaos"] = call[CHAOS].to_json()
        rt, budget = call[RT], call[BUDGET]
        if rt is not None or budget is not None:
            attrs["rt"] = rt_doc = dict(rt) if rt is not None else {}
            if budget is not None:
                rt_doc["fuel"] = budget
        if call[PRE] is not None:
            attrs["pre"] = call[PRE]
        output = result.output
        return CallRecord(
            seq, call[PLUGIN], call[ENTRY], call[GENERATION], call[INPUT],
            bytes(output) if output is not None else None,
            result.outcome, result.elapsed_us, result.fuel_used,
            call[ERROR], attrs, call[MODULE_SHA],
        )

    def __len__(self) -> int:
        self._pull()
        return len(self._calls)

    def records(self) -> list[CallRecord]:
        """All retained records, oldest first."""
        self._pull()
        calls = list(self._calls)
        return [self._built(seq, call) for seq, call in enumerate(
            calls, self._taken - len(calls) + 1
        )]

    def reset(self) -> None:
        self._pull()
        self._calls.clear()
        self.modules.clear()

    def to_json(self, max_bytes: int = 256) -> list[dict[str, Any]]:
        return [rec.to_json(max_bytes=max_bytes) for rec in self.records()]


#: calls a plugin's series keep pending (every read applies them)
SERIES_BATCH = 256

#: what a call adds to its plugin's series, the record's last fields:
#: plugin, outcome, time, fuel, frames, call depth, value stack, memory pages
_ROW = itemgetter(slice(PLUGIN, None))
_WIDTH = MEMORY_PAGES + 1 - PLUGIN
_HISTOGRAMS = (
    # fuel is decremented exactly once per executed instruction, so this
    # is also the instructions-retired count
    ("waran_plugin_fuel_used", "fuel consumed per call"),
    ("waran_wasm_frames", "function frames entered per call"),
    ("waran_wasm_call_depth_peak", "peak call depth per call"),
    ("waran_wasm_value_stack_peak", "peak operand-stack height per call (static bound)"),
)


class CallSeries:
    """A registry's per-plugin call series: its batch for the call log.

    Taking calls lays each one's row flat on its plugin's list, in call
    order; a list is applied when :data:`SERIES_BATCH` calls are on it and
    on every registry read - integers grouped by value through the exact
    ``add_n``, times in call order - so a read sees what observing every
    call on arrival would have left.
    """

    def __init__(self, reg):
        self._reg = reg
        self._pending: defaultdict[str, list] = defaultdict(list)
        self._lock = threading.Lock()

    def take(self, records: list[tuple]) -> None:
        with self._lock:
            pending = self._pending
            for row in map(_ROW, records):
                values = pending[row[0]]
                values += row
                if len(values) >= SERIES_BATCH * _WIDTH:
                    self._apply(row[0], values)

    def fold(self) -> None:
        """Apply every plugin's pending calls (thread-safe)."""
        with self._lock:
            for plugin, values in self._pending.items():
                if values:
                    self._apply(plugin, values)

    def _apply(self, plugin: str, values: list) -> None:
        reg = self._reg
        reg.histogram(
            "waran_plugin_call_us", "end-to-end plugin call time (us)"
        ).labels(plugin=plugin).extend(values[2::_WIDTH])
        calls = reg.counter("waran_plugin_calls_total", "plugin invocations by outcome")
        for outcome, n in Counter(values[1::_WIDTH]).items():
            calls.labels(plugin=plugin, outcome=outcome).inc(n)
        for (name, help), first in zip(_HISTOGRAMS, range(3, 7)):
            series = reg.histogram(name, help).labels(plugin=plugin)
            for value, n in Counter(values[first::_WIDTH]).items():
                if value is not None:
                    series.add_n(value, n)
        reg.gauge(
            "waran_plugin_memory_pages", "linear memory size (64KiB pages)"
        ).labels(plugin=plugin).set(values[-1])
        values.clear()

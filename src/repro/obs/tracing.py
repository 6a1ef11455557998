"""Distributed tracing spans for the Wasm host stack.

A :class:`Span` is a named, monotonic-clock interval with attributes and a
parent link; spans opened while another span is active become its children,
so one slot produces a tree (``worker.slot`` → ``gnb.step`` →
``plugin.call``).  A span is opened with a context manager:
``with tracer.span("plugin.call", plugin="pf"): ...``.

Since the cluster PR, spans also carry **distributed trace context**:

- every span has a globally-unique 64-bit ``span_id`` (a per-process
  random prefix in the high bits, a counter in the low bits) and belongs
  to a ``trace_id`` inherited from its parent - a root span starts a
  fresh trace;
- :class:`TraceContext` is the 16-byte propagation token
  ``(trace_id, span_id)``; :meth:`Tracer.current` captures the active
  span's context, and ``tracer.span(name, parent=ctx)`` opens a span
  whose parent lives in *another process* - the cross-process span tree
  stitches back together by id when the collections are merged
  (:mod:`repro.obs.traceexport`);
- the active-span stack is **thread-local**, so spans opened from pump /
  pubsub / reader threads nest within their own thread instead of
  interleaving into wrong parentage;
- a finishing span reports its duration to its parent, so every span
  knows its direct children's time by name (``children_us``) - the
  latency-attribution layer (:mod:`repro.obs.attribution`) and the
  live ``deadline_miss`` path both read the guilty segment from there.
  A span whose phases are too cheap to be spans of their own sets
  ``children_us`` itself from clock reads (``plugin.call``:
  ``plugin.encode`` / ``plugin.invoke`` / ``plugin.decode``).

Cost model: when the tracer is disabled, :meth:`Tracer.span` returns a
shared null span - one method call and one branch, no allocation, no clock
read - so instrumented hot paths stay within noise of uninstrumented code.
An enabled ``with`` span costs a :class:`Span` object, its attrs dict and
two clock reads.  The one span on every plugin call costs less: the host
already reads the clock at the call's edges, so it opens a reused
:class:`SpanMark` (:meth:`Tracer.begin`: ids and a stack slot, so spans
opened inside the call still parent under it) and hands its own reads to
:meth:`Tracer.record`, which keeps the finished span as one tuple.  The
``Span`` object is built only when the span is read.  Finished spans land
in a bounded ring buffer (oldest evicted) and can be exported as a
JSON-friendly list or an indented text tree.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class TraceContext:
    """The propagation token: which trace, and which span to parent under.

    Serialises to exactly :data:`WIRE_LEN` bytes (two little-endian u64s)
    so transports can carry it in fixed-size headers, and to a compact
    JSON dict for control frames.
    """

    trace_id: int
    span_id: int

    WIRE_LEN = 16

    def pack(self) -> bytes:
        return self.trace_id.to_bytes(8, "little") + self.span_id.to_bytes(
            8, "little"
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TraceContext":
        if len(data) < cls.WIRE_LEN:
            raise ValueError("short trace context")
        return cls(
            int.from_bytes(data[:8], "little"),
            int.from_bytes(data[8:16], "little"),
        )

    def to_json(self) -> dict[str, str]:
        return {"trace_id": f"{self.trace_id:016x}", "span_id": f"{self.span_id:016x}"}

    @classmethod
    def from_json(cls, doc: dict[str, str] | None) -> "TraceContext | None":
        if not doc:
            return None
        try:
            return cls(int(doc["trace_id"], 16), int(doc["span_id"], 16))
        except (KeyError, TypeError, ValueError):
            return None


class _SpanStack(list):
    """One thread's active spans, innermost last; knows its thread."""

    __slots__ = ("thread_id",)

    def __init__(self) -> None:
        super().__init__()
        self.thread_id = threading.get_ident()


class Span:
    """One timed interval; records its parent (local or remote) at open time.

    A span is entered on the thread that created it (``with
    tracer.span(...)``): it looks its thread's stack up once, at creation.
    """

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id", "attrs",
        "start_ns", "end_ns", "status", "thread_id", "children_us", "_stack",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict[str, Any],
        parent: TraceContext | None = None,
    ):
        self.tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        stack = self._stack = tracer._stack()
        if parent is not None:
            # explicitly propagated (possibly from another process)
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        elif stack:
            self.trace_id = stack[-1].trace_id
            self.parent_id = stack[-1].span_id
        else:
            self.trace_id = tracer._next_id()  # root: fresh trace
            self.parent_id = None
        self.attrs = attrs
        self.start_ns = 0
        self.end_ns = 0
        self.status = "ok"
        self.thread_id = 0
        self.children_us: dict[str, float] | None = None

    @property
    def elapsed_us(self) -> float:
        return (self.end_ns - self.start_ns) / 1000.0

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def child_total_us(self) -> float:
        """Total time this span's direct children accounted for."""
        return sum(self.children_us.values()) if self.children_us else 0.0

    def guilty_segment(self) -> tuple[str, float]:
        """The direct child segment that cost the most, ``(name, us)``.

        When no child accounts for the time (a leaf span, or the span's
        own self-time dominates), the guilty segment is ``("self", ...)``.
        """
        self_us = self.elapsed_us - self.child_total_us()
        best, best_us = "self", self_us
        for name, us in (self.children_us or {}).items():
            if us > best_us:
                best, best_us = name, us
        return best, best_us

    def __enter__(self) -> "Span":
        stack = self._stack
        stack.append(self)
        self.thread_id = stack.thread_id
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack and stack[-1].span_id == self.parent_id:
            parent = stack[-1]
            if parent.children_us is None:
                parent.children_us = {}
            parent.children_us[self.name] = (
                parent.children_us.get(self.name, 0.0) + self.elapsed_us
            )
        self.tracer._finished.append(self)
        return False

    def to_json(self) -> dict[str, Any]:
        doc = {
            "trace_id": f"{self.trace_id:016x}",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "service": self.tracer.service,
            "thread_id": self.thread_id,
            "start_ns": self.start_ns,
            "elapsed_us": self.elapsed_us,
            "status": self.status,
            "attrs": dict(self.attrs),
        }
        if self.children_us:
            doc["children_us"] = {
                k: round(v, 3) for k, v in self.children_us.items()
            }
        return doc


class SpanMark:
    """The identity of a span its owner times with its own clock reads.

    :meth:`Tracer.begin` gives the mark fresh ids and puts it on the
    thread's active stack, so any span opened before :meth:`Tracer.record`
    parents under it exactly as under a live :class:`Span`; ``record``
    takes it off and keeps the finished span as a plain record.  An owner
    that is never re-entered keeps one mark and reuses it.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "children_us", "_stack")

    context = Span.context


class Tracer:
    """Owns the thread-local active-span stacks and the finished ring buffer.

    The ring holds :class:`Span` objects (``with tracer.span(...)``) and
    plain tuples (:meth:`record`); every read - :meth:`finished`,
    :meth:`to_json`, :meth:`drain_finished` - builds the ``Span`` of a
    tuple, so readers never see the difference.
    """

    def __init__(
        self, capacity: int = 4096, enabled: bool = False, service: str = "main"
    ):
        self.enabled = enabled
        #: which process/component this tracer reports for; the cluster
        #: sets it to ``coord`` / ``worker<N>`` before running
        self.service = service
        # span ids must be unique *across processes* so merged collections
        # stitch without collisions: 31 random high bits (xor'd with the
        # pid, so spawn'd children never share a prefix) over a counter
        self._id_hi = (
            int.from_bytes(os.urandom(4), "big") ^ os.getpid()
        ) & 0x7FFF_FFFF
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._finished: deque[Span | tuple] = deque(maxlen=capacity)

    # ----- identity ---------------------------------------------------------

    def _next_id(self) -> int:
        return (self._id_hi << 32) | (next(self._ids) & 0xFFFF_FFFF)

    def _stack(self) -> _SpanStack:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = _SpanStack()
        return stack

    def current(self) -> TraceContext | None:
        """The active span's propagation context (this thread), if any."""
        stack = getattr(self._tls, "stack", None)
        if not stack:
            return None
        return stack[-1].context

    def reserve_context(self) -> TraceContext:
        """Allocate a trace/span identity without opening a live span.

        The cluster coordinator reserves its root identity up front, hands
        it to every worker as their remote parent, and only synthesises
        the root span document at the end of the run - necessary because
        inline mode resets the telemetry between workers, which would
        destroy any span held open across the whole run.
        """
        return TraceContext(self._next_id(), self._next_id())

    # ----- span lifecycle ---------------------------------------------------

    def span(self, name: str, parent: TraceContext | None = None, **attrs: Any):
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs, parent=parent)

    def begin(self, mark: SpanMark) -> None:
        """Open ``mark`` on this thread: fresh ids, allocated as a
        :class:`Span` would allocate them, and a place on the stack."""
        stack = mark._stack = self._stack()
        mark.span_id = self._next_id()
        if stack:
            top = stack[-1]
            mark.trace_id = top.trace_id
            mark.parent_id = top.span_id
        else:
            mark.trace_id = self._next_id()
            mark.parent_id = None
        mark.children_us = None
        stack.append(mark)

    def record(
        self,
        mark: SpanMark,
        name: str,
        start_ns: int,
        end_ns: int,
        attrs: dict[str, Any],
        status: str = "ok",
        children_us: dict[str, float] | None = None,
    ) -> None:
        """Finish the span ``mark`` opened, from its owner's clock reads.

        What a ``with`` span does at exit, minus the clock read: off the
        stack, its duration onto the parent's ``children_us``, and into the
        ring - as a tuple, the :class:`Span` is built when it is read.
        """
        stack = mark._stack
        if stack and stack[-1] is mark:
            stack.pop()
        parent_id = mark.parent_id
        if stack and stack[-1].span_id == parent_id:
            parent = stack[-1]
            if parent.children_us is None:
                parent.children_us = {}
            parent.children_us[name] = (
                parent.children_us.get(name, 0.0) + (end_ns - start_ns) / 1000.0
            )
        self._finished.append((
            name, mark.trace_id, mark.span_id, parent_id, attrs,
            start_ns, end_ns, status, stack.thread_id, children_us,
        ))

    def _built(self, item: "Span | tuple") -> Span:
        if type(item) is not tuple:
            return item
        span = Span.__new__(Span)
        (
            span.name, span.trace_id, span.span_id, span.parent_id, span.attrs,
            span.start_ns, span.end_ns, span.status, span.thread_id,
            span.children_us,
        ) = item
        span.tracer = self
        span._stack = None
        return span

    def resize(self, capacity: int) -> None:
        """Grow/shrink the finished-span ring buffer, keeping newest spans."""
        if capacity != self._finished.maxlen:
            self._finished = deque(self._finished, maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._finished.maxlen or 0

    def reset(self) -> None:
        """Drop recorded spans and this thread's active stack.

        Other threads' stacks are left alone - a reset racing a pump
        thread must not corrupt that thread's nesting; its spans simply
        re-root in the fresh buffer.
        """
        stack = getattr(self._tls, "stack", None)
        if stack:
            stack.clear()
        self._finished.clear()

    def finished(self) -> list[Span]:
        """Finished spans, oldest first."""
        return [self._built(item) for item in list(self._finished)]

    def drain_finished(self) -> list[dict[str, Any]]:
        """Pop every finished span as an export doc, oldest first.

        Streaming support: a long-running producer (a cluster worker)
        drains between flushes and ships the docs over the wire, so the
        ring buffer never evicts and the final result message stays
        small.  Spans still open keep accumulating as usual.
        """
        out: list[dict[str, Any]] = []
        while True:
            try:
                item = self._finished.popleft()
            except IndexError:
                return out
            out.append(self._built(item).to_json())

    def to_json(self) -> list[dict[str, Any]]:
        return [span.to_json() for span in self.finished()]

    def render_tree(self) -> str:
        """Indented text rendering of the recorded span forest."""
        return render_span_tree(self.to_json())


def render_span_tree(span_docs: list[dict[str, Any]]) -> str:
    """Indented text rendering of a span-document forest.

    Works on exported/merged documents too, so cross-process trees render
    the same way local ones do.  A parent evicted from the ring buffer
    (or living in a collection that wasn't merged) orphans its subtree,
    which then renders at the root.
    """
    ids = {doc["span_id"] for doc in span_docs}
    children: dict[int | None, list[dict]] = {}
    for doc in span_docs:
        parent = doc["parent_id"] if doc["parent_id"] in ids else None
        children.setdefault(parent, []).append(doc)
    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        for doc in sorted(
            children.get(parent, []), key=lambda d: (d["start_ns"], d["span_id"])
        ):
            attrs = " ".join(f"{k}={v}" for k, v in doc.get("attrs", {}).items())
            service = doc.get("service", "")
            tag = f" <{service}>" if service and service != "main" else ""
            lines.append(
                f"{'  ' * depth}{doc['name']} {doc['elapsed_us']:.1f}us{tag}"
                + (f" [{attrs}]" if attrs else "")
            )
            walk(doc["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)

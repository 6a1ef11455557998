"""The harness's own span recorder (program-internal obs spans are not a
data source in this benchmark; see README.md).

A span is ``[name, start_ns, end_ns, parent, trace]``: ``parent`` indexes
the span that caused it (-1 for a root) and ``trace`` is the
``phase/cell/slot`` identifier every span of one cell-slot, flush range
or swap event shares.  Spans live in memory and are written out when the
run ends.  The process is single-threaded, so a plain stack tracks the
open span and children of one parent never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TRACE = range(5)

_now = time.perf_counter_ns


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, _now(), 0, parent, self.trace]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[END] = _now()
            self._stack.pop()

    def wrap(self, name: str, fn, capture=None):
        """Wrap a bound public callable so each call is a span.

        ``capture(args, kwargs, result, error)`` sees every call, so
        layer probes can later replay the inputs on shadow instances.
        """

        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if capture is not None:
                        capture(args, kwargs, None, exc)
                    raise
            if capture is not None:
                capture(args, kwargs, result, None)
            return result

        return traced

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "trace"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def durations_ns(spans: list[list]) -> list[int]:
    return [s[END] - s[START] for s in spans]


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    own = durations_ns(spans)
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def by_name(spans: list[list], values: list[int]) -> dict[str, list[int]]:
    """Group per-span ``values`` (durations or self times) by span name."""
    grouped: dict[str, list[int]] = {}
    for span, value in zip(spans, values):
        grouped.setdefault(span[NAME], []).append(value)
    return grouped

"""The process-wide metrics registry.

Three metric families, mirroring the Prometheus data model:

- :class:`Counter` - a monotonically increasing total;
- :class:`Gauge` - a value that can go up and down (set, not accumulated);
- :class:`Histogram` - a distribution kept as a
  :class:`repro.metrics.LogHistogram`: count/sum/min/max plus sparse
  log-linear buckets, so p50/p99 are within 3.2% of exact and snapshots
  from several processes merge exactly (:mod:`repro.obs.merge`).

Every metric supports label sets (``calls.inc(plugin="pf")``); each unique
label combination materialises one child series.  A hot site binds its
child once - ``handle = family.labels(plugin="pf")`` - and then calls
``handle.inc()`` / ``handle.set(v)`` / ``handle.observe(v)`` with no
name, help or label resolution per observation (``family.labels_by(...)``
when one label's value varies per observation); :class:`BoundMetrics`
keeps such handles valid across :meth:`MetricsRegistry.reset` and
registry swaps.  Exposition is available as a JSON-friendly dict
(:meth:`MetricsRegistry.to_json`) and as the Prometheus text format
(:meth:`MetricsRegistry.to_prometheus`, histograms rendered as summaries
with ``quantile`` labels).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.metrics import LogHistogram
from repro.obs.merge import snapshot_to_prometheus

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    pairs = [(k, str(v)) for k, v in labels.items()]
    if len(pairs) > 1:
        pairs.sort()
    return tuple(pairs)


class CounterChild:
    """One counter series: the handle :meth:`Counter.labels` returns."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class GaugeChild:
    """One gauge series: the handle :meth:`Gauge.labels` returns."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Metric:
    """Base class: a named family of labelled children."""

    kind = "untyped"
    _new_child: Callable[[], object]

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._children: dict[LabelKey, object] = {}

    def _child(self, labels: dict[str, str]):
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def labels(self, **labels: str):
        """The child series for one label set, created on first use.

        The returned handle stays attached to this family until the
        owning registry is :meth:`~MetricsRegistry.reset`; hold it through
        a :class:`BoundMetrics` cache rather than forever.
        """
        return self._child(labels)

    def labels_by(self, *names: str, **fixed: str) -> "ChildrenBy":
        """Handles for a label set part of which varies per observation.

        ``calls.labels_by("outcome", plugin="pf")["ok"].inc()``: index by
        the value of the one varying label (by a tuple of values when
        several ``names`` vary); each child binds on first use.
        """
        return ChildrenBy(self, names, fixed)

    def series(self) -> Iterator[tuple[LabelKey, object]]:
        return iter(sorted(self._children.items()))


class ChildrenBy(dict):
    """One family's children keyed by their varying label values
    (:meth:`Metric.labels_by`); a miss binds the child."""

    __slots__ = ("_family", "_names", "_fixed")

    def __init__(self, family: Metric, names: tuple[str, ...], fixed: dict):
        super().__init__()
        self._family = family
        self._names = names
        self._fixed = fixed

    def __missing__(self, key):
        values = key if len(self._names) > 1 else (key,)
        child = self[key] = self._family.labels(
            **self._fixed, **dict(zip(self._names, values))
        )
        return child


class Counter(Metric):
    """A monotonically increasing count (events, bytes, calls...)."""

    kind = "counter"
    _new_child = CounterChild

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._child(labels).inc(amount)

    def value(self, **labels: str) -> float:
        child = self._children.get(_label_key(labels))
        return child.value if child is not None else 0.0


class Gauge(Metric):
    """An instantaneous value (memory pages, active plugins...)."""

    kind = "gauge"
    _new_child = GaugeChild

    def set(self, value: float, **labels: str) -> None:
        self._child(labels).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._child(labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self._child(labels).dec(amount)

    def value(self, **labels: str) -> float:
        child = self._children.get(_label_key(labels))
        return child.value if child is not None else 0.0


class Histogram(Metric):
    """A bucketed distribution: count/sum/mean/min/max/stddev plus p50/p99."""

    kind = "histogram"
    _new_child = LogHistogram

    def observe(self, value: float, **labels: str) -> None:
        self._child(labels).observe(value)

    def snapshot(self, **labels: str) -> dict[str, float]:
        child = self._children.get(_label_key(labels))
        if child is None:
            return {"count": 0, "sum": 0.0}
        return child.snapshot()

    def count(self, **labels: str) -> int:
        child = self._children.get(_label_key(labels))
        return child.count if child is not None else 0


class MetricsRegistry:
    """Owns every metric family; the exposition endpoint reads from here.

    Metrics are created lazily and idempotently: ``registry.counter(name)``
    returns the existing family if one is already registered (raising only
    if it exists with a *different* type).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        #: bumped by :meth:`reset`: a handle bound under an older epoch
        #: points at a dropped family and must be rebound
        self.epoch = 0

    # ----- registration ----------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        self._metrics.clear()
        self.epoch += 1

    # ----- exposition ------------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-serialisable snapshot of every series."""
        out: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            series = []
            for key, child in metric.series():
                labels = dict(key)
                if isinstance(metric, Histogram):
                    series.append({"labels": labels, **child.snapshot()})
                else:
                    series.append({"labels": labels, "value": child.value})
            out[name] = {
                "type": metric.kind,
                "help": metric.help,
                "series": series,
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (histograms as summaries)."""
        return snapshot_to_prometheus(self.to_json())


class BoundMetrics:
    """An instrumented object's cache of bound handles.

    ``bind(registry, *args)`` resolves the families and label sets the
    object reports under and returns whatever holder suits it (one child,
    a small object of them).  :meth:`get` hands that holder back for as
    long as the registry it was bound against is the one passed in and
    has not been reset since, and rebinds otherwise - so ``obs.reset()``,
    an inline cluster's per-worker resets and replacing ``OBS.registry``
    all land the next observation in the live registry.  Binding is lazy:
    nothing is resolved until the first :meth:`get`.  ``args`` (label
    values, typically) are passed at :meth:`get` time so the cache holds
    no reference back to its owner.
    """

    __slots__ = ("_bind", "_registry", "_epoch", "_handles")

    def __init__(self, bind: Callable[..., Any]):
        self._bind = bind
        self._registry: MetricsRegistry | None = None
        self._epoch = -1
        self._handles: Any = None

    def get(self, registry: MetricsRegistry, *args) -> Any:
        if registry is not self._registry or registry.epoch != self._epoch:
            self._handles = self._bind(registry, *args)
            self._registry = registry
            self._epoch = registry.epoch
        return self._handles

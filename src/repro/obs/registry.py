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
registry swaps.  The hottest sites do not even observe: a slot appends
samples to a batch (:meth:`MetricsRegistry.batch`), a plugin call its
record to the call log, and every read folds both into the series first,
so a reader never sees the difference.  Exposition is available as a
JSON-friendly dict (:meth:`MetricsRegistry.to_json`) and as the
Prometheus text format (:meth:`MetricsRegistry.to_prometheus`, histograms
rendered as summaries with ``quantile`` labels).
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


def _nothing_pending() -> None:
    pass


class Metric:
    """Base class: a named family of labelled children."""

    kind = "untyped"
    _new_child: Callable[[], object]

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._children: dict[LabelKey, object] = {}
        #: folds the owning registry's pending batches; every read of a
        #: family's values calls it first
        self._fold: Callable[[], None] = _nothing_pending

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

    def labels_by(self, *names: str, **fixed: str) -> "HandlesBy":
        """Handles for a label set part of which varies per observation.

        ``calls.labels_by("outcome", plugin="pf")["ok"].inc()``: index by
        the value of the one varying label (by a tuple of values when
        several ``names`` vary); each child binds on first use.
        """

        def bind(key):
            values = key if len(names) > 1 else (key,)
            return self.labels(**fixed, **dict(zip(names, values)))

        return HandlesBy(bind)

    def series(self) -> Iterator[tuple[LabelKey, object]]:
        self._fold()
        return iter(sorted(self._children.items()))


class HandlesBy(dict):
    """Handles keyed by whatever varies per observation, each bound on
    first use: a miss on ``key`` stores ``bind(key)``.

    :meth:`Metric.labels_by` keys one family's children by label value; a
    site whose family *name* varies keys families the same way.
    """

    __slots__ = ("_bind",)

    def __init__(self, bind: Callable[[Any], Any]):
        super().__init__()
        self._bind = bind

    def __missing__(self, key):
        handle = self[key] = self._bind(key)
        return handle


class Counter(Metric):
    """A monotonically increasing count (events, bytes, calls...)."""

    kind = "counter"
    _new_child = CounterChild

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._child(labels).inc(amount)

    def value(self, **labels: str) -> float:
        self._fold()
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

    def value(self, **labels: str) -> float:
        self._fold()
        child = self._children.get(_label_key(labels))
        return child.value if child is not None else 0.0


class Histogram(Metric):
    """A bucketed distribution: count/sum/mean/min/max/stddev plus p50/p99."""

    kind = "histogram"
    _new_child = LogHistogram

    def observe(self, value: float, **labels: str) -> None:
        self._child(labels).observe(value)

    def snapshot(self, **labels: str) -> dict[str, float]:
        self._fold()
        child = self._children.get(_label_key(labels))
        if child is None:
            return {"count": 0, "sum": 0.0}
        return child.snapshot()

    def count(self, **labels: str) -> int:
        self._fold()
        child = self._children.get(_label_key(labels))
        return child.count if child is not None else 0


class LogReader:
    """A reader of a bundle's call log: while it is installed in
    :class:`repro.obs.Observability`, ``_log`` hands it what was logged."""

    _log: Callable[[], None] | None = None

    def _pull(self) -> None:
        if self._log is not None:
            self._log()


class MetricsRegistry(LogReader):
    """Owns every metric family; the exposition endpoint reads from here.

    Metrics are created lazily and idempotently: ``registry.counter(name)``
    returns the existing family if one is already registered (raising only
    if it exists with a *different* type).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        #: samples recorded but not yet folded into their series, one
        #: batch per key (:meth:`batch`); every read folds them first
        self._batches: dict[Any, Any] = {}
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
        metric._fold = self.fold
        self._metrics[name] = metric
        return metric

    def batch(self, key: Any, make: Callable[[], Any]) -> Any:
        """The one pending-sample batch of ``key`` in this registry,
        ``make()`` on first use.

        A batch records samples cheaply and applies them to its series in
        its ``fold()``, which must be exact (the series read as if every
        sample had been applied on arrival) and thread-safe.  The registry
        folds every batch before any read of a value - :meth:`to_json`,
        :meth:`get`, a family's ``value`` / ``count`` / ``snapshot`` /
        ``series`` - and never on a family lookup or a ``labels()`` bind.
        """
        pending = self._batches.get(key)
        if pending is None:
            pending = self._batches.setdefault(key, make())
        return pending

    def fold(self) -> None:
        """Apply the call log and every batch's pending samples to their
        series."""
        self._pull()
        for pending in list(self._batches.values()):
            pending.fold()

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str) -> Metric | None:
        self.fold()
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every family and every pending sample with it."""
        self._pull()
        self._metrics.clear()
        self._batches.clear()
        self.epoch += 1

    # ----- exposition ------------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-serialisable snapshot of every series."""
        self.fold()
        out: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            series = []
            for key, child in sorted(metric._children.items()):
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

"""Merging metrics-registry snapshots across processes.

Every cluster worker runs its own process-wide
:class:`~repro.obs.registry.MetricsRegistry`; at the end of a run it
serialises the registry with :meth:`~MetricsRegistry.to_json` and ships
the snapshot to the coordinator, which merges all of them (plus its own
registry) into one aggregate document with the same shape.  The ``repro
obs merge`` CLI subcommand exposes the identical merge path for offline
use (e.g. combining snapshots uploaded from several CI runs).

Merge semantics per metric kind:

- **counter** - series with the same label set sum;
- **gauge** - series with the same label set merge under an explicit
  *gauge mode*: ``sum`` (the default - a cluster-wide gauge is the total
  across shards), ``max`` (high-water marks like
  ``waran_plugin_memory_pages``, where summing per-process peaks would
  fabricate a memory footprint no process ever had), or ``last`` (the
  most recent snapshot wins, for configuration-style gauges).  Modes are
  given per metric name via ``gauge_modes``;
  :data:`DEFAULT_GAUGE_MODES` carries the known non-summable gauges and
  is what the cluster coordinator passes;
- **histogram** - series with the same label set merge *exactly*: bucket
  counts, ``count`` and the sums add, ``min``/``max`` combine, and
  ``mean``/``stddev``/``p50``/``p99`` are recomputed from the merged
  buckets by the same code a live registry uses - merging shard
  snapshots equals the snapshot of one registry fed the union of their
  observations.  A series snapshotted without ``buckets`` (written
  before they existed) still merges its count/sum/min/max, but the
  merged series then carries no quantiles, stddev or buckets.

The merged document stays loadable by everything that reads
``to_json()`` output, and :func:`snapshot_to_prometheus` renders it in
the Prometheus text exposition for scraping.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.metrics import LogHistogram

LabelKey = tuple[tuple[str, str], ...]


class MergeError(ValueError):
    """Snapshots disagree about a metric's type, or a mode is unknown."""


GAUGE_MODES = ("sum", "max", "last")

#: the known per-process gauges whose cluster-wide merge must not be a sum:
#: high-water marks take the max; purely coordinator-side configuration
#: gauges take the last writer.  Callers can extend/override per call.
DEFAULT_GAUGE_MODES: dict[str, str] = {
    "waran_plugin_memory_pages": "max",
    "waran_cluster_workers": "last",
}


def _key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _merge_scalar(
    into: dict[LabelKey, float], series: Iterable[dict], mode: str = "sum"
) -> None:
    for entry in series:
        key = _key(entry.get("labels", {}))
        value = float(entry.get("value", 0.0))
        if mode == "sum":
            into[key] = into.get(key, 0.0) + value
        elif mode == "max":
            into[key] = max(into.get(key, value), value)
        else:  # "last": later snapshots win
            into[key] = value


def _merge_histogram(
    into: dict[LabelKey, tuple[LogHistogram, bool]], series: Iterable[dict]
) -> None:
    for entry in series:
        key = _key(entry.get("labels", {}))
        hist, bucketed = into.get(key) or (LogHistogram(), True)
        hist.merge(LogHistogram.from_snapshot(entry))
        into[key] = (
            hist,
            bucketed and ("buckets" in entry or not entry.get("count")),
        )


def _finish_histogram(hist: LogHistogram, bucketed: bool) -> dict[str, float]:
    if bucketed:
        return hist.snapshot()
    out: dict[str, float] = {"count": hist.count, "sum": hist.total}
    if hist.count:
        out["mean"] = hist.mean
        if hist.minimum <= hist.maximum:
            out["min"] = hist.minimum
            out["max"] = hist.maximum
    return out


def merge_snapshots(
    snapshots: Iterable[dict[str, Any]],
    gauge_modes: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Merge ``MetricsRegistry.to_json()`` documents into one.

    Accepts both bare registry snapshots (``{metric: {...}}``) and the
    benchmark/report wrappers that nest one under a ``"metrics"`` key.
    ``gauge_modes`` maps gauge names to ``sum``/``max``/``last`` (unnamed
    gauges sum); counters always sum.
    """
    if gauge_modes:
        for name, mode in gauge_modes.items():
            if mode not in GAUGE_MODES:
                raise MergeError(
                    f"unknown gauge mode {mode!r} for {name!r} "
                    f"(expected one of {', '.join(GAUGE_MODES)})"
                )
    kinds: dict[str, str] = {}
    helps: dict[str, str] = {}
    scalars: dict[str, dict[LabelKey, float]] = {}
    histograms: dict[str, dict[LabelKey, tuple[LogHistogram, bool]]] = {}

    for doc in snapshots:
        metrics = doc.get("metrics", doc) if isinstance(doc, dict) else doc
        for name, family in sorted(metrics.items()):
            if not isinstance(family, dict) or "series" not in family:
                raise MergeError(f"{name!r} is not a metric family snapshot")
            kind = family.get("type", "untyped")
            if kinds.setdefault(name, kind) != kind:
                raise MergeError(
                    f"metric {name!r} is {kinds[name]} in one snapshot "
                    f"and {kind} in another"
                )
            if family.get("help") and not helps.get(name):
                helps[name] = family["help"]
            if kind == "histogram":
                _merge_histogram(
                    histograms.setdefault(name, {}), family["series"]
                )
            else:
                mode = "sum"
                if kind == "gauge" and gauge_modes:
                    mode = gauge_modes.get(name, "sum")
                _merge_scalar(
                    scalars.setdefault(name, {}), family["series"], mode
                )

    out: dict[str, Any] = {}
    for name in sorted(kinds):
        kind = kinds[name]
        if kind == "histogram":
            series = [
                {"labels": dict(key), **_finish_histogram(*merged)}
                for key, merged in sorted(histograms.get(name, {}).items())
            ]
        else:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(scalars.get(name, {}).items())
            ]
        out[name] = {"type": kind, "help": helps.get(name, ""), "series": series}
    return out


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def snapshot_to_prometheus(snapshot: dict[str, Any]) -> str:
    """Render a (merged) registry snapshot as Prometheus text exposition."""
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        kind = family.get("type", "untyped")
        lines.append(
            f"# TYPE {name} {'summary' if kind == 'histogram' else kind}"
        )
        for entry in family.get("series", ()):
            labels = dict(entry.get("labels", {}))
            if kind == "histogram":
                for q, qlabel in (("p50", "0.5"), ("p99", "0.99")):
                    if q in entry:
                        qlabels = dict(labels, quantile=qlabel)
                        lines.append(
                            f"{name}{_label_text(qlabels)} {entry[q]:g}"
                        )
                lines.append(
                    f"{name}_sum{_label_text(labels)} {entry.get('sum', 0):g}"
                )
                lines.append(
                    f"{name}_count{_label_text(labels)} "
                    f"{entry.get('count', 0):g}"
                )
            else:
                lines.append(
                    f"{name}{_label_text(labels)} {entry.get('value', 0):g}"
                )
    return "\n".join(lines) + ("\n" if lines else "")

"""Latency attribution: turn a merged span forest into a budget breakdown.

BENCH_cluster.json says the 4-worker p99 slot time is 3x the 1-worker
one; this module answers *where the time goes*.  Input is the merged
span-document list the cluster run produces (see
:mod:`repro.obs.traceexport`); output is an :class:`AttributionReport`:

- **segments**: every direct child of a slot span (``gnb.step``,
  ``e2.encode``, ``uplink.flush``, ...) aggregated by name - count,
  total, exact p50/p99 over per-slot totals, and the share of total slot
  time; the slot's unattributed self-time appears as the ``other``
  segment, so the local segments *sum to the slot time by construction*;
- **remote segments**: spans in *other processes* parented under a slot
  span through propagated context (the coordinator's ``coord.ingest`` of
  a worker's batch) - reported separately because they overlap rather
  than extend the slot interval;
- **p99 slot breakdown**: the exact segment decomposition of the slot at
  the 99th percentile - its rows sum to that slot's measured time, which
  is what makes the attribution table trustworthy;
- **critical path**: from that worst slot, the chain of most-expensive
  children (following cross-process edges), each with its share; the
  deepest span's costliest ``children_us`` phase is the final hop;
- **deadline misses**: slot spans that overran ``budget_us``, each named
  with its guilty segment - the offline analog of the live
  ``trace.deadline_miss`` events the worker emits, feeding the future
  admission-control work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def _quantile(sorted_values: list[float], q: float) -> float:
    """Exact quantile by rank over an already-sorted sample list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


@dataclass
class SegmentStats:
    """Aggregate timing of one named segment across all slots."""

    name: str
    scope: str  # "local" (inside the slot interval) or "remote"
    count: int = 0
    total_us: float = 0.0
    samples: list[float] = field(default_factory=list)

    def add(self, us: float) -> None:
        self.count += 1
        self.total_us += us
        self.samples.append(us)

    def finish(self, slot_total_us: float, budget_us: float | None) -> dict:
        samples = sorted(self.samples)
        row = {
            "name": self.name,
            "scope": self.scope,
            "count": self.count,
            "total_us": round(self.total_us, 1),
            "mean_us": round(self.total_us / self.count, 2) if self.count else 0.0,
            "p50_us": round(_quantile(samples, 0.50), 2),
            "p99_us": round(_quantile(samples, 0.99), 2),
            "pct_of_slot_time": round(
                100.0 * self.total_us / slot_total_us, 2
            ) if slot_total_us else 0.0,
        }
        if budget_us:
            row["p99_pct_of_budget"] = round(
                100.0 * row["p99_us"] / budget_us, 2
            )
        return row


class AttributionReport:
    """The per-slot latency breakdown; render with :meth:`render_table`."""

    def __init__(self, doc: dict[str, Any]):
        self.doc = doc

    def to_json(self) -> dict[str, Any]:
        return self.doc

    @property
    def dominant(self) -> str:
        return self.doc.get("dominant", "")

    @property
    def deadline_misses(self) -> list[dict]:
        return self.doc.get("deadline_misses", [])

    def render_table(self) -> str:
        doc = self.doc
        lines = [
            f"slots={doc['slot_count']} "
            f"p50={doc['slot_p50_us']:.0f}us p99={doc['slot_p99_us']:.0f}us"
            + (
                f" budget={doc['budget_us']:.0f}us"
                if doc.get("budget_us")
                else ""
            )
        ]
        header = (
            f"{'segment':24s} {'scope':6s} {'count':>7s} {'total ms':>9s} "
            f"{'p50 us':>8s} {'p99 us':>8s} {'% slot':>7s}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in doc["segments"]:
            lines.append(
                f"{row['name']:24s} {row['scope']:6s} {row['count']:7d} "
                f"{row['total_us'] / 1000.0:9.2f} {row['p50_us']:8.1f} "
                f"{row['p99_us']:8.1f} {row['pct_of_slot_time']:7.2f}"
            )
        p99 = doc.get("p99_slot")
        if p99:
            lines.append("")
            lines.append(
                f"p99 slot (slot={p99.get('slot', '?')}, "
                f"{p99['elapsed_us']:.1f}us measured, segments sum "
                f"{p99['segments_sum_us']:.1f}us):"
            )
            for name, us in sorted(
                p99["segments"].items(), key=lambda kv: -kv[1]
            ):
                lines.append(
                    f"  {name:24s} {us:10.1f}us "
                    f"{100.0 * us / p99['elapsed_us']:6.2f}%"
                )
        if doc.get("critical_path"):
            lines.append("")
            lines.append("critical path (worst slot):")
            for depth, hop in enumerate(doc["critical_path"]):
                lines.append(
                    f"  {'  ' * depth}{hop['name']} <{hop['service']}> "
                    f"{hop['us']:.1f}us"
                )
        lines.append("")
        lines.append(f"dominant segment: {doc['dominant']}")
        misses = doc.get("deadline_misses", [])
        if misses:
            lines.append(
                f"deadline misses: {len(misses)} "
                f"(worst: slot={misses[0].get('slot')} "
                f"{misses[0]['elapsed_us']:.1f}us, "
                f"guilty={misses[0]['guilty']})"
            )
        else:
            lines.append("deadline misses: 0")
        return "\n".join(lines)


def attribute_slots(
    span_docs: list[dict[str, Any]],
    slot_name: str = "worker.slot",
    budget_us: float | None = None,
) -> AttributionReport:
    """Build the latency-attribution report from merged span documents."""
    children: dict[int, list[dict]] = {}
    for doc in span_docs:
        parent = doc.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append(doc)

    slots = [doc for doc in span_docs if doc["name"] == slot_name]
    slot_samples = sorted(doc["elapsed_us"] for doc in slots)
    slot_total = sum(slot_samples)

    segments: dict[tuple[str, str], SegmentStats] = {}

    def seg(name: str, scope: str) -> SegmentStats:
        return segments.setdefault(
            (name, scope), SegmentStats(name=name, scope=scope)
        )

    deadline_misses: list[dict] = []
    worst: dict | None = None
    p99_cut = _quantile(slot_samples, 0.99)
    p99_slot_doc: dict | None = None

    for slot in slots:
        local_us: dict[str, float] = dict(slot.get("children_us") or {})
        if not local_us:  # fall back to re-deriving from child spans
            for child in children.get(slot["span_id"], ()):
                if child.get("service") == slot.get("service"):
                    local_us[child["name"]] = (
                        local_us.get(child["name"], 0.0) + child["elapsed_us"]
                    )
        for name, us in local_us.items():
            seg(name, "local").add(us)
        other = max(0.0, slot["elapsed_us"] - sum(local_us.values()))
        seg("other", "local").add(other)
        for child in children.get(slot["span_id"], ()):
            if child.get("service") != slot.get("service"):
                seg(child["name"], "remote").add(child["elapsed_us"])
        if budget_us and slot["elapsed_us"] > budget_us:
            guilty = max(local_us.items(), key=lambda kv: kv[1])[0] \
                if local_us and max(local_us.values()) > other else "self"
            deadline_misses.append(
                {
                    "slot": slot.get("attrs", {}).get("slot"),
                    "service": slot.get("service"),
                    "elapsed_us": round(slot["elapsed_us"], 1),
                    "budget_us": budget_us,
                    "guilty": guilty,
                }
            )
        if worst is None or slot["elapsed_us"] > worst["elapsed_us"]:
            worst = slot
        if slot["elapsed_us"] >= p99_cut and (
            p99_slot_doc is None
            or slot["elapsed_us"] < p99_slot_doc["elapsed_us"]
        ):
            p99_slot_doc = slot  # the *smallest* slot at/above the p99 cut

    deadline_misses.sort(key=lambda m: -m["elapsed_us"])

    segment_rows = [
        stats.finish(slot_total, budget_us)
        for (_name, _scope), stats in sorted(segments.items())
    ]
    segment_rows.sort(key=lambda r: -r["total_us"])
    dominant = next(
        (r["name"] for r in segment_rows if r["name"] != "other"),
        segment_rows[0]["name"] if segment_rows else "",
    )

    # exact decomposition of the p99 slot: rows sum to its measured time
    p99_block = None
    if p99_slot_doc is not None:
        local_us = dict(p99_slot_doc.get("children_us") or {})
        if not local_us:
            for child in children.get(p99_slot_doc["span_id"], ()):
                if child.get("service") == p99_slot_doc.get("service"):
                    local_us[child["name"]] = (
                        local_us.get(child["name"], 0.0) + child["elapsed_us"]
                    )
        local_us["other"] = max(
            0.0, p99_slot_doc["elapsed_us"] - sum(local_us.values())
        )
        p99_block = {
            "slot": p99_slot_doc.get("attrs", {}).get("slot"),
            "service": p99_slot_doc.get("service"),
            "elapsed_us": round(p99_slot_doc["elapsed_us"], 1),
            "segments": {k: round(v, 1) for k, v in local_us.items()},
            "segments_sum_us": round(sum(local_us.values()), 1),
        }

    critical_path: list[dict] = []
    hop = worst
    visited: set[int] = set()
    while hop is not None and hop["span_id"] not in visited:
        visited.add(hop["span_id"])
        critical_path.append(
            {
                "name": hop["name"],
                "service": hop.get("service", "main"),
                "us": round(hop["elapsed_us"], 1),
            }
        )
        kids = children.get(hop["span_id"], ())
        phases = hop.get("children_us")
        if not kids and phases:
            # the deepest span document: its costliest phase is the last
            # hop (a plugin.call's phases are timestamps, not spans)
            name, us = max(phases.items(), key=lambda kv: kv[1])
            critical_path.append(
                {"name": name, "service": hop.get("service", "main"),
                 "us": round(us, 1)}
            )
        hop = max(kids, key=lambda d: d["elapsed_us"]) if kids else None

    doc: dict[str, Any] = {
        "slot_span": slot_name,
        "slot_count": len(slots),
        "slot_p50_us": round(_quantile(slot_samples, 0.50), 1),
        "slot_p99_us": round(_quantile(slot_samples, 0.99), 1),
        "slot_total_us": round(slot_total, 1),
        "budget_us": budget_us,
        "segments": segment_rows,
        "dominant": dominant,
        "p99_slot": p99_block,
        "critical_path": critical_path,
        "deadline_misses": deadline_misses,
    }
    return AttributionReport(doc)

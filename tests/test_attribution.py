"""Latency attribution over synthetic span forests."""

import pytest

from repro.obs.attribution import AttributionReport, attribute_slots


def _slot(span_id, elapsed_us, children=None, slot=0, service="worker0"):
    doc = {
        "trace_id": "ab" * 8,
        "span_id": span_id,
        "parent_id": 1,
        "name": "worker.slot",
        "service": service,
        "thread_id": 0,
        "start_ns": span_id * 1000,
        "elapsed_us": elapsed_us,
        "status": "ok",
        "attrs": {"slot": slot},
    }
    if children:
        doc["children_us"] = dict(children)
    return doc


def _child(span_id, parent_id, name, elapsed_us, service="worker0"):
    return {
        "trace_id": "ab" * 8,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "service": service,
        "thread_id": 0,
        "start_ns": span_id * 1000,
        "elapsed_us": elapsed_us,
        "status": "ok",
        "attrs": {},
    }


class TestAttribution:
    def test_segments_sum_exactly_to_slot_time(self):
        docs = [
            _slot(10, 100.0, {"gnb.step": 70.0, "uplink.flush": 10.0}),
            _slot(11, 200.0, {"gnb.step": 150.0}, slot=1),
        ]
        report = attribute_slots(docs).to_json()
        total = sum(
            r["total_us"] for r in report["segments"] if r["scope"] == "local"
        )
        assert total == pytest.approx(300.0)  # includes the "other" rows
        assert report["slot_count"] == 2
        assert report["dominant"] == "gnb.step"

    def test_p99_slot_decomposition_matches_measured(self):
        docs = [
            _slot(10 + i, 100.0 + i, {"gnb.step": 80.0}, slot=i)
            for i in range(50)
        ]
        report = attribute_slots(docs).to_json()
        p99 = report["p99_slot"]
        assert p99["segments_sum_us"] == pytest.approx(
            p99["elapsed_us"], rel=1e-6
        )
        assert p99["segments"]["gnb.step"] == pytest.approx(80.0)
        # the p99 block names the slot at the p99 cut, not the worst one
        assert p99["elapsed_us"] == report["slot_p99_us"]

    def test_fallback_rederives_segments_from_child_spans(self):
        slot = _slot(10, 100.0)  # no children_us recorded
        docs = [slot, _child(20, 10, "gnb.step", 60.0)]
        report = attribute_slots(docs).to_json()
        rows = {r["name"]: r for r in report["segments"]}
        assert rows["gnb.step"]["total_us"] == pytest.approx(60.0)
        assert rows["other"]["total_us"] == pytest.approx(40.0)

    def test_remote_children_reported_separately(self):
        slot = _slot(10, 100.0, {"gnb.step": 90.0})
        docs = [slot, _child(30, 10, "coord.ingest", 25.0, service="coord")]
        report = attribute_slots(docs).to_json()
        rows = {(r["name"], r["scope"]) for r in report["segments"]}
        assert ("coord.ingest", "remote") in rows
        # remote time overlaps the slot; it must NOT deflate "other"
        other = next(
            r for r in report["segments"] if r["name"] == "other"
        )
        assert other["total_us"] == pytest.approx(10.0)

    def test_deadline_misses_sorted_and_guilty(self):
        docs = [
            _slot(10, 500.0, {"gnb.step": 450.0}, slot=3),
            _slot(11, 80.0, {"gnb.step": 60.0}, slot=4),
            _slot(12, 900.0, {"uplink.flush": 700.0}, slot=5),
        ]
        report = attribute_slots(docs, budget_us=100.0)
        misses = report.deadline_misses
        assert [m["slot"] for m in misses] == [5, 3]  # worst first
        assert misses[0]["guilty"] == "uplink.flush"
        assert misses[1]["guilty"] == "gnb.step"
        assert "deadline misses: 2" in report.render_table()

    def test_self_time_guilty_when_children_small(self):
        docs = [_slot(10, 500.0, {"gnb.step": 50.0}, slot=0)]
        report = attribute_slots(docs, budget_us=100.0).to_json()
        assert report["deadline_misses"][0]["guilty"] == "self"

    def test_critical_path_follows_biggest_child(self):
        slot = _slot(10, 100.0, {"gnb.step": 90.0})
        docs = [
            slot,
            _child(20, 10, "gnb.step", 90.0),
            _child(21, 20, "plugin.call", 80.0),
            _child(22, 20, "cheap", 5.0),
        ]
        report = attribute_slots(docs).to_json()
        assert [h["name"] for h in report["critical_path"]] == [
            "worker.slot",
            "gnb.step",
            "plugin.call",
        ]

    def test_critical_path_ends_in_the_deepest_spans_costliest_phase(self):
        call = _child(21, 20, "plugin.call", 80.0)
        call["children_us"] = {
            "plugin.encode": 3.0, "plugin.invoke": 75.0, "plugin.decode": 2.0,
        }
        docs = [
            _slot(10, 100.0, {"gnb.step": 90.0}),
            _child(20, 10, "gnb.step", 90.0),
            call,
        ]
        path = attribute_slots(docs).to_json()["critical_path"]
        assert [h["name"] for h in path] == [
            "worker.slot", "gnb.step", "plugin.call", "plugin.invoke",
        ]
        assert path[-1] == {"name": "plugin.invoke", "service": "worker0", "us": 75.0}

    def test_empty_forest_degrades_gracefully(self):
        report = attribute_slots([]).to_json()
        assert report["slot_count"] == 0
        assert report["segments"] == []
        assert report["p99_slot"] is None
        AttributionReport(report)  # renderable doc shape

    def test_render_table_mentions_dominant_and_budget(self):
        docs = [_slot(10, 100.0, {"gnb.step": 70.0})]
        text = attribute_slots(docs, budget_us=1000.0).render_table()
        assert "dominant segment: gnb.step" in text
        assert "budget=1000us" in text

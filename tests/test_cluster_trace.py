"""End-to-end distributed tracing of cluster runs (inline + proc + CLI)."""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.cli import main
from repro.cluster import ClusterSpec, run_cluster
from repro.obs.traceexport import chrome_trace, trace_digest, validate_chrome_trace
from repro.plugins import plugin_wasm

#: small enough for CI, big enough for several KPM/flush periods
TRACED = ClusterSpec(
    workers=2, cells=4, ues=8, slots=40, mode="inline", trace=True
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    obs.reset()
    obs.disable()


class TestInlineTracedRun:
    def test_stitched_cross_process_tree(self):
        report = run_cluster(TRACED)
        spans = report.spans
        assert spans, "traced run must ship spans"
        services = {d["service"] for d in spans}
        assert services == {"coord", "worker0", "worker1"}
        by_id = {d["span_id"]: d for d in spans}
        root = next(d for d in spans if d["name"] == "cluster.run")
        runs = [d for d in spans if d["name"] == "worker.run"]
        assert len(runs) == 2
        for run in runs:
            assert run["parent_id"] == root["span_id"]
            assert run["trace_id"] == root["trace_id"]
        # every worker.slot nests under its worker.run, same trace
        slots = [d for d in spans if d["name"] == "worker.slot"]
        assert len(slots) == TRACED.workers * TRACED.slots
        for slot in slots:
            assert by_id[slot["parent_id"]]["name"] == "worker.run"
            assert slot["trace_id"] == root["trace_id"]
        # coordinator ingest work parents under the producing worker
        # span: the active slot for cadence flushes, uplink.flush.final
        # for the end-of-run range frame
        ingests = [d for d in spans if d["name"] == "coord.ingest"]
        assert ingests
        producer_ids = {d["span_id"] for d in slots} | {
            d["span_id"] for d in spans if d["name"] == "uplink.flush.final"
        }
        assert all(d["parent_id"] in producer_ids for d in ingests)
        assert all(d["service"] == "coord" for d in ingests)
        # at least one cadence flush still attributes into a worker.slot
        assert any(
            d["parent_id"] in {s["span_id"] for s in slots} for d in ingests
        )

    def test_attribution_sums_within_10pct_of_p99(self):
        report = run_cluster(TRACED)
        att = report.attribution
        assert att["slot_count"] == TRACED.workers * TRACED.slots
        p99 = att["p99_slot"]
        assert p99 is not None
        assert p99["segments_sum_us"] == pytest.approx(
            p99["elapsed_us"], rel=0.10
        )
        # the dominant segment is named and is a real segment row
        names = {r["name"] for r in att["segments"]}
        assert att["dominant"] in names
        # local segments sum to total slot time by construction
        local_total = sum(
            r["total_us"] for r in att["segments"] if r["scope"] == "local"
        )
        assert local_total == pytest.approx(att["slot_total_us"], rel=0.01)
        # and the critical path starts at the worst slot
        assert att["critical_path"][0]["name"] == "worker.slot"

    def test_deadline_budget_emits_misses_with_guilty_segment(self):
        spec = replace(TRACED, budget_us=1.0)  # everything misses
        report = run_cluster(spec)
        assert report.deadline_misses
        miss = report.deadline_misses[0]
        assert miss["kind"] == "trace.deadline_miss"
        assert miss["guilty"]
        assert miss["elapsed_us"] > 1.0
        merged = report.metrics
        fam = merged["waran_cluster_deadline_miss_total"]
        assert sum(s["value"] for s in fam["series"]) == len(
            report.deadline_misses
        )
        assert report.attribution["deadline_misses"]

    def test_digest_stable_across_runs(self):
        d1 = run_cluster(TRACED).trace_digest
        d2 = run_cluster(TRACED).trace_digest
        assert d1 and d1 == d2

    def test_digest_ignores_the_compile_memo(self):
        """A run that compiles its plugins (a ``wacc.compile`` span each)
        and one that finds them compiled trace the same workload."""
        plugin_wasm.cache_clear()
        compiled = run_cluster(TRACED)
        reused = run_cluster(TRACED)
        names = [[d["name"] for d in r.spans].count("wacc.compile") for r in (compiled, reused)]
        assert names[0] > 0 == names[1]  # the export keeps the spans
        assert compiled.trace_digest == reused.trace_digest

    def test_digest_sees_a_missing_plugin_call(self):
        spans = run_cluster(TRACED).spans
        calls = [i for i, d in enumerate(spans) if d["name"] == "plugin.call"]
        assert calls
        dropped = spans[: calls[-1]] + spans[calls[-1] + 1 :]
        assert trace_digest(dropped) != trace_digest(spans)

    def test_chrome_export_validates(self):
        report = run_cluster(TRACED)
        doc = chrome_trace(report.spans)
        assert validate_chrome_trace(doc) == len(report.spans)
        meta = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert meta == {"coord", "worker0", "worker1"}

    def test_untraced_run_report_unchanged(self):
        plain = replace(TRACED, trace=False)
        report = run_cluster(plain)
        assert report.spans == []
        assert report.attribution == {}
        doc = report.to_json()
        assert "attribution" not in doc
        assert "trace" not in doc

    def test_trace_flag_does_not_change_results(self):
        traced = run_cluster(TRACED)
        plain = run_cluster(replace(TRACED, trace=False))
        assert traced.bytes_digest == plain.bytes_digest
        assert traced.fault_digest == plain.fault_digest
        assert traced.indications_seen == plain.indications_seen

    def test_report_json_carries_attribution_block(self):
        doc = run_cluster(TRACED).to_json()
        assert doc["attribution"]["dominant"]
        assert doc["trace"]["digest"]
        assert doc["trace"]["span_count"] > 0
        json.dumps(doc)  # the whole report stays JSON-serialisable


class TestProcTracedRun:
    def test_proc_mode_ships_spans_home(self):
        spec = replace(TRACED, mode="proc", slots=20, timeout_s=120.0)
        report = run_cluster(spec)
        services = {d["service"] for d in report.spans}
        assert services == {"coord", "worker0", "worker1"}
        root = next(d for d in report.spans if d["name"] == "cluster.run")
        runs = [d for d in report.spans if d["name"] == "worker.run"]
        assert {d["parent_id"] for d in runs} == {root["span_id"]}
        assert report.attribution["slot_count"] == spec.workers * spec.slots


class TestTraceCli:
    def test_trace_command_prints_attribution(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        att = tmp_path / "att.json"
        code = main(
            [
                "trace",
                "--workers", "2",
                "--cells", "4",
                "--ues", "8",
                "--slots", "20",
                "--mode", "inline",
                "--out", str(out),
                "--json", str(att),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "dominant segment:" in text
        assert "p99 slot" in text
        exported = json.loads(out.read_text())
        assert validate_chrome_trace(exported) > 0
        report = json.loads(att.read_text())
        assert report["attribution"]["dominant"]
        assert report["trace_digest"]

    def test_digest_only_mode(self, capsys):
        argv = [
            "trace",
            "--workers", "1",
            "--cells", "2",
            "--ues", "4",
            "--slots", "10",
            "--mode", "inline",
            "--digest-only",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out.strip()
        assert main(argv) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first) == 64  # bare sha256, scriptable

"""Tests for cross-process metrics snapshot merging (and its CLI)."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, MergeError, merge_snapshots
from repro.obs.merge import snapshot_to_prometheus


def snap(build) -> dict:
    registry = MetricsRegistry()
    build(registry)
    return registry.to_json()


class TestMergeScalars:
    def test_counters_sum_per_label_set(self):
        s0 = snap(lambda r: r.counter("c", "h").inc(3, worker="0"))
        s1 = snap(lambda r: (r.counter("c").inc(4, worker="0"),
                             r.counter("c").inc(5, worker="1")))
        merged = merge_snapshots([s0, s1])
        series = {tuple(e["labels"].items()): e["value"]
                  for e in merged["c"]["series"]}
        assert series[(("worker", "0"),)] == 7
        assert series[(("worker", "1"),)] == 5
        assert merged["c"]["type"] == "counter"
        assert merged["c"]["help"] == "h"  # first non-empty help wins

    def test_gauges_sum(self):
        s0 = snap(lambda r: r.gauge("g").set(2))
        s1 = snap(lambda r: r.gauge("g").set(3))
        merged = merge_snapshots([s0, s1])
        assert merged["g"]["series"][0]["value"] == 5

    def test_disjoint_metrics_union(self):
        s0 = snap(lambda r: r.counter("only_a").inc())
        s1 = snap(lambda r: r.counter("only_b").inc())
        merged = merge_snapshots([s0, s1])
        assert set(merged) == {"only_a", "only_b"}


class TestMergeHistograms:
    def test_count_sum_min_max_exact(self):
        s0 = snap(lambda r: [r.histogram("h").observe(v) for v in (1.0, 3.0)])
        s1 = snap(lambda r: [r.histogram("h").observe(v) for v in (5.0, 11.0)])
        merged = merge_snapshots([s0, s1])
        entry = merged["h"]["series"][0]
        assert entry["count"] == 4
        assert entry["sum"] == 20.0
        assert entry["mean"] == 5.0
        assert entry["min"] == 1.0
        assert entry["max"] == 11.0

    def test_quantiles_exact(self):
        s0 = snap(lambda r: [r.histogram("h").observe(10.0) for _ in range(3)])
        s1 = snap(lambda r: r.histogram("h").observe(20.0))
        merged = merge_snapshots([s0, s1])
        entry = merged["h"]["series"][0]
        # the median of (10, 10, 10, 20) is 10 - count-weighting the two
        # per-shard medians said 12.5
        whole = snap(
            lambda r: [r.histogram("h").observe(v) for v in (10.0, 10.0, 10.0, 20.0)]
        )["h"]["series"][0]
        assert entry["p50"] == whole["p50"] == pytest.approx(10.0, rel=0.032)
        assert entry["p99"] == whole["p99"]
        assert entry["buckets"] == whole["buckets"]

    def test_skewed_shards_match_single_registry(self):
        """One worker holds the whole tail: the case count-weighting got
        wrong by the width of the distribution."""
        fast = [100.0 + i for i in range(200)]
        slow = [5000.0 + 10 * i for i in range(10)]

        def feed(values):
            return lambda r: [r.histogram("h").observe(v, cell="c") for v in values]

        merged = merge_snapshots([snap(feed(fast)), snap(feed(slow))])
        whole = snap(feed(fast + slow))
        got, want = merged["h"]["series"][0], whole["h"]["series"][0]
        for key in ("count", "min", "max", "buckets", "p50", "p99", "mean"):
            assert got[key] == want[key]
        assert got["stddev"] == pytest.approx(want["stddev"], rel=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1, max_size=120,
        ),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_any_sharding_equals_single_registry(self, values, k, rng):
        """merge(shards) == the snapshot of one registry fed the union."""
        shards = [MetricsRegistry() for _ in range(k)]
        whole = MetricsRegistry()
        for v in values:
            rng.choice(shards).histogram("h", "help").observe(v, plugin="p")
            whole.histogram("h", "help").observe(v, plugin="p")
        merged = merge_snapshots([r.to_json() for r in shards])
        got = merged["h"]["series"][0]
        want = whole.to_json()["h"]["series"][0]
        for key in ("labels", "count", "min", "max", "buckets", "p50", "p99"):
            assert got[key] == want[key]
        assert got["sum"] == pytest.approx(want["sum"], rel=1e-9, abs=1e-6)

    def test_merge_is_associative(self):
        docs = [
            snap(lambda r, lo=lo: [
                r.histogram("h").observe(float(v)) for v in range(lo, lo + 40)
            ])
            for lo in (1, 30, 500)
        ]
        once = merge_snapshots(docs)["h"]["series"][0]
        staged = merge_snapshots(
            [merge_snapshots(docs[:2]), docs[2]]
        )["h"]["series"][0]
        for key in ("count", "sum", "min", "max", "buckets", "p50", "p99"):
            assert once[key] == staged[key]

    def test_bucketless_legacy_series_merges_without_quantiles(self):
        """A snapshot written before buckets existed still contributes
        count/sum/min/max; the merged series then claims no percentile."""
        legacy = {
            "h": {
                "type": "histogram", "help": "",
                "series": [{
                    "labels": {}, "count": 2, "sum": 30.0, "mean": 15.0,
                    "min": 10.0, "max": 20.0, "p50": 15.0, "p99": 20.0,
                }],
            }
        }
        fresh = snap(lambda r: r.histogram("h").observe(40.0))
        entry = merge_snapshots([legacy, fresh])["h"]["series"][0]
        assert entry == {
            "labels": {}, "count": 3, "sum": 70.0,
            "mean": pytest.approx(70.0 / 3), "min": 10.0, "max": 40.0,
        }

    def test_empty_series_survive(self):
        s0 = snap(lambda r: r.histogram("h"))
        merged = merge_snapshots([s0])
        assert merged["h"]["series"] == []

    def test_identical_shards_exact(self):
        """The sharded-cell case: same distribution -> same median."""
        def build(r):
            for v in (1.0, 2.0, 3.0):
                r.histogram("h").observe(v)

        merged = merge_snapshots([snap(build), snap(build)])
        entry = merged["h"]["series"][0]
        single = snap(build)["h"]["series"][0]
        assert entry["p50"] == single["p50"]


class TestMergeInputs:
    def test_accepts_wrapped_documents(self):
        s0 = snap(lambda r: r.counter("c").inc())
        merged = merge_snapshots([{"metrics": s0}, s0])
        assert merged["c"]["series"][0]["value"] == 2

    def test_type_conflict_raises(self):
        s0 = snap(lambda r: r.counter("m").inc())
        s1 = snap(lambda r: r.gauge("m").set(1))
        with pytest.raises(MergeError):
            merge_snapshots([s0, s1])

    def test_garbage_family_raises(self):
        with pytest.raises(MergeError):
            merge_snapshots([{"m": "not a family"}])

    def test_merge_of_nothing(self):
        assert merge_snapshots([]) == {}

    def test_merged_doc_remerges(self):
        """Merge output is a valid snapshot itself (associativity)."""
        s0 = snap(lambda r: r.counter("c").inc(1))
        s1 = snap(lambda r: r.counter("c").inc(2))
        s2 = snap(lambda r: r.counter("c").inc(4))
        once = merge_snapshots([s0, s1, s2])
        staged = merge_snapshots([merge_snapshots([s0, s1]), s2])
        assert once == staged


class TestPrometheusRender:
    def test_renders_all_kinds(self):
        def build(r):
            r.counter("c", "the count").inc(2, node="cell0")
            r.gauge("g").set(7)
            r.histogram("h").observe(4.0)

        text = snapshot_to_prometheus(merge_snapshots([snap(build)]))
        assert '# TYPE c counter' in text
        assert 'c{node="cell0"} 2' in text
        assert "g 7" in text
        assert "# TYPE h summary" in text
        assert 'h{quantile="0.5"} 4' in text
        assert "h_count 1" in text

    def test_label_escaping(self):
        def build(r):
            r.counter("c").inc(1, path='a"b\\c')

        text = snapshot_to_prometheus(merge_snapshots([snap(build)]))
        assert 'path="a\\"b\\\\c"' in text


class TestMergeCli:
    def test_obs_merge_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        s0 = snap(lambda r: r.counter("waran_x_total").inc(1, worker="0"))
        s1 = {"metrics": snap(lambda r: r.counter("waran_x_total").inc(2, worker="1"))}
        p0 = tmp_path / "w0.json"
        p1 = tmp_path / "w1.json"
        p0.write_text(json.dumps(s0))
        p1.write_text(json.dumps(s1))

        assert main(["obs", "merge", str(p0), str(p1)]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert [e["value"] for e in merged["waran_x_total"]["series"]] == [1, 2]

        out = tmp_path / "merged.prom"
        assert main(["obs", "merge", str(p0), str(p1),
                     "--format", "prom", "-o", str(out)]) == 0
        assert 'waran_x_total{worker="0"} 1' in out.read_text()

    def test_obs_merge_gauge_mode(self, tmp_path, capsys):
        """``--gauge-mode NAME=MODE`` overrides how one gauge merges."""
        from repro.cli import main

        paths = []
        for worker, value in (("0", 5), ("1", 3)):
            path = tmp_path / f"w{worker}.json"
            path.write_text(json.dumps(snap(lambda r: r.gauge("g").set(value))))
            paths.append(str(path))

        def merged_value(*flags):
            assert main(["obs", "merge", *paths, *flags]) == 0
            doc = json.loads(capsys.readouterr().out)
            return [e["value"] for e in doc["g"]["series"]]

        assert merged_value() == [8]
        assert merged_value("--gauge-mode", "g=max") == [5]
        assert merged_value("--gauge-mode", "g=last") == [3]
        assert main(["obs", "merge", *paths, "--gauge-mode", "g"]) == 1
        assert "NAME=MODE" in capsys.readouterr().err

    def test_obs_merge_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "merge", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_obs_top_lists_the_hottest_spans(self, capsys):
        """``repro obs --top N``: a header, then at most N span names by
        total time, most expensive first."""
        from repro.cli import main

        assert main(["obs", "--calls", "3", "--top", "5"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["span", "count", "total", "ms", "max", "us"]
        assert 1 <= len(rows) <= 5
        totals = [float(row.split()[2]) for row in rows]
        assert totals == sorted(totals, reverse=True)
        assert "plugin.call" in {row.split()[0] for row in rows}

        assert main(["obs", "--calls", "3", "--top", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_obs_demo_still_works(self, capsys):
        """The merge subcommand must not break the bare obs demo."""
        from repro.cli import main

        assert main(["obs", "--calls", "2", "--section", "metrics"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "metrics" in doc

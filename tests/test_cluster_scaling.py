"""Scaling determinism: aggregates are invariant under deployment shape.

The paper's scale-out claim only holds if *how* you run the sweep -
worker count, Wasm engine tier, worker processes over TCP vs inline -
never changes *what* the sweep computes.  These tests pin that
invariance: byte-identical scheduled-bytes and fault-log digests across
1/2/4 workers, across inline/tcp, and across all three engines.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import ClusterSpec, run_cluster
from repro.wasm import codecache
from repro.wasm.threaded import DEFAULT_ENGINE, ENGINES

BASE = ClusterSpec(
    workers=2, cells=4, ues=8, slots=40, mode="inline", timeout_s=120.0
)
#: smaller proc-mode spec: same coverage, bounded spawn cost
PROC = replace(BASE, slots=30, ues=4)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    obs.reset()
    obs.disable()


def _digests(report):
    return (
        report.bytes_digest,
        report.fault_digest,
        report.indications_seen,
    )


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_inline_digests_identical_across_1_2_4_workers(self, engine):
        spec = replace(BASE, engine=engine)
        results = {
            w: _digests(run_cluster(replace(spec, workers=w)))
            for w in (1, 2, 4)
        }
        assert results[1] == results[2] == results[4]

    def test_default_engine_promotes_yet_digests_are_worker_count_invariant(self):
        # the default engine tiers up: which slot each cell's plugins
        # switch to compiled code at depends on what shares its process
        # (heat is per binary, process-wide) - and must not matter
        results, promoted = {}, {}
        for w in (1, 2, 4):
            codecache.clear()  # every run starts cold and earns its compile
            report = run_cluster(replace(BASE, workers=w, engine=DEFAULT_ENGINE))
            results[w] = _digests(report)
            series = report.metrics["waran_plugin_promotions_total"]["series"]
            promoted[w] = sum(s["value"] for s in series)
        assert results[1] == results[2] == results[4]
        assert all(n > 0 for n in promoted.values()), promoted

    def test_tcp_digests_same_across_worker_counts(self):
        spec = replace(PROC, mode="proc")
        one = _digests(run_cluster(replace(spec, workers=1)))
        four = _digests(run_cluster(replace(spec, workers=4)))
        assert one == four


class TestEngineInvariance:
    def test_digests_identical_across_all_engines(self):
        # fault_digest included: the cell log does not name the engine
        results = {
            engine: _digests(run_cluster(replace(BASE, engine=engine)))
            for engine in ENGINES
        }
        assert results["legacy"] == results["threaded"] == results["aot"]


class TestTransportInvariance:
    @pytest.mark.parametrize(
        "engine", ENGINES, ids=[f"{engine}-tcp" for engine in ENGINES]
    )
    def test_proc_transport_matches_inline(self, engine):
        spec = replace(PROC, engine=engine)
        inline = _digests(run_cluster(spec))
        proc = _digests(run_cluster(replace(spec, mode="proc")))
        assert proc == inline


#: the nightly metro-soak job's shape, at a slot count tier-1 can afford
METRO = ClusterSpec(workers=4, cells=64, ues=256, slots=8, mode="inline")


class TestMetro:
    def test_metro_spec_shape(self):
        METRO.validate()
        # every worker gets a non-empty shard
        assert all(METRO.cells_for_worker(w) for w in range(METRO.workers))
        assert sum(METRO.ues_for_cell(g) for g in range(METRO.cells)) == METRO.ues

    def test_metro_digests_invariant_under_worker_count(self):
        one = _digests(run_cluster(replace(METRO, workers=1)))
        four = _digests(run_cluster(METRO))
        assert one == four


class TestObservabilityInvariance:
    def test_trace_and_capture_do_not_change_digests(self):
        plain = _digests(run_cluster(BASE))
        traced = _digests(run_cluster(replace(BASE, trace=True)))
        captured = _digests(run_cluster(replace(BASE, capture=True)))
        assert plain == traced == captured

    def test_chaos_digests_same_across_tcp_workers(self):
        spec = replace(
            PROC, mode="proc", chaos="seed=5,trap=0.05,fuel_cut=0.02"
        )
        two = run_cluster(spec)
        assert two.fault_log, "chaos spec must actually inject faults"
        one = run_cluster(replace(spec, workers=1))
        assert _digests(one) == _digests(two)

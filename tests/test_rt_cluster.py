"""rt x cluster integration: scenario shards, budgets, and fail-fast.

Covers the cluster end of the rt story: a spec naming a scenario builds
scenario cells (budgets are per cell-slot - never divided by the worker
count - so digests stay invariant across 1/2/4 workers), the rt policy
string rides :class:`ClusterSpec` validation, and the coordinator
fail-fast satellite: a worker that dies mid-sweep surfaces as
:class:`WorkerFailed` naming the worker and its last completed slot
instead of blocking until the global timeout.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import ClusterSpec, WorkerFailed, run_cluster

#: two flash-crowd cells, inline: small enough for CI, long enough to
#: cross the burst window and the hog's quarantine
RT_SPEC = ClusterSpec(
    workers=1, cells=2, ues=8, slots=120, mode="inline", scenario="flash_crowd"
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    obs.reset()
    obs.disable()


class TestSpecValidation:
    def test_rt_policy_string_is_validated(self):
        replace(RT_SPEC, rt="budget_us=400").validate()
        with pytest.raises(ValueError):
            replace(RT_SPEC, rt="bogus=1").validate()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            replace(RT_SPEC, scenario="nope").validate()

    def test_negative_liveness_rejected(self):
        with pytest.raises(ValueError):
            replace(RT_SPEC, liveness_timeout_s=-1.0).validate()


class TestScenarioCluster:
    def test_digests_invariant_under_worker_count(self):
        one = run_cluster(RT_SPEC)
        two = run_cluster(replace(RT_SPEC, workers=2))
        assert one.fault_digest == two.fault_digest
        assert one.bytes_digest == two.bytes_digest

    def test_rt_sections_land_in_the_fault_log(self):
        report = run_cluster(RT_SPEC)
        assert "[rt]" in report.fault_log
        assert "[rt counters]" in report.fault_log
        assert "verdict=" in report.fault_log

    def test_budget_is_per_cell_not_per_worker(self):
        # the shard budget gauge is cells x the policy's per-cell budget:
        # re-sharding moves cells between workers but never changes any
        # cell's own budget, which is what keeps digests invariant
        report = run_cluster(RT_SPEC)
        series = report.metrics["waran_rt_shard_budget_fuel"]["series"]
        total_one = sum(e["value"] for e in series)
        report2 = run_cluster(replace(RT_SPEC, workers=2))
        series2 = report2.metrics["waran_rt_shard_budget_fuel"]["series"]
        assert sum(e["value"] for e in series2) == total_one
        assert len(series2) == 2  # one gauge per worker

    def test_rt_policy_applies_to_plain_cells(self):
        # --rt without a scenario: ordinary cluster cells get budgets
        spec = ClusterSpec(
            workers=1, cells=2, ues=8, slots=40, mode="inline",
            rt="budget_us=400,fuel_per_us=50",
        )
        report = run_cluster(spec)
        assert "[rt counters]" in report.fault_log
        assert report.fault_digest == run_cluster(spec).fault_digest


class TestWorkerFailFast:
    def test_dead_worker_is_named_with_last_slot(self, monkeypatch):
        """Satellite: a worker killed mid-sweep fails fast, not at timeout."""
        monkeypatch.setenv("REPRO_TEST_WORKER_DIE", "1:20")
        spec = ClusterSpec(
            workers=2, cells=4, ues=4, slots=60, mode="proc",
            flush_every=10, timeout_s=120,
        )
        with pytest.raises(WorkerFailed) as excinfo:
            run_cluster(spec)
        assert excinfo.value.worker == 1
        # the last heartbeat it sent was the slot-19 flush
        assert excinfo.value.last_slot == 19
        assert "worker 1" in str(excinfo.value)
        assert "slot 19" in str(excinfo.value)

    def test_healthy_run_unaffected_by_die_hook_for_other_worker(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_WORKER_DIE", "7:5")  # no worker 7
        report = run_cluster(
            ClusterSpec(workers=2, cells=2, ues=4, slots=20, mode="inline")
        )
        assert report.delivered_bytes > 0


@pytest.mark.slow
class TestEngineMatrixCluster:
    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    def test_scenario_digest_per_engine(self, engine):
        report = run_cluster(replace(RT_SPEC, engine=engine))
        baseline = run_cluster(replace(RT_SPEC, engine="threaded"))
        # physics, faults and rt decisions are engine-identical, and the
        # cell log no longer names the engine: the digests match outright
        assert report.bytes_digest == baseline.bytes_digest
        assert report.fault_log == baseline.fault_log
        assert report.fault_digest == baseline.fault_digest

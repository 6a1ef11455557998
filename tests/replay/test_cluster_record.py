"""Cluster sweeps as replay corpora: the per-worker flight merge.

``repro record --workload cluster`` runs a multi-worker sweep with every
worker's flight recorder in capture mode; each worker ships its full
call stream home inside its result frame and the coordinator-side merge
folds them into one corpus.  The merge is sound because plugin names are
per-cell (``cell3/sched_rr``): no two workers ever produce the same
stream key.  Pinned here:

- the merged corpus covers every cell of the sweep, whichever worker
  hosted it, and records which run it came from (``source_digest``);
- recording is deterministic, and - the scale-out invariant again -
  byte-identical across worker counts and across inline/proc modes;
- the corpus replays bit-identically under all three engines, before
  and after reduction.
"""

import pytest

from repro.cluster.spec import cell_name
from repro.replay import (
    dumps_corpus,
    record_workload,
    reduce_corpus,
    replay_corpus,
)
from repro.wasm import codecache
from repro.wasm.threaded import ENGINES

SLOTS = 60
CELLS = 4


@pytest.fixture(scope="module")
def cluster_corpus():
    return record_workload(
        "cluster", seed=0, slots=SLOTS, workers=2, cells=CELLS, ues=8
    )


class TestMerge:
    def test_corpus_shape(self, cluster_corpus):
        meta = cluster_corpus.meta
        assert meta["workload"] == "cluster"
        # deployment shape is deliberately absent: it cannot change what
        # was captured, so it must not change the container bytes either
        assert "workers" not in meta
        assert meta["slots"] == SLOTS
        assert len(meta["source_digest"]) == 64
        assert meta["recorded_calls"] == cluster_corpus.total_calls
        assert cluster_corpus.total_calls > 0
        for stream in cluster_corpus.streams:
            assert stream.module_sha in cluster_corpus.modules

    def test_every_cell_contributes_a_stream(self, cluster_corpus):
        hosted = {s.plugin.split("/")[0] for s in cluster_corpus.streams}
        assert hosted == {cell_name(g) for g in range(CELLS)}

    def test_streams_carry_capture_state(self, cluster_corpus):
        for stream in cluster_corpus.streams:
            assert stream.calls[0].alloc  # first call allocates scratch
            assert stream.calls[0].globals_pre is not None

    def test_recording_is_deterministic(self, cluster_corpus):
        again = record_workload(
            "cluster", seed=0, slots=SLOTS, workers=2, cells=CELLS, ues=8
        )
        assert dumps_corpus(again) == dumps_corpus(cluster_corpus)

    def test_corpus_invariant_under_worker_count(self, cluster_corpus):
        solo = record_workload(
            "cluster", seed=0, slots=SLOTS, workers=1, cells=CELLS, ues=8
        )
        assert dumps_corpus(solo) == dumps_corpus(cluster_corpus)

    def test_corpus_invariant_under_where_the_run_tiers_up(self, cluster_corpus):
        # under the default engine a run that starts with a cold codecache
        # switches each plugin to compiled code at its own slot; the
        # recorded call streams must not be able to tell
        codecache.clear()
        cold = record_workload(
            "cluster", seed=0, slots=SLOTS, workers=4, cells=CELLS, ues=8
        )
        assert dumps_corpus(cold) == dumps_corpus(cluster_corpus)

    def test_proc_record_matches_inline(self, cluster_corpus):
        """The wire round trip (each worker's streams as .wrc bytes in
        its result frame, merged at the collector) is lossless: recording
        over real worker processes produces the same corpus bytes."""
        proc = record_workload(
            "cluster",
            seed=0,
            slots=SLOTS,
            workers=2,
            cells=CELLS,
            ues=8,
            mode="proc",
        )
        assert dumps_corpus(proc) == dumps_corpus(cluster_corpus)


class TestReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_under_all_engines(self, cluster_corpus, engine):
        report = replay_corpus(cluster_corpus, engine=engine)
        assert report.ok, [s.mismatches for s in report.streams if not s.ok]
        assert report.total_matched == cluster_corpus.total_calls

    def test_reduced_corpus_stays_faithful(self, cluster_corpus):
        reduced, report = reduce_corpus(cluster_corpus, max_checks=8)
        assert reduced.meta["reduced"] is True
        assert report.kept_calls <= report.original_calls
        for engine in ENGINES:
            rep = replay_corpus(reduced, engine=engine)
            assert rep.ok, [s.mismatches for s in rep.streams if not s.ok]

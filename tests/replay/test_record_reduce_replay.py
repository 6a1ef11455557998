"""The tentpole round trip: record a live workload, reduce it, replay it.

Acceptance contract pinned here:

- recording the chaos soak and the rt flash-crowd scenario and replaying
  the corpus standalone reproduces every recorded outcome, output byte
  and fuel count **bit-identically under all three engines**;
- recording is itself deterministic (same workload+seed -> same bytes);
- reduction shrinks the serialised corpus by at least 2x while the
  fidelity contract keeps holding;
- scheduler streams survive reduction without rebasing (their live
  behaviour is fully standalone-reproducible).
"""

import pytest

from repro import obs
from repro.abi import wire
from repro.abi.host import PluginError, PluginHost
from repro.chaos.schedule import ChaosConfig, FaultSchedule
from repro.experiments.fig5d import make_ues
from repro.obs import OBS
from repro.plugins import plugin_wasm
from repro.replay import (
    dumps_corpus,
    record_workload,
    reduce_corpus,
    replay_corpus,
)
from repro.replay.bench import make_stream_host, replay_call
from repro.replay.record import build_corpus
from repro.wasm.threaded import ENGINES

CHAOS_SLOTS = 200
FLASH_SLOTS = 40


@pytest.fixture(scope="module")
def chaos_corpus():
    return record_workload("chaos", seed=0, slots=CHAOS_SLOTS)


@pytest.fixture(scope="module")
def flash_corpus():
    return record_workload("flash_crowd", seed=0, slots=FLASH_SLOTS)


class TestRecord:
    def test_chaos_capture_shape(self, chaos_corpus):
        assert chaos_corpus.meta["workload"] == "chaos"
        assert chaos_corpus.meta["slots"] == CHAOS_SLOTS
        assert chaos_corpus.meta["recorded_calls"] == chaos_corpus.total_calls
        assert chaos_corpus.total_calls > CHAOS_SLOTS
        assert chaos_corpus.streams and chaos_corpus.modules
        for stream in chaos_corpus.streams:
            assert stream.module_sha in chaos_corpus.modules
            assert stream.calls[0].alloc  # first call allocates scratch

    def test_chaos_captures_faults(self, chaos_corpus):
        calls = [c for s in chaos_corpus.streams for c in s.calls]
        assert any(c.chaos is not None for c in calls)
        assert any(c.outcome != "ok" for c in calls)

    def test_flash_crowd_captures_rt_budgets(self, flash_corpus):
        calls = [c for s in flash_corpus.streams for c in s.calls]
        assert any(
            c.rt is not None and c.rt.get("fuel") is not None for c in calls
        )

    def test_recording_is_deterministic(self, flash_corpus):
        again = record_workload("flash_crowd", seed=0, slots=FLASH_SLOTS)
        assert dumps_corpus(again) == dumps_corpus(flash_corpus)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            record_workload("nope")


class TestReplayFidelity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_chaos_bit_identical(self, chaos_corpus, engine):
        report = replay_corpus(chaos_corpus, engine=engine)
        assert report.ok, [s.mismatches for s in report.streams if not s.ok]
        assert report.total_matched == chaos_corpus.total_calls
        assert report.fidelity_digest == chaos_corpus.fidelity_digest()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flash_crowd_bit_identical(self, flash_corpus, engine):
        report = replay_corpus(flash_corpus, engine=engine)
        assert report.ok, [s.mismatches for s in report.streams if not s.ok]

    def test_stats_populated(self, flash_corpus):
        report = replay_corpus(flash_corpus)
        doc = report.to_json()
        assert doc["fidelity_ok"] is True
        assert doc["calls"] == flash_corpus.total_calls
        assert doc["mean_call_us"] > 0
        for stream in doc["streams"]:
            assert stream["fuel_total"] > 0
            assert stream["p99_us"] >= stream["p50_us"] >= 0


class TestReplayLeavesTelemetryAlone:
    """A replay reads each call's report from the call itself: it needs no
    telemetry and swaps no process-wide recorder."""

    def test_off_stays_off_and_untouched(self, flash_corpus):
        obs.disable()
        obs.reset()
        flight, tracer, registry = OBS.flight, OBS.tracer, OBS.registry
        assert replay_corpus(flash_corpus).ok
        reduce_corpus(flash_corpus, max_checks=4)
        assert OBS.enabled is False and OBS.tracer.enabled is False
        assert OBS.flight is flight and len(flight) == 0
        assert OBS.tracer is tracer and tracer.finished() == []
        assert OBS.registry is registry and registry.to_json() == {}
        assert len(OBS.events) == 0

    def test_on_stays_on_and_records_like_any_other_call(self, flash_corpus):
        obs.enable()
        obs.reset()
        try:
            flight = OBS.flight
            assert replay_corpus(flash_corpus).ok
            reduce_corpus(flash_corpus, max_checks=4)
            assert OBS.enabled is True
            assert OBS.flight is flight and len(flight) > 0
            assert flight.capture is False
        finally:
            obs.reset()
            obs.disable()


PAYLOAD = wire.pack_sched_input(0, 20, make_ues(3))

#: a recorded fault -> (chaos rates, call kwargs, expected outcome)
REISSUE_CASES = {
    "injected-trap": ({"trap": 1.0}, {}, "trap"),
    "injected-fuel-cut": ({"fuel_cut": 1.0}, {}, "fuel"),
    "rt-preemption": (
        None,
        {"fuel": 300, "rt": {"lane": "be", "verdict": "admit", "fuel": 300}},
        "deadline",
    ),
    "clean": (None, {}, "ok"),
}


def _capture_one(engine, rates, call_kwargs):
    """One call on a fresh rr host under corpus capture: the host, its
    flight record and the one-call corpus built from that record."""
    chaos = FaultSchedule(ChaosConfig(seed=9, **rates)) if rates else None
    obs.enable()
    obs.reset()
    OBS.flight.capture = True
    try:
        host = PluginHost(plugin_wasm("rr"), name="rr", engine=engine, chaos=chaos)
        try:
            host.call(PAYLOAD, **call_kwargs)
        except PluginError:
            pass
        (record,) = OBS.flight.records()
        corpus = build_corpus([record], dict(OBS.flight.modules), {})
    finally:
        OBS.flight.capture = False
        obs.reset()
        obs.disable()
    return host, record, corpus


class TestOneReissuePath:
    """``PluginHost.replay(record)`` and the corpus replayer re-issue a
    recorded call through the same step, so they cannot disagree."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(REISSUE_CASES))
    def test_host_replay_and_corpus_replay_agree(self, engine, case):
        rates, call_kwargs, outcome = REISSUE_CASES[case]
        host, record, corpus = _capture_one(engine, rates, call_kwargs)
        assert record.outcome == outcome
        try:
            via_host = host.replay(record)
        except PluginError as exc:
            via_host = exc.result
        (stream,) = corpus.streams
        (call,) = stream.calls
        via_corpus = replay_call(make_stream_host(corpus, stream, engine), call)
        # a live host's own schedule must not leak into a re-issue: only
        # the recorded injection (if any) fires
        chaotic = PluginHost(
            plugin_wasm("rr"), name="rr", engine=engine,
            chaos=FaultSchedule(ChaosConfig(seed=1, trap=1.0)),
        )
        via_live = replay_call(chaotic, call)
        assert call.matches(via_host) and call.matches(via_corpus)
        assert call.matches(via_live)
        assert (via_host.outcome, via_host.output, via_host.fuel_used) == (
            record.outcome, record.output_bytes, record.fuel_used
        )
        assert via_host.trap_code == via_corpus.trap_code


class TestReduce:
    @pytest.fixture(scope="class")
    def reduced(self, chaos_corpus):
        return reduce_corpus(chaos_corpus, max_checks=12)

    def test_ratio_at_least_2x(self, reduced):
        corpus, report = reduced
        assert report.ratio >= 2.0, report.summary()
        assert report.kept_calls < report.original_calls

    def test_reduced_corpus_stays_faithful(self, reduced):
        corpus, _report = reduced
        for engine in ENGINES:
            report = replay_corpus(corpus, engine=engine)
            assert report.ok, [
                s.mismatches for s in report.streams if not s.ok
            ]

    def test_scheduler_streams_never_rebase(self, reduced):
        corpus, report = reduced
        assert report.rebased == 0
        assert all(
            call.live_match
            for stream in corpus.streams
            for call in stream.calls
        )

    def test_every_class_keeps_a_representative(self, chaos_corpus, reduced):
        from repro.replay.reduce import _call_class

        corpus, _report = reduced
        for stream in chaos_corpus.streams:
            kept = next(
                (
                    s
                    for s in corpus.streams
                    if (s.plugin, s.generation)
                    == (stream.plugin, stream.generation)
                ),
                None,
            )
            assert kept is not None
            assert {_call_class(c) for c in stream.calls} == {
                _call_class(c) for c in kept.calls
            }

    def test_input_corpus_untouched(self, chaos_corpus):
        before = dumps_corpus(chaos_corpus)
        reduce_corpus(chaos_corpus, shrink_modules=False)
        assert dumps_corpus(chaos_corpus) == before

    def test_meta_records_reduction(self, reduced):
        corpus, report = reduced
        assert corpus.meta["reduced"] is True
        assert corpus.meta["reduction"]["kept_calls"] == report.kept_calls


class TestFuzzSeeding:
    def test_seeded_campaign_is_deterministic(self, flash_corpus):
        from repro.fuzz import run_campaign

        modules = [flash_corpus.modules[sha]
                   for sha in sorted(flash_corpus.modules)]
        a = run_campaign(3, 40, mutate_ratio=0.8, seed_modules=modules)
        b = run_campaign(3, 40, mutate_ratio=0.8, seed_modules=modules)
        assert a.seeded > 0
        assert a.ok and b.ok
        assert a.digest == b.digest

    def test_seed_list_changes_campaign(self, flash_corpus):
        from repro.fuzz import run_campaign

        modules = [flash_corpus.modules[sha]
                   for sha in sorted(flash_corpus.modules)]
        seeded = run_campaign(3, 40, mutate_ratio=0.8, seed_modules=modules)
        plain = run_campaign(3, 40, mutate_ratio=0.8)
        assert plain.seeded == 0
        assert seeded.digest != plain.digest

"""Supervisor unit tests: retry/backoff, and every breaker transition."""

import random

import pytest

from repro import obs
from repro.chaos.supervisor import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    Supervisor,
)


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=8.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in range(6)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        first = [policy.delay(0, random.Random(7)) for _ in range(5)]
        second = [policy.delay(0, random.Random(7)) for _ in range(5)]
        assert first == second  # same seed, same jitter
        for delay in first:
            assert 1.0 <= delay < 1.5


class TestCircuitBreakerTransitions:
    def test_closed_to_open(self):
        breaker = CircuitBreaker("peer", failure_threshold=3)
        for _ in range(2):
            breaker.record_failure(now=0.0)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(now=1.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.transitions == [("closed", "open")]
        assert not breaker.allow(now=1.0)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker("peer", failure_threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_open_to_half_open_after_reset_window(self):
        breaker = CircuitBreaker("peer", failure_threshold=1, reset_after=10.0)
        breaker.record_failure(now=5.0)
        assert not breaker.allow(now=14.0)  # still inside the window
        assert breaker.allow(now=15.0)  # window elapsed: probe allowed
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_to_closed_after_probe_successes(self):
        breaker = CircuitBreaker(
            "peer", failure_threshold=1, reset_after=1.0, half_open_successes=2
        )
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=2.0)
        breaker.record_success(now=2.0)
        assert breaker.state is BreakerState.HALF_OPEN  # one probe is not enough
        breaker.record_success(now=3.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker("peer", failure_threshold=1, reset_after=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=10.0)
        breaker.record_failure(now=10.0)  # the probe failed
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_at == 10.0  # the reset timer restarted
        assert not breaker.allow(now=19.0)
        assert breaker.allow(now=20.0)


class TestSupervisorCall:
    def test_success_passthrough(self):
        supervisor = Supervisor()
        assert supervisor.call("peer", lambda: 42) == 42
        assert supervisor.retries == 0

    def test_retries_then_succeeds(self):
        supervisor = Supervisor(policy=RetryPolicy(max_attempts=4))
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert supervisor.call("peer", flaky, retry_on=(OSError,)) == "ok"
        assert len(attempts) == 3
        assert supervisor.retries == 2
        assert supervisor.gave_up == 0

    def test_exhaustion_reraises_last_error(self):
        supervisor = Supervisor(
            policy=RetryPolicy(max_attempts=3), failure_threshold=100
        )

        def always_fails():
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            supervisor.call("peer", always_fails, retry_on=(OSError,))
        assert supervisor.gave_up == 1
        assert supervisor.breaker("peer").consecutive_failures == 3

    def test_non_retryable_errors_propagate_immediately(self):
        supervisor = Supervisor()
        calls = []

        def typed_failure():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            supervisor.call("peer", typed_failure, retry_on=(OSError,))
        assert len(calls) == 1

    def test_open_circuit_rejects_without_calling(self):
        supervisor = Supervisor(
            policy=RetryPolicy(max_attempts=1), failure_threshold=2, reset_after=10.0
        )

        def fails():
            raise OSError("down")

        for _ in range(2):
            with pytest.raises(OSError):
                supervisor.call("peer", fails, retry_on=(OSError,))
        assert supervisor.breaker("peer").state is BreakerState.OPEN

        calls = []
        with pytest.raises(CircuitOpenError) as excinfo:
            supervisor.call("peer", lambda: calls.append(1), retry_on=(OSError,))
        assert calls == []  # the function never ran
        assert excinfo.value.peer == "peer"
        assert supervisor.rejected == 1

    def test_retry_stops_when_breaker_opens_mid_call(self):
        """Retries must not keep hammering a peer whose circuit just opened."""
        supervisor = Supervisor(
            policy=RetryPolicy(max_attempts=10), failure_threshold=2
        )
        attempts = []

        def fails():
            attempts.append(1)
            raise OSError("down")

        with pytest.raises(OSError):
            supervisor.call("peer", fails, retry_on=(OSError,))
        assert len(attempts) == 2  # stopped at the threshold, not max_attempts

    def test_recovery_through_half_open(self):
        supervisor = Supervisor(
            policy=RetryPolicy(max_attempts=1),
            failure_threshold=1,
            reset_after=5.0,
            half_open_successes=1,
        )
        with pytest.raises(OSError):
            supervisor.call("peer", self._raise_oserror, retry_on=(OSError,))
        with pytest.raises(CircuitOpenError):
            supervisor.call("peer", lambda: "x", retry_on=(OSError,))
        for _ in range(5):
            supervisor.tick()
        assert supervisor.call("peer", lambda: "back") == "back"
        assert supervisor.breaker("peer").state is BreakerState.CLOSED

    @staticmethod
    def _raise_oserror():
        raise OSError("down")


class TestBreakerEdges:
    """Half-open races, seeded backoff determinism, full recovery arcs."""

    def test_half_open_admits_concurrent_probes(self):
        # the half-open gate is not a single-probe mutex: two callers that
        # both pass allow() in the same tick may both probe; the breaker
        # settles on whichever outcome is recorded
        breaker = CircuitBreaker(
            "peer", failure_threshold=1, reset_after=10.0, half_open_successes=2
        )
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=10.0)
        assert breaker.allow(now=10.0)  # second concurrent send also probes
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_failure_beats_racing_success(self):
        # probe A succeeds (1 of 2), racing probe B fails: the failure wins
        # and the partial success must not survive into the next probation
        breaker = CircuitBreaker(
            "peer", failure_threshold=1, reset_after=10.0, half_open_successes=2
        )
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=10.0)
        breaker.record_success(now=10.0)  # probe A: 1/2
        breaker.record_failure(now=10.0)  # probe B: reopen
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(now=15.0)  # timer restarted at the relapse

        # next probation starts counting probes from zero
        assert breaker.allow(now=20.0)
        breaker.record_success(now=20.0)
        assert breaker.state is BreakerState.HALF_OPEN  # A's old probe forgotten
        breaker.record_success(now=21.0)
        assert breaker.state is BreakerState.CLOSED

    def test_supervisor_half_open_relapse_round_trip(self):
        supervisor = Supervisor(
            policy=RetryPolicy(max_attempts=1),
            failure_threshold=1,
            reset_after=3.0,
            half_open_successes=2,
        )

        def fails():
            raise OSError("down")

        with pytest.raises(OSError):
            supervisor.call("peer", fails, retry_on=(OSError,))
        for _ in range(3):
            supervisor.tick()
        assert supervisor.call("peer", lambda: "probe-1") == "probe-1"
        with pytest.raises(OSError):  # racing send fails the probation
            supervisor.call("peer", fails, retry_on=(OSError,))
        with pytest.raises(CircuitOpenError):
            supervisor.call("peer", lambda: "rejected")
        for _ in range(3):
            supervisor.tick()
        assert supervisor.call("peer", lambda: "probe-2") == "probe-2"
        assert supervisor.call("peer", lambda: "probe-3") == "probe-3"
        breaker = supervisor.breaker("peer")
        assert breaker.state is BreakerState.CLOSED
        assert breaker.transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_backoff_jitter_deterministic_per_seed_and_peer(self):
        def delays(seed, peer):
            supervisor = Supervisor(seed=seed)
            rng = supervisor._peer(peer).rng
            return [supervisor.policy.delay(a, rng) for a in range(6)]

        assert delays(3, "ric") == delays(3, "ric")  # same seed: same jitter
        assert delays(3, "ric") != delays(4, "ric")  # seed changes the stream
        assert delays(3, "ric") != delays(3, "gnb")  # peers are independent

    def test_quarantine_probation_release_with_recovering_plugin(self):
        """The rt admission arc rides this breaker: overruns quarantine a
        plugin, probation half-opens it, and a recovered plugin re-admits
        through in-budget probes (the round-trip the scenarios assert
        end-to-end with real Wasm)."""
        from repro.rt import DeadlineDispatcher, RtPolicy, RtRequest

        dispatcher = DeadlineDispatcher(
            RtPolicy(
                budget_us=400.0, quarantine_after=2,
                probation_slots=8, probe_successes=2,
            ),
            slot_us=1000.0,
        )
        requests = [RtRequest(1, "flaky", "be")]
        hot_until = 6  # the plugin misbehaves for the first six slots

        for slot in range(30):
            for decision in dispatcher.plan_slot(slot, requests):
                if not decision.verdict.dispatches:
                    continue
                overrun = slot < hot_until
                dispatcher.observe_call(
                    decision, slot,
                    fuel_used=decision.fuel_budget if overrun else 300,
                    elapsed_us=5.0, overrun=overrun,
                )
            dispatcher.settle(slot)

        st = dispatcher.admission.state("flaky")
        breaker = st.breaker
        assert st.quarantines == 1
        assert st.readmissions == 1
        assert breaker.state is BreakerState.CLOSED
        assert ("closed", "open") in breaker.transitions
        assert ("open", "half_open") in breaker.transitions
        assert ("half_open", "closed") in breaker.transitions


class TestSupervisorObservability:
    def test_transition_and_outcome_metrics(self):
        obs.enable()
        obs.reset()
        try:
            supervisor = Supervisor(
                policy=RetryPolicy(max_attempts=2), failure_threshold=2
            )

            def fails():
                raise OSError("down")

            with pytest.raises(OSError):
                supervisor.call("peer", fails, retry_on=(OSError,))
            with pytest.raises(CircuitOpenError):
                supervisor.call("peer", lambda: 1, retry_on=(OSError,))

            registry = obs.OBS.registry
            assert registry.counter("waran_breaker_transitions_total").value(
                peer="peer", **{"from": "closed", "to": "open"}
            ) == 1
            assert registry.counter("waran_supervisor_calls_total").value(
                peer="peer", outcome="gave_up"
            ) == 1
            assert registry.counter("waran_supervisor_rejections_total").value(
                peer="peer"
            ) == 1
            text = registry.to_prometheus()
            assert "waran_supervisor_attempts" in text
            assert "waran_supervisor_backoff_ticks" in text
        finally:
            obs.reset()
            obs.disable()

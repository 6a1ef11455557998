"""Supervision: bounded retry, exponential backoff, per-peer circuit breakers.

The recovery half of the chaos story.  The injectors in this package
*provoke* faults; the :class:`Supervisor` is what the RIC and E2 agents
use to survive them:

- every supervised operation gets **bounded retries** with exponential
  backoff and deterministic seeded jitter (backoff is virtual - counted in
  ticks of the slot-synchronous clock, never slept - so simulations stay
  fast and reproducible);
- every peer (an E2 endpoint, one hosted xApp) gets a **circuit breaker**
  with the classic closed -> open -> half-open state machine: enough
  consecutive failures open the circuit, calls are rejected instantly
  while open, and after ``reset_after`` ticks a half-open probe decides
  between closing again and re-opening;
- every transition, retry and rejection is visible in :mod:`repro.obs`
  (``waran_breaker_transitions_total``, ``waran_supervisor_attempts``,
  ``waran_supervisor_backoff_ticks``...).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.chaos.schedule import _derive
from repro.netio.bus import NetworkError
from repro.obs import OBS


class CircuitOpenError(RuntimeError):
    """The peer's circuit is open: the call was rejected without running."""

    def __init__(self, peer: str, retry_at: float):
        super().__init__(f"circuit open for peer {peer!r} until t={retry_at:g}")
        self.peer = peer
        self.retry_at = retry_at


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and multiplicative jitter."""

    max_attempts: int = 4
    base_delay: float = 1.0  # ticks (slots in the slot-synchronous hosts)
    multiplier: float = 2.0
    max_delay: float = 32.0
    jitter: float = 0.5  # each delay is scaled by 1 + jitter * U[0, 1)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff after the ``attempt``-th failure (0-based)."""
        delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One peer's closed -> open -> half-open failure gate."""

    def __init__(
        self,
        peer: str,
        failure_threshold: int = 5,
        reset_after: float = 10.0,
        half_open_successes: int = 2,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.peer = peer
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.half_open_successes = half_open_successes
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._probe_successes = 0
        #: (from, to) pairs in transition order - the deterministic audit trail
        self.transitions: list[tuple[str, str]] = []

    def allow(self, now: float) -> bool:
        """May a call proceed at tick ``now``?  (May move open -> half-open.)"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.reset_after:
                self._transition(BreakerState.HALF_OPEN)
                self._probe_successes = 0
                return True
            return False
        return True  # HALF_OPEN: probes may proceed

    def record_success(self, now: float = 0.0) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_successes:
                self._transition(BreakerState.CLOSED)
                self.consecutive_failures = 0
        else:
            self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            # the probe failed: straight back to open, timer restarted
            self._transition(BreakerState.OPEN)
            self.opened_at = now
            return
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._transition(BreakerState.OPEN)
            self.opened_at = now

    @property
    def retry_at(self) -> float:
        return self.opened_at + self.reset_after

    def _transition(self, to: BreakerState) -> None:
        src = self.state
        self.state = to
        self.transitions.append((src.value, to.value))
        if OBS.enabled:
            OBS.registry.counter(
                "waran_breaker_transitions_total",
                "circuit breaker state transitions by peer",
            ).inc(peer=self.peer, **{"from": src.value, "to": to.value})
            OBS.events.emit(
                "supervisor.breaker",
                source=self.peer,
                **{"from": src.value, "to": to.value},
            )


class _PeerState:
    __slots__ = ("breaker", "rng")

    def __init__(self, breaker: CircuitBreaker, rng: random.Random):
        self.breaker = breaker
        self.rng = rng


class Supervisor:
    """Retry + breaker supervision for a set of named peers.

    The supervisor keeps its own virtual clock; the slot-synchronous hosts
    call :meth:`tick` once per slot so breaker timeouts and backoff are
    measured in slots, not wall time.  :meth:`call` either returns the
    supervised function's result, raises :class:`CircuitOpenError`
    (rejected while open), or re-raises the final underlying exception
    after retries are exhausted.
    """

    def __init__(
        self,
        seed: int = 0,
        policy: RetryPolicy | None = None,
        failure_threshold: int = 5,
        reset_after: float = 10.0,
        half_open_successes: int = 2,
    ):
        self.seed = seed
        self.policy = policy or RetryPolicy()
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.half_open_successes = half_open_successes
        self.now = 0.0
        self._peers: dict[str, _PeerState] = {}
        self.retries = 0
        self.gave_up = 0
        self.rejected = 0

    def tick(self) -> None:
        """Advance the virtual clock by one slot."""
        self.now += 1.0

    def breaker(self, peer: str) -> CircuitBreaker:
        return self._peer(peer).breaker

    def breakers(self) -> dict[str, CircuitBreaker]:
        return {name: state.breaker for name, state in self._peers.items()}

    def _peer(self, peer: str) -> _PeerState:
        state = self._peers.get(peer)
        if state is None:
            state = _PeerState(
                CircuitBreaker(
                    peer,
                    failure_threshold=self.failure_threshold,
                    reset_after=self.reset_after,
                    half_open_successes=self.half_open_successes,
                ),
                random.Random(_derive(self.seed, f"supervisor:{peer}")),
            )
            self._peers[peer] = state
        return state

    def call(self, peer: str, fn, *args, retry_on: tuple = (Exception,)):
        """Run ``fn(*args)`` under this peer's breaker with bounded retry."""
        state = self._peer(peer)
        breaker = state.breaker
        if not breaker.allow(self.now):
            self.rejected += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "waran_supervisor_rejections_total",
                    "calls rejected because the peer's circuit was open",
                ).inc(peer=peer)
            raise CircuitOpenError(peer, breaker.retry_at)
        backoff_total = 0.0
        last_error: BaseException | None = None
        for attempt in range(self.policy.max_attempts):
            try:
                result = fn(*args)
            except retry_on as exc:
                last_error = exc
                breaker.record_failure(self.now)
                if attempt + 1 < self.policy.max_attempts:
                    self.retries += 1
                    backoff_total += self.policy.delay(attempt, state.rng)
                if breaker.state is not BreakerState.CLOSED:
                    break  # opened (or re-opened) mid-retry: stop hammering
                continue
            breaker.record_success(self.now)
            self._observe(peer, attempt + 1, backoff_total, ok=True)
            return result
        self.gave_up += 1
        self._observe(peer, self.policy.max_attempts, backoff_total, ok=False)
        assert last_error is not None
        raise last_error

    def send(self, peer: str, channel, dest: str, message) -> bool:
        """``channel.send(dest, message)`` under ``peer``'s breaker, retried
        on transport errors.  Returns whether it went out: False when the
        breaker was open or every retry failed - losing one message must
        not take the sending loop down with it."""
        try:
            self.call(
                peer, channel.send, dest, message,
                retry_on=(NetworkError, OSError),
            )
        except (CircuitOpenError, NetworkError, OSError):
            return False
        return True

    def _observe(self, peer: str, attempts: int, backoff: float, ok: bool) -> None:
        if not OBS.enabled:
            return
        reg = OBS.registry
        reg.histogram(
            "waran_supervisor_attempts", "attempts per supervised call"
        ).observe(attempts, peer=peer)
        if backoff:
            reg.histogram(
                "waran_supervisor_backoff_ticks",
                "virtual backoff accumulated per supervised call (ticks)",
            ).observe(backoff, peer=peer)
        reg.counter(
            "waran_supervisor_calls_total", "supervised calls by outcome"
        ).inc(peer=peer, outcome="ok" if ok else "gave_up")

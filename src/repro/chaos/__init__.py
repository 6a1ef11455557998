"""``repro.chaos``: seeded fault injection and the recovery machinery.

The injection side (:mod:`~repro.chaos.schedule`,
:mod:`~repro.chaos.transport`, plus the hooks inside
:class:`repro.abi.host.PluginHost`) provokes faults at three layers -
runtime, ABI, transport - from a deterministic seeded schedule.  The
recovery side (:mod:`~repro.chaos.supervisor`, plugin
checkpoint/restore, the gNB fault policy) is what those injectors
exercise.  :class:`~repro.chaos.runner.ChaosRunner` soaks the whole
system under both at once.

``ChaosRunner`` is exported lazily: it imports the gNB and RIC hosts,
which themselves import this package (for the supervisor), and eagerly
importing it here would close that cycle.
"""

from repro.chaos.schedule import (
    ChaosConfig,
    ChaosInjection,
    FaultSchedule,
    OneShotChaos,
    schedule_from_spec,
)
from repro.chaos.supervisor import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    Supervisor,
)
from repro.chaos.transport import ChaosEndpoint

__all__ = [
    "BreakerState",
    "ChaosConfig",
    "ChaosEndpoint",
    "ChaosInjection",
    "ChaosRunner",
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultSchedule",
    "OneShotChaos",
    "RetryPolicy",
    "SoakReport",
    "Supervisor",
    "schedule_from_spec",
]


def __getattr__(name: str):
    if name in ("ChaosRunner", "SoakReport"):
        from repro.chaos import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Real-time plugin dispatch: deadline budgets, lanes, admission control.

The paper's premise is that Wasm-sandboxed RAN functions run *inside*
the slot-time budget of a live gNB.  This package is the enforcement
half of that promise:

- :mod:`repro.rt.lanes` - priority classes and the per-slot fuel-budget
  planner (SLA dispatches first and is never shed);
- :mod:`repro.rt.admission` - latency-driven admission control with
  circuit-breaker probation and half-open re-admission;
- :mod:`repro.rt.dispatcher` - the per-slot pipeline gluing both into
  the gNB's plugin-call path, enforcing budgets by fuel-cut preemption;
- :mod:`repro.rt.scenarios` (imported lazily) - flash-crowd, handover
  and mixed-SLA stress scenarios plus the standalone scenario runner.

Every decision is a deterministic function of (spec, seed, slot) - fuel,
not wall time, is the execution-time proxy - so fault/admission logs and
cluster digests stay byte-identical across runs and worker counts.
"""

from repro.rt.admission import AdmissionController, Verdict
from repro.rt.dispatcher import (
    DeadlineDispatcher,
    FuelCalibrator,
    RtCounters,
    RtDecision,
    RtPolicy,
    RtRequest,
)
from repro.rt.lanes import (
    DEFAULT_LANES,
    LaneSpec,
    LaneTable,
    format_lanes,
    parse_lanes,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_LANES",
    "DeadlineDispatcher",
    "FuelCalibrator",
    "LaneSpec",
    "LaneTable",
    "RtCounters",
    "RtDecision",
    "RtPolicy",
    "RtRequest",
    "Verdict",
    "format_lanes",
    "parse_lanes",
]

"""The two-level slice scheduler (paper §4A).

The gNB runs an *inter-slice* scheduler every slot, dividing the carrier's
PRBs among slices (each slice is an MVNO), then hands each slice's share to
that slice's *intra-slice* scheduler together with the slice's UE list
(channel quality, buffer status, long-term throughput).  The intra-slice
scheduler returns per-UE grants, which the resource allocator executes.

Intra-slice schedulers come in two flavours with the same interface:

- native Python implementations in :mod:`repro.sched.intra` (Round Robin,
  Proportional Fair, Maximum Throughput) - the baselines;
- Wasm plugins hosted via :mod:`repro.abi` - the WA-RAN way.

The inter-slice policy in :mod:`repro.sched.inter` is target rate (token
bucket, the paper's "MVNOs with target cumulative DL rates").
"""

from repro.sched.types import UeGrant, UeSchedInfo, validate_grants
from repro.sched.intra import (
    IntraSliceScheduler,
    MaximumThroughputScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    make_intra_scheduler,
)
from repro.sched.inter import InterSliceScheduler, TargetRateInterSlice

__all__ = [
    "UeSchedInfo",
    "UeGrant",
    "validate_grants",
    "IntraSliceScheduler",
    "RoundRobinScheduler",
    "ProportionalFairScheduler",
    "MaximumThroughputScheduler",
    "make_intra_scheduler",
    "InterSliceScheduler",
    "TargetRateInterSlice",
]

"""Multi-process scale-out for the WA-RAN testbed.

One near-RT RIC, many gNB shards: a :class:`ClusterCoordinator` spawns N
shared-nothing :mod:`cell workers <repro.cluster.worker>` - separate
processes talking TCP loopback, or inline for deterministic
single-process runs - each hosting a subset of the cells with its own
Wasm plugins on ``spec.engine`` (unset: ``REPRO_WASM_ENGINE``, else aot)
and (optional) chaos schedule.  Workers
coalesce per-slot KPM indications into a **batched E2 uplink** with a
bounded queue and explicit backpressure counters; the coordinator
demultiplexes the batches for the RIC, captures its control actions, and
merges every worker's metrics snapshot into one aggregate exposition.

Sharding never changes the physics: each cell is a pure function of
``(spec, cell_id)``, so aggregate scheduled-bytes and fault-log digests
are byte-identical across runs *and* across worker counts (see
``docs/SCALING.md``).  Entry points: ``repro scale`` on the CLI,
:func:`run_cluster` and :func:`run_sweep` from code, and
``benchmarks/bench_cluster.py`` for the scaling figure.
"""

from __future__ import annotations

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterError,
    ClusterReport,
    WorkerFailed,
    run_cluster,
)
from repro.cluster.loadgen import run_sweep, sweep_specs
from repro.cluster.shard import CellShard, build_cell
from repro.cluster.spec import ClusterSpec, cell_name, stable_seed
from repro.cluster.worker import run_worker

__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterReport",
    "ClusterSpec",
    "CellShard",
    "WorkerFailed",
    "build_cell",
    "cell_name",
    "run_cluster",
    "run_sweep",
    "run_worker",
    "stable_seed",
    "sweep_specs",
]

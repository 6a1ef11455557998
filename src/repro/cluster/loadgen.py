"""The cluster load generator: sweep cells x workers.

Drives :func:`~repro.cluster.coordinator.run_cluster` over a grid of
configurations derived from one base spec, checking on the way that the
aggregate results (scheduled-bytes and fault-log digests) are invariant
under the worker count - the cluster's core determinism claim - and
returning one flat list of reports for the benchmark/CLI layer to table
or serialise.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Sequence

from repro.cluster.coordinator import ClusterError, ClusterReport, run_cluster
from repro.cluster.spec import ClusterSpec


#: the metro deployment target: one worker pool scheduling a city's
#: worth of cells.  The scale-out roadmap grows sweeps toward this.
METRO_CELLS = 64
METRO_UES = 256


#: worker processes of a metro run
METRO_WORKERS = 4


def metro_spec(slots: int = 200) -> ClusterSpec:
    """The 64-cell "metro" spec: the largest supported deployment shape.

    Comes with a generous deadline so CI-class machines finish.  Digest
    invariance applies unchanged: a metro run at any worker count must
    agree with ``workers=1``.
    """
    return ClusterSpec(
        workers=METRO_WORKERS,
        cells=METRO_CELLS,
        ues=METRO_UES,
        slots=slots,
        mode="proc",
        timeout_s=1800.0,
    )


def sweep_specs(
    base: ClusterSpec,
    workers: Sequence[int] = (1, 2, 4),
    cells: Sequence[int] | None = None,
) -> Iterator[ClusterSpec]:
    """Yield the cells x workers grid around ``base``.

    ``None`` for ``cells`` keeps the base value; worker counts larger than
    the cell count are skipped (an idle worker measures nothing).
    """
    for n_cells in cells if cells is not None else (base.cells,):
        for n_workers in workers:
            if n_workers > n_cells:
                continue
            yield replace(base, workers=n_workers, cells=n_cells)


def run_sweep(
    base: ClusterSpec,
    workers: Sequence[int] = (1, 2, 4),
) -> list[ClusterReport]:
    """Run ``base`` at each worker count and verify worker-count invariance.

    Every run must produce the same scheduled-bytes and fault-log digests
    - a mismatch raises :class:`ClusterError`, because it means sharding
    changed the physics.
    """
    reports: list[ClusterReport] = []
    expected = None
    for spec in sweep_specs(base, workers=workers):
        report = run_cluster(spec)
        reports.append(report)
        observed = (report.bytes_digest, report.fault_digest, report.delivered_bytes)
        expected = expected or observed
        if observed != expected:
            raise ClusterError(
                f"aggregate results changed with the worker count at "
                f"cells={spec.cells} ues={spec.ues} "
                f"workers={spec.workers}: bytes digest "
                f"{observed[0][:12]} != {expected[0][:12]} or fault "
                f"digest {observed[1][:12]} != {expected[1][:12]}"
            )
    return reports

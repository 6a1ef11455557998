"""The cluster load generator: sweep cells x UEs x workers.

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


def metro_spec(
    workers: int = 4,
    slots: int = 200,
    mode: str = "proc",
) -> ClusterSpec:
    """The 64-cell "metro" spec: the largest supported deployment shape.

    Comes with a generous deadline so CI-class machines finish.  Digest
    invariance applies unchanged: a metro run at any worker count must
    agree with ``workers=1``.
    """
    return ClusterSpec(
        workers=workers,
        cells=METRO_CELLS,
        ues=METRO_UES,
        slots=slots,
        mode=mode,
        timeout_s=1800.0,
    )


def sweep_specs(
    base: ClusterSpec,
    workers: Sequence[int] = (1, 2, 4),
    cells: Sequence[int] | None = None,
    ues: Sequence[int] | None = None,
) -> Iterator[ClusterSpec]:
    """Yield the cells x UEs x workers grid around ``base``.

    ``None`` for an axis keeps the base value; worker counts larger than
    the cell count are skipped (an idle worker measures nothing).
    """
    for n_cells in cells if cells is not None else (base.cells,):
        for n_ues in ues if ues is not None else (base.ues,):
            for n_workers in workers:
                if n_workers > n_cells:
                    continue
                yield replace(
                    base, workers=n_workers, cells=n_cells, ues=n_ues
                )


def run_sweep(
    base: ClusterSpec,
    workers: Sequence[int] = (1, 2, 4),
    cells: Sequence[int] | None = None,
    ues: Sequence[int] | None = None,
    check_invariance: bool = True,
    progress=None,
) -> list[ClusterReport]:
    """Run the whole grid; optionally verify worker-count invariance.

    With ``check_invariance`` every (cells, ues) group must produce the
    same scheduled-bytes and fault-log digests at every worker count -
    a mismatch raises :class:`ClusterError`, because it means sharding
    changed the physics.
    """
    reports: list[ClusterReport] = []
    digests: dict[tuple[int, int], tuple[str, str, int]] = {}
    for spec in sweep_specs(base, workers=workers, cells=cells, ues=ues):
        if progress is not None:
            progress(spec)
        report = run_cluster(spec)
        reports.append(report)
        if not check_invariance:
            continue
        group = (spec.cells, spec.ues)
        observed = (report.bytes_digest, report.fault_digest, report.delivered_bytes)
        expected = digests.setdefault(group, observed)
        if observed != expected:
            raise ClusterError(
                f"aggregate results changed with the worker count at "
                f"cells={spec.cells} ues={spec.ues} "
                f"workers={spec.workers}: bytes digest "
                f"{observed[0][:12]} != {expected[0][:12]} or fault "
                f"digest {observed[1][:12]} != {expected[1][:12]}"
            )
    return reports

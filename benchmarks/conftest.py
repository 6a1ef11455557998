"""Shared fixture and table printer for the figure/ablation benches.

Every bench prints the rows/series the corresponding paper figure reports,
then asserts the *shape* criteria from DESIGN.md §3; none of them records
or gates a timing.  Timings are recorded and compared in one place, the
slot-cost ledger (``python -m benchmarks.ledger``, docs/PERFORMANCE.md
"Making a timing claim").

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture(scope="package", autouse=True)
def telemetry_session():
    """Benches run instrumented and read their tables back from the registry.

    Telemetry is process-wide, so the fixture is scoped to this package:
    whatever pytest collects after ``benchmarks/`` gets it back the way
    the package found it.
    """
    was_enabled = obs.OBS.enabled
    obs.enable()
    obs.reset()
    yield obs.OBS
    if not was_enabled:
        obs.disable()


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)

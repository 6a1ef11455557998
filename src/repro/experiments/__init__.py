"""Experiment drivers: one module per paper figure/table.

Each driver builds its scenario from the public API, runs it, and returns
a result object with the same series/rows the paper plots; the result's
``shape_holds()`` states the figure's claims as named booleans, which
``repro figN`` exits on and ``tests/test_experiments.py`` asserts:

- :mod:`repro.experiments.fig5a` - MVNO co-existence (Fig. 5a)
- :mod:`repro.experiments.fig5b` - live scheduler swap (Fig. 5b)
- :mod:`repro.experiments.fig5c` - memory increase under a leak (Fig. 5c)
- :mod:`repro.experiments.fig5d` - plugin execution time (Fig. 5d)
- :mod:`repro.experiments.safety` - the §5D memory-safety comparison

``EXPERIMENTS.md`` records paper-vs-measured for each.
"""

from repro.experiments.fig5a import Fig5aResult, run_fig5a
from repro.experiments.fig5b import Fig5bResult, run_fig5b
from repro.experiments.fig5c import Fig5cResult, run_fig5c
from repro.experiments.fig5d import Fig5dResult, run_fig5d
from repro.experiments.safety import SafetyResult, run_safety_table

__all__ = [
    "run_fig5a",
    "run_fig5b",
    "run_fig5c",
    "run_fig5d",
    "run_safety_table",
    "Fig5aResult",
    "Fig5bResult",
    "Fig5cResult",
    "Fig5dResult",
    "SafetyResult",
]

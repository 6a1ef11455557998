"""Generative Wasm fuzzing and differential conformance (``repro.fuzz``).

The paper's safety claims (§5D) rest on the Wasm runtime faithfully
implementing MVP semantics, and the repo carries three engines (legacy,
threaded, aot) plus checkpoint/restore and in-place tier-up that must
agree instruction-for-instruction.  This package is the machinery that keeps
them honest beyond the hand-written plugin suite:

- :mod:`repro.fuzz.gen` — a seeded typed module generator: arbitrary but
  *valid* MVP modules (locals, globals, memory ops, blocks/loops/br_if,
  br_table, calls, call_indirect, i32/i64/f32/f64 arithmetic) plus a call
  plan of interesting arguments;
- :mod:`repro.fuzz.oracle` — the differential oracle: every module is
  decoded once and run through ten legs - the three engines, a tier-up
  from threaded to aot mid-plan, and six ``capture_state()`` /
  ``restore_state()`` round trips within and across engines - asserting
  identical results, trap codes, fuel and ExecStats;
- :mod:`repro.fuzz.mutate` — corrupts valid binaries to exercise the
  decoder/validator error paths: arbitrary bytes must be *classified*
  (accepted or rejected with a :class:`~repro.wasm.traps.WasmError`),
  never crash the host;
- :mod:`repro.fuzz.shrink` — minimizes a failing module + call plan to a
  small reproducer;
- :mod:`repro.fuzz.corpus` — the ``tests/wasm/corpus/`` regression-corpus
  format (JSON with WAT or hex module text) that pytest replays forever;
- :mod:`repro.fuzz.runner` — the deterministic campaign driver behind the
  ``repro fuzz`` CLI (seed, budget, time-box, digest).
"""

from repro.fuzz.corpus import CorpusCase, check_case, load_case, save_case
from repro.fuzz.gen import GenConfig, GeneratedModule, ModuleGen
from repro.fuzz.mutate import MutationCrash, classify_bytes, mutate_bytes
from repro.fuzz.oracle import CallPlan, DiffResult, differential, run_trace
from repro.fuzz.runner import FuzzReport, run_campaign
from repro.fuzz.shrink import shrink

__all__ = [
    "GenConfig",
    "GeneratedModule",
    "ModuleGen",
    "CallPlan",
    "DiffResult",
    "differential",
    "run_trace",
    "MutationCrash",
    "classify_bytes",
    "mutate_bytes",
    "CorpusCase",
    "check_case",
    "load_case",
    "save_case",
    "FuzzReport",
    "run_campaign",
    "shrink",
]

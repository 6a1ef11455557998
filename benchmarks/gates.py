"""The within-run gates, in one table.

A gate is a ratio taken inside one run, with a fixed bound: the runner's
speed cancels.  Seven rows read a ledger selftest document, the last two
time themselves here.  Prints one line per gate, exits 1 if one fails::

    python -m benchmarks.ledger --selftest
    python -m benchmarks.gates benchmarks/ledger/out/selftest.json

Re-bounding a gate means editing its row, in a change that says so.
"""

from __future__ import annotations

import gc
import json
import pathlib
import sys
import time
from dataclasses import dataclass
from math import inf
from statistics import median
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

PLUGINS = ("rr", "pf", "mt")


@dataclass(frozen=True)
class Gate:
    """``low < aggregate(numerator / denominator per workload) < high``.
    Without a denominator it bounds the numerator row itself; without
    workloads it reads every workload whose numerator row is non-zero."""

    name: str
    numerator: str
    denominator: str | None
    workloads: tuple[str, ...]
    aggregate: Callable
    low: float
    high: float
    note: str

    def ratios(self, table: dict[str, dict[str, float]]) -> dict[str, float]:
        names = self.workloads or [w for w in table if table[w].get(self.numerator)]
        return {
            w: table[w][self.numerator] / (table[w][self.denominator] if self.denominator else 1)
            for w in names
        }


GATES = (
    Gate("a warm swap decodes nothing", "swap_warm_p50_us", "swap_cold_p50_us",
         ("hot_swap",), median, -inf, 1 / 8,
         "hash + policy + instantiate, ~35x under a cold swap; 3.1x when every "
         "swap still decoded and validated"),
    Gate("the ledger still reads live lowering counters", "wasm.codecache_hit_ratio",
         None, ("hot_swap",), median, 0.25, 0.75,
         "from repro.wasm.codecache.stats(): warm swaps hit, cold ones miss; 0 or "
         "1 means stats() went blind"),
    Gate("an E2 indication is encoded by lowered code", "e2.encode_us", "gnb.step_us",
         ("ric_uplink",), median, -inf, 1 / 3,
         "the lowered pbwire encoder costs ~0.13 of a ric_uplink gnb.step; 0.5-0.7 "
         "when every message re-walked the schema"),
    Gate("the MAC stays cheap", "gnb.step_us", "channel.ue_step_us",
         ("native_floor",), median, -inf, 275,
         "a 24-UE native cell-slot, obs off, in one UE's channel steps.  2-core "
         "selftests: 303-420 (6 runs) walking the UE table three times with a TBS "
         "memo; 200-245 (7 runs) with one pass, one channel call per UE and "
         "per-MCS TBS rows"),
    Gate("compiled code is optimised", "wasm.fuel_per_us.aot", "wasm.fuel_per_us.legacy",
         (), median, 10, inf,
         "legacy, the differential oracle, stays whatever the threaded tier does; "
         "the median over the plugin workloads, as one workload's two probes can "
         "land on different host speeds.  2-core selftests: dense_cell alone read "
         "8.6-14.6 with fuel checked per batch and 7.7-16.3 checked only where "
         "effects are (13 / 15 runs); the median 9.2-10.4 and 11.3-13.3 (6 each)"),
    Gate("a cold threaded load is one static pass", "wasm.load_cold_us.threaded",
         "wasm.load_cold_us.legacy", (), median, -inf, 2.1,
         "the median over the six workloads, as a full collection lands in "
         "whichever probe crosses the gc threshold.  6 selftests a side, 2 cores: "
         "2.35-2.73 when threaded and aot lowering re-analysed each body and built "
         "the legacy lowering too; 1.66-1.72 lowering from the validator's facts"),
    Gate("plugin-call telemetry stays cheap", "obs.slot_overhead_ratio", None,
         ("sparse_metro",), median, -inf, 1.32,
         "the loop timed with telemetry on and off.  11 alternated selftests a "
         "side, 2 cores: one record per call and slot built on read 1.14-1.31 "
         "(median 1.22); the slot's span and series eager 1.20-1.70 (median "
         "1.26), which this bound passes - a 1 s selftest spreads too wide for a "
         "bound between the two medians"),
    Gate("decoding is linear in module size", "decode_us_per_instr_384k",
         "decode_us_per_instr_24k", ("decode",), median, -inf, 2,
         "interleaved, best of three, N x (i32.const 1; drop) with a data section "
         "after the code; 2 cores: 1.1-1.4 with every LEB read bounded by its "
         "section end; 4.0-4.9 when each read copied the module up to it"),
    Gate("a cold load decodes at table speed", "decode_validate_us",
         "legacy_lowering_us", PLUGINS, max, -inf, 5,
         "worst of rr / pf / mt, best of five.  6 runs a side, 2 cores: 6.55-7.41 "
         "with a per-instruction reader object, string dispatch and an OpInfo "
         "read plus one pop call per operand; 2.96-3.89 reading per-opcode rows "
         "with one-byte LEB128s in line and fixed-shape rows in one slice compare"),
)


def document_rows(doc: dict) -> dict[str, dict[str, float]]:
    """Workload -> row -> value, both sections of the document's first set."""
    return {
        name: {**workload["end_to_end"], **workload["per_layer"]}
        for name, workload in doc["sets"][0].items()
    }


def timed_rows() -> dict[str, dict[str, float]]:
    """The rows of the last two gates, timed here with gc off."""
    from repro.plugins import plugin_wasm
    from repro.wasm import decode_module, validate_module
    from repro.wasm.interpreter import prepared_for
    from repro.wasm.leb128 import encode_u

    def module(pairs: int) -> bytes:
        body = b"\x00" + b"\x41\x01\x1a" * pairs + b"\x0b"
        code = b"\x01" + encode_u(len(body)) + body
        data = b"\x01\x00\x41\x00\x0b\x02hi"
        return (b"\x00asm\x01\x00\x00\x00" + b"\x01\x04\x01\x60\x00\x00"
                + b"\x03\x02\x01\x00" + b"\x05\x03\x01\x00\x01"
                + b"\x0a" + encode_u(len(code)) + code
                + b"\x0b" + encode_u(len(data)) + data)

    best = {8192: inf, 131072: inf}  # 24 KB, 384 KB
    rows: dict[str, dict[str, float]] = {}
    gc.disable()
    try:
        for _ in range(3):
            for pairs in best:
                raw = module(pairs)
                start = time.perf_counter()
                decode_module(raw)
                us = (time.perf_counter() - start) * 1e6 / (2 * pairs + 1)
                best[pairs] = min(best[pairs], us)
        for kind in PLUGINS:
            raw = plugin_wasm(kind)
            check = lower = inf
            for _ in range(5):
                start = time.perf_counter()
                decoded = decode_module(raw)
                validate_module(decoded)
                mid = time.perf_counter()
                for code in decoded.codes:
                    prepared_for(code)
                check = min(check, mid - start)
                lower = min(lower, time.perf_counter() - mid)
            rows[kind] = {"decode_validate_us": check * 1e6, "legacy_lowering_us": lower * 1e6}
    finally:
        gc.enable()
    rows["decode"] = {"decode_us_per_instr_24k": best[8192], "decode_us_per_instr_384k": best[131072]}
    return rows


def failed(table: dict[str, dict[str, float]]) -> list[str]:
    """Print one line per gate; return the names of those that fail."""
    names = []
    for gate in GATES:
        ratios = gate.ratios(table)
        value = gate.aggregate(ratios.values())
        ok = gate.low < value < gate.high
        row = gate.numerator + (f" / {gate.denominator}" if gate.denominator else "")
        each = f"{ {w: round(r, 3) for w, r in ratios.items()} } " if len(ratios) > 1 else ""
        print(f"{'PASS' if ok else 'FAIL'} {gate.name}: {row} {value:.4g} {each}"
              f"(bound {gate.low:g} < x < {gate.high:g})")
        if not ok:
            names.append(gate.name)
    return names


def main(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        table = document_rows(json.load(f)) | timed_rows()
    return 1 if failed(table) else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

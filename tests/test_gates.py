"""The gate table fails when it should: a planted selftest document.

The document below, cut to the rows the gates read, and ``TIMED``, the
rows the last two gates time in process, pass every gate.  Pushing one
gate's numerator past its bound in every workload it reads must fail
that gate and no other.
"""

import copy
import math

import pytest

from benchmarks.gates import GATES, document_rows, failed

COLD_LOAD = {"wasm.load_cold_us.threaded": 1000.0, "wasm.load_cold_us.legacy": 560.0}
FUEL = {"wasm.fuel_per_us.aot": 52.9, "wasm.fuel_per_us.legacy": 3.5}
# native workloads run no plugin: no aot fuel rate to divide
NATIVE = {"wasm.fuel_per_us.aot": 0.0, "wasm.fuel_per_us.legacy": 0.0}

DOCUMENT = {"sets": [{
    "dense_cell": {"end_to_end": {}, "per_layer": {**FUEL, **COLD_LOAD}},
    "flash_crowd": {"end_to_end": {}, "per_layer": {**FUEL, **COLD_LOAD}},
    "hot_swap": {
        "end_to_end": {"swap_warm_p50_us": 41.0, "swap_cold_p50_us": 1430.0},
        "per_layer": {"wasm.codecache_hit_ratio": 0.52, **FUEL, **COLD_LOAD},
    },
    "native_floor": {"end_to_end": {}, "per_layer": {
        "gnb.step_us": 68.0, "channel.ue_step_us": 0.31, **NATIVE, **COLD_LOAD}},
    "ric_uplink": {"end_to_end": {}, "per_layer": {
        "e2.encode_us": 20.7, "gnb.step_us": 160.0, **NATIVE, **COLD_LOAD}},
    "sparse_metro": {"end_to_end": {}, "per_layer": {
        "obs.slot_overhead_ratio": 1.22, **FUEL, **COLD_LOAD}},
}]}

TIMED = {
    "decode": {"decode_us_per_instr_24k": 0.52, "decode_us_per_instr_384k": 0.66},
    "rr": {"decode_validate_us": 700.0, "legacy_lowering_us": 205.0},
    "pf": {"decode_validate_us": 760.0, "legacy_lowering_us": 240.0},
    "mt": {"decode_validate_us": 810.0, "legacy_lowering_us": 262.0},
}


def table(gate=None) -> dict[str, dict[str, float]]:
    """What ``python -m benchmarks.gates`` checks; with ``gate``, that
    gate's numerator planted just past its bound."""
    doc, timed = copy.deepcopy(DOCUMENT), copy.deepcopy(TIMED)
    if gate is not None:
        bad = gate.high * 1.01 if math.isfinite(gate.high) else gate.low * 0.99
        rows = document_rows(doc) | timed
        for name in gate.ratios(rows):
            section = timed.get(name) or next(
                s for s in doc["sets"][0][name].values() if gate.numerator in s
            )
            section[gate.numerator] = bad * (rows[name][gate.denominator] if gate.denominator else 1)
    return document_rows(doc) | timed


def test_nothing_planted_passes_every_gate():
    assert failed(table()) == []


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name.replace(" ", "_"))
def test_a_planted_row_fails_its_gate_alone(gate):
    assert failed(table(gate)) == [gate.name]

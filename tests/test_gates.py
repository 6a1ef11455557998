"""The gate table fails when it should: a planted selftest document.

The document below, cut to the rows the gates read, and ``TIMED``, the
rows the last seven gates time in process, pass every gate.  Pushing one
gate's numerator past its bound in every workload it reads must fail
that gate and no other, except a gate that bounds the same row another
way (a warm swap is bounded as such and against a cold one).
"""

import copy
import math

import pytest

from benchmarks.gates import GATES, document_rows, failed

FUEL = {"wasm.fuel_per_us.aot": 52.9, "wasm.fuel_per_us.legacy": 3.5}
# native workloads run no plugin: no aot fuel rate to divide
NATIVE = {"wasm.fuel_per_us.aot": 0.0, "wasm.fuel_per_us.legacy": 0.0}

DOCUMENT = {"sets": [{
    "dense_cell": {"end_to_end": {}, "per_layer": {**FUEL}},
    "flash_crowd": {"end_to_end": {}, "per_layer": {**FUEL}},
    "hot_swap": {
        "end_to_end": {"swap_warm_p50_us": 41.0, "swap_cold_p50_us": 1430.0},
        "per_layer": {"wasm.codecache_hit_ratio": 0.52, **FUEL},
    },
    "native_floor": {"end_to_end": {}, "per_layer": {
        "gnb.step_us": 68.0, "channel.ue_step_us": 0.31, **NATIVE}},
    "ric_uplink": {"end_to_end": {}, "per_layer": {
        "e2.encode_us": 20.7, "gnb.step_us": 160.0, **NATIVE}},
    "sparse_metro": {"end_to_end": {}, "per_layer": {**FUEL}},
}]}

TIMED = {
    "decode": {"decode_us_per_instr_24k": 0.52, "decode_us_per_instr_384k": 0.66},
    "rr": {"decode_validate_us": 700.0, "legacy_lowering_us": 205.0,
           "threaded_load_us": 2090.0, "legacy_load_us": 1350.0},
    "pf": {"decode_validate_us": 760.0, "legacy_lowering_us": 240.0,
           "threaded_load_us": 1750.0, "legacy_load_us": 1120.0},
    "mt": {"decode_validate_us": 810.0, "legacy_lowering_us": 262.0,
           "threaded_load_us": 1670.0, "legacy_load_us": 1030.0},
    "telemetry": {"span_disabled_site_us": 0.35, "cluster_traced_over_plain": 1.62,
                  "call_obs_on_over_off": 1.22, "slot_obs_on_over_off": 1.23},
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
    same_row = {g.name for g in GATES if g.numerator == gate.numerator}
    failures = failed(table(gate))
    assert gate.name in failures and set(failures) <= same_row, failures

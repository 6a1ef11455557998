"""The regression corpus: minimized reproducers pytest replays forever.

Each case is one JSON file under ``tests/wasm/corpus/``:

```json
{
  "name": "i32-div-overflow",
  "note": "INT_MIN / -1 must trap with code 'overflow'",
  "wat": "(module ...)"            // or "wasm_hex": "0061736d01..."
  "fuel": 25000,
  "mode": "diff",                  // "diff" (default) or "classify"
  "calls": [["f0", [-2147483648, -1]]],
  "expect": [["trap", "overflow"]]
}
```

``diff`` cases run the call plan under **every** engine and compare each
outcome against ``expect`` (values use strict JSON: non-finite floats are
the strings ``"nan"``/``"inf"``/``"-inf"``; a ``"nan"`` expectation only
checks NaN-ness).  ``classify`` cases (saved from mutation-crash findings)
assert :func:`repro.fuzz.mutate.classify_bytes` classifies the bytes
without a host crash.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.oracle import CallPlan, DEFAULT_FUEL
from repro.wasm.instance import Instance, Store
from repro.wasm.decoder import decode_module
from repro.wasm.traps import Trap


def encode_value(value):
    """JSON-safe encoding of one call argument or result."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def decode_value(value):
    if value == "nan":
        return math.nan
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return value


def _values_match(expected, actual) -> bool:
    if isinstance(expected, float) and math.isnan(expected):
        return isinstance(actual, float) and math.isnan(actual)
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or actual is None:
            return False
        if isinstance(actual, float) and math.isnan(actual):
            return False
        return float(expected) == float(actual) and (
            math.copysign(1.0, float(expected))
            == math.copysign(1.0, float(actual))
        )
    return expected == actual


@dataclass
class CorpusCase:
    """One replayable reproducer."""

    name: str
    wasm: bytes
    calls: CallPlan = field(default_factory=list)
    expect: list = field(default_factory=list)  # [kind, payload] per call
    fuel: int = DEFAULT_FUEL
    note: str = ""
    mode: str = "diff"  # "diff" | "classify"
    wat: str | None = None  # original text, kept for readability


def expected_outcomes(wasm: bytes, calls: CallPlan) -> list:
    """Compute a case's ``expect`` list under the legacy (reference) engine.

    Values are raw (decoded) Python values; :func:`save_case` JSON-encodes
    them on the way to disk.
    """
    instance = Instance(decode_module(wasm), store=Store(), engine="legacy")
    expect = []
    for name, args in calls:
        try:
            value = instance.call(name, *args, fuel=DEFAULT_FUEL)
            expect.append(["ok", value])
        except Trap as trap:
            expect.append(["trap", trap.code])
    return expect


def load_case(path: str | Path) -> CorpusCase:
    path = Path(path)
    raw = json.loads(path.read_text())
    if "wat" in raw:
        from repro.wasm.wat import assemble

        wasm = assemble(raw["wat"])
    else:
        wasm = bytes.fromhex(raw["wasm_hex"])
    calls = [
        (name, tuple(decode_value(a) for a in args))
        for name, args in raw.get("calls", [])
    ]
    expect = [
        [kind, decode_value(payload)] for kind, payload in raw.get("expect", [])
    ]
    return CorpusCase(
        name=raw.get("name", path.stem),
        wasm=wasm,
        calls=calls,
        expect=expect,
        fuel=raw.get("fuel", DEFAULT_FUEL),
        note=raw.get("note", ""),
        mode=raw.get("mode", "diff"),
        wat=raw.get("wat"),
    )


def save_case(path: str | Path, case: CorpusCase) -> None:
    raw: dict = {"name": case.name, "note": case.note, "mode": case.mode}
    if case.wat is not None:
        raw["wat"] = case.wat
    else:
        raw["wasm_hex"] = case.wasm.hex()
    raw["fuel"] = case.fuel
    raw["calls"] = [
        [name, [encode_value(a) for a in args]] for name, args in case.calls
    ]
    raw["expect"] = [
        [kind, encode_value(payload)] for kind, payload in case.expect
    ]
    Path(path).write_text(json.dumps(raw, indent=2, allow_nan=False) + "\n")


def check_case(case: CorpusCase, engine: str) -> list[str]:
    """Replay one case under one engine; return mismatch descriptions."""
    if case.mode == "classify":
        from repro.fuzz.mutate import classify_bytes

        classify_bytes(case.wasm)  # raises MutationCrash on regression
        return []
    problems: list[str] = []
    instance = Instance(decode_module(case.wasm), store=Store(), engine=engine)
    for i, ((name, args), expected) in enumerate(zip(case.calls, case.expect)):
        want_kind, want_payload = expected
        try:
            value = instance.call(name, *args, fuel=case.fuel)
            got_kind, got_payload = "ok", value
        except Trap as trap:
            got_kind, got_payload = "trap", trap.code
        if want_kind != got_kind:
            problems.append(
                f"{case.name}[{i}] {name}: expected {want_kind}"
                f"({want_payload!r}), got {got_kind}({got_payload!r})"
            )
        elif want_kind == "trap":
            if want_payload != got_payload:
                problems.append(
                    f"{case.name}[{i}] {name}: expected trap code "
                    f"{want_payload!r}, got {got_payload!r}"
                )
        elif not _values_match(want_payload, got_payload):
            problems.append(
                f"{case.name}[{i}] {name}: expected {want_payload!r}, "
                f"got {got_payload!r}"
            )
    return problems


def corpus_paths(directory: str | Path) -> list[Path]:
    return sorted(Path(directory).glob("*.json"))

"""Self-tests of the ledger benchmark (outside tier-1; run with
``PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q``).

The subprocess tests run every workload at ``--tiny`` size, so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.ledger import spans
from benchmarks.ledger.compare import EXACT_LAYER, verdict
from benchmarks.ledger.hostclock import REF_KERNEL_S, HostClock
from benchmarks.ledger.run import Measured, summarise
from benchmarks.ledger.workloads import Block

LEDGER = pathlib.Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_tiny(workload: str, trace: int, seed: int = 7) -> dict:
    """One tiny single run; returns its detail document plus result line."""
    done = subprocess.run(
        [
            sys.executable, str(LEDGER / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny",
        ],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads((LEDGER / "out" / f"{workload}.trace{trace}.json").read_text())
    doc["line"] = json.loads(done.stdout.strip().splitlines()[-1])
    return doc


def test_names_and_units_fit_the_contract():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in CONTRACT[key]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for key in ("end_to_end", "per_layer"):
        for metric in CONTRACT[key]:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_every_declared_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = run_tiny(workload, trace)["line"]
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in CONTRACT[key]}
        for metric in CONTRACT[key]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == 0:
            assert all(v["value"] > 0 for v in line["metrics"].values())


def test_exact_counts_repeat_with_the_seed_and_change_with_it():
    first, again, other = (
        run_tiny("flash_crowd", 1, seed) for seed in (7, 7, 8)
    )
    for name in EXACT_LAYER:
        assert first["values"][name] == again["values"][name], name
    assert first["prefix"] == again["prefix"]
    digests = [
        doc["prefix"]["steady"]["digest"] for doc in (first, other)
    ]
    assert digests[0] != digests[1]


def test_span_self_times_sum_to_their_parent():
    rec = spans.SpanRecorder()
    with rec.span("slot"):
        with rec.span("step"):
            with rec.span("call"):
                pass
            with rec.span("call"):
                pass
        with rec.span("node"):
            pass
    durations = spans.durations_ns(rec.spans)
    own = spans.self_times_ns(rec.spans)
    for index, span in enumerate(rec.spans):
        children = [
            durations[i] for i, s in enumerate(rec.spans) if s[spans.PARENT] == index
        ]
        assert own[index] + sum(children) == durations[index]
    assert sum(own) == durations[0]  # the tree's self times add up to the root
    assert spans.by_name(rec.spans, own).keys() == {"slot", "step", "call", "node"}


def test_normaliser_is_exact_on_a_synthetic_2x_slowdown():
    """A host that halves its speed doubles both the kernel and the work:
    the normalised numbers must not move at all."""

    def measured_at(slowdown: float) -> Measured:
        now = [0.0]

        def kernel():
            now[0] += REF_KERNEL_S * slowdown

        clock = HostClock(kernel=kernel, timer=lambda: now[0])
        m = Measured(None, clock)
        clock.tick()
        for _ in range(4):
            m.blocks.append(
                Block(
                    wall_ns=int(1e9 * slowdown),
                    units={"cell_slots": 100},
                    samples={"slot": [int(1e6 * slowdown * k) for k in (1, 2, 3)]},
                )
            )
            m.at.append(clock.blocks)
            clock.tick()
        return m

    fast, slow = summarise(measured_at(1.0)), summarise(measured_at(2.0))
    for key in ("rate.cell_slots", "p50.slot", "p99.slot"):
        assert slow[key] == pytest.approx(fast[key], rel=1e-12)
        assert slow[f"raw.{key}"] != pytest.approx(fast[f"raw.{key}"], rel=0.1)
    assert fast["rate.cell_slots"] == pytest.approx(100.0)
    assert fast["p50.slot"] == pytest.approx(2000.0)


def test_compare_verdicts():
    assert verdict([100, 101, 99], [103, 104, 102], "lower", 0.05)[3] == "ok"
    assert verdict([100, 101, 99], [110, 111, 109], "lower", 0.05)[3] == "regressed"
    assert verdict([100, 130, 70], [104, 100, 108], "lower", 0.05)[3] == "unresolved"
    # too wide to settle by medians, but every B run beats every A run
    assert verdict([100, 130, 70], [50, 60, 40], "lower", 0.05)[3] == "ok"
    assert verdict([100, 101, 99], [90, 91, 89], "higher", 0.05)[3] == "regressed"

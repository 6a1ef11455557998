"""Telemetry pinned by value.

A short telemetry-on workload - a three-slice plugin cell, one
chaos-injected call and one rt-budgeted call - and everything it leaves
in the telemetry that does not depend on how long anything took:

- every counter and gauge value;
- every integer histogram snapshot (fuel, frames, call depth, stack);
- the count of every timing histogram (``*_us``);
- the ``trace_digest`` of the spans, and each span's ``children_us`` keys;
- every flight record except ``elapsed_us``;
- the event log without its clock reading and float fields.

The clock is a fixed-step stand-in for ``time.perf_counter_ns`` (each
read is 0.4 slot later than the last), so every plugin call spans three
steps - encode, invoke, decode - and overruns the slot deterministically:
the deadline-miss path is pinned too.  The constants were taken on the
commit before each plugin call and each slot became one record built on
read; a change that moves what a reader sees fails here.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro import obs
from repro.abi import SchedulerPlugin, wire
from repro.abi.host import PluginError
from repro.channel import MarkovCqiChannel
from repro.chaos.schedule import ChaosInjection, OneShotChaos
from repro.gnb import GnbHost, SliceRuntime, UeContext
from repro.obs import OBS, EventLog, FlightRecorder, MetricsRegistry, Tracer
from repro.obs import trace_digest
from repro.plugins import SCHEDULER_PLUGINS, plugin_wasm
from repro.sched import UeSchedInfo
from repro.traffic import CbrSource
from repro.wasm import codecache

PINS = {
    "counters": "6dd496ae0874a706fbd3e2b12e3cbb0776c5a4bfaf9acb27bd029d3710526d61",
    "integer_histograms": "cb798f214adfad8ce82e914f078af4198bfecb943bc399f35db1861683ff26c1",
    "timing_counts": "c7c5915a38873b78ca01707f931714ce33703eb71eb72f32741fc666a1d8410c",
    "trace": "c6f86763f93b879b30ea09bb7830e8bd9aeaea2bb82768dc21f99e26b3a7adb8",
    "children": "9ab6c69eb4a7fc605ce4fabd2a0a105b330fef770ca4f7d28c0ba60d8bb27649",
    "flight": "ebe55b21ec6f9de0cb5c74b46b6273eef49698b2e84aa8d08e5d4cc91ef6082f",
    "events": "84f88667ae80ef03e3f7380b1a9bf0bc2c5ddd172428c9990dc55932a4339b5d",
}

SLOTS = 40


class _SteppedClock:
    """Each read is ``step_ns`` after the last."""

    def __init__(self, step_ns: int):
        self.step_ns = step_ns
        self.now = 10**9

    def __call__(self) -> int:
        self.now += self.step_ns
        return self.now


def _sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _payload(slot: int) -> bytes:
    return wire.pack_sched_input(
        slot, 52, [UeSchedInfo(i + 1, 10 + i, 9, 40_000, 2e6) for i in range(3)]
    )


def _workload() -> None:
    gnb = GnbHost()
    for sid, kind in enumerate(SCHEDULER_PLUGINS, start=1):
        runtime = gnb.add_slice(SliceRuntime(sid, kind))
        runtime.use_plugin(
            SchedulerPlugin.load(plugin_wasm(kind), name=kind, engine="aot")
        )
        for u in range(2):
            gnb.attach_ue(
                UeContext(
                    sid * 10 + u, sid,
                    MarkovCqiChannel(initial_cqi=6 + 3 * u, p_step=0.3,
                                     seed=sid * 10 + u),
                    CbrSource(rate_bps=(2 + sid + u) * 1e6),
                )
            )
    for slot in range(SLOTS):
        if slot == SLOTS // 2:
            gnb.slices[1].plugin.host.promote()
        gnb.step()
    chaos = SchedulerPlugin.load(
        plugin_wasm("pf"), name="chaos", engine="aot",
        chaos=OneShotChaos(ChaosInjection("fuel_cut", "chaos", 1, a=7)),
    )
    with pytest.raises(PluginError):
        chaos.host.call(_payload(0))
    budgeted = SchedulerPlugin.load(
        plugin_wasm("mt"), name="budgeted", engine="aot"
    )
    with pytest.raises(PluginError):
        budgeted.host.call(
            _payload(1), fuel=60, rt={"lane": "sla", "verdict": "dispatch"}
        )
    budgeted.host.call(_payload(2), fuel=500_000, rt={"lane": "be"})


def _sections() -> dict[str, str]:
    metrics = OBS.registry.to_json()
    counters, integers, timings = {}, {}, {}
    for name, family in metrics.items():
        for series in family["series"]:
            key = f"{name}{sorted(series['labels'].items())}"
            if family["type"] != "histogram":
                counters[key] = series["value"]
            elif name.endswith("_us"):
                timings[key] = series["count"]
            else:
                integers[key] = series
    spans = OBS.tracer.to_json()
    flight = OBS.flight.to_json(max_bytes=1 << 20)
    for record in flight:
        del record["elapsed_us"]
    events = [
        {
            k: v for k, v in event.items()
            if k != "ts_ns" and not isinstance(v, float)
        }
        for event in OBS.events.to_json()
    ]
    return {
        "counters": _sha(counters),
        "integer_histograms": _sha(integers),
        "timing_counts": _sha(timings),
        "trace": trace_digest(spans),
        "children": _sha(
            [(s["name"], sorted(s.get("children_us", {}))) for s in spans]
        ),
        "flight": _sha(flight),
        "events": _sha(events),
    }


@pytest.fixture
def pinned_telemetry(monkeypatch):
    for kind in SCHEDULER_PLUGINS:
        plugin_wasm(kind)  # compiled once per process, before the clock
    codecache.clear()  # no heat or compiled bodies from earlier tests
    was_enabled = OBS.enabled
    monkeypatch.setattr(OBS, "registry", MetricsRegistry())
    monkeypatch.setattr(OBS, "tracer", Tracer(enabled=True))
    monkeypatch.setattr(OBS, "flight", FlightRecorder())
    monkeypatch.setattr(OBS, "events", EventLog())
    obs.enable()
    slot_ns = int(GnbHost().carrier.slot_duration_s * 1e9)
    monkeypatch.setattr(time, "perf_counter_ns", _SteppedClock(slot_ns * 2 // 5))
    yield
    (obs.enable if was_enabled else obs.disable)()
    codecache.clear()


def test_telemetry_of_a_short_workload_is_pinned(pinned_telemetry):
    _workload()
    assert _sections() == PINS


def test_the_workload_reaches_every_record_kind(pinned_telemetry):
    _workload()
    kinds = {event["kind"] for event in OBS.events.to_json()}
    assert {
        "plugin.promote", "gnb.deadline_miss", "chaos.inject", "plugin.fuel",
        "plugin.deadline",
    } <= kinds
    outcomes = {record.outcome for record in OBS.flight.records()}
    assert outcomes == {"ok", "fuel", "deadline"}
    names = {span.name for span in OBS.tracer.finished()}
    assert names == {"gnb.step", "plugin.call"}
    assert len(OBS.flight) == 3 * SLOTS + 3

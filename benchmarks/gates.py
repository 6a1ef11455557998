"""The within-run gates, in one table.

A gate is a ratio taken inside one run, with a fixed bound: the runner's
speed cancels (a sub-microsecond or sub-slot budget is bounded as is).
Four rows read a ledger selftest document, nine time themselves here.
Prints one line per gate, exits 1 if one fails::

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
    Gate("a warm swap leaves half the slot free", "swap_warm_p50_us", None,
         ("hot_swap",), median, -inf, 500,
         "Fig. 5b's live swap between binaries the process has run: the median "
         "warm swap must leave half of a 1000 us slot to the scheduling pass "
         "after it.  5 selftests, 2 cores: 49-76"),
    Gate("the ledger still reads live lowering counters", "wasm.codecache_hit_ratio",
         None, ("hot_swap",), median, 0.25, 0.75,
         "from repro.wasm.codecache.stats(): warm swaps hit, cold ones miss; 0 or "
         "1 means stats() went blind"),
    Gate("an E2 indication is encoded by lowered code", "encode_over_step", None,
         ("ric_uplink",), median, -inf, 1 / 3,
         "one KPM indication's vendor encode over one gnb.step of the ric_uplink "
         "cell set (8 native cells, obs on), the median of 100 alternated pairs "
         "of blocks in thread CPU time.  Read off a 1 s ledger selftest as "
         "e2.encode_us / gnb.step_us: ~0.13 with the lowered pbwire encoder, "
         "0.5-0.7 when every message re-walked the schema, and 0.160-0.380 over "
         "five selftests of one tree, failing this bound once.  Timed here, 2 "
         "cores: 0.186-0.190 (5 runs)"),
    Gate("the MAC stays cheap", "step_over_ue_step", None,
         ("native_floor",), median, -inf, 275,
         "a 24-UE native cell-slot, obs off, in one UE's channel steps: one "
         "gnb.step of the native_floor cell set over one MarkovCqiChannel step + "
         "mcs, the median of 100 alternated pairs of blocks in thread CPU time.  "
         "Read off 1 s ledger selftests as gnb.step_us / channel.ue_step_us: "
         "303-420 (6 runs) walking the UE table three times with a TBS memo; "
         "200-245 (7 runs) with one pass, one channel call per UE and per-MCS TBS "
         "rows; 208.5-315.4 over ten later rounds of unchanged code.  Timed "
         "here, 2 cores: 241.4-248.0 (5 runs)"),
    Gate("compiled code is optimised", "wasm.fuel_per_us.aot", "wasm.fuel_per_us.legacy",
         (), median, 10, inf,
         "legacy, the differential oracle, stays whatever the threaded tier does; "
         "the median over the plugin workloads, as one workload's two probes can "
         "land on different host speeds.  2-core selftests: dense_cell alone read "
         "8.6-14.6 with fuel checked per batch and 7.7-16.3 checked only where "
         "effects are (13 / 15 runs); the median 9.2-10.4 and 11.3-13.3 (6 each)"),
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
    Gate("a cold threaded load is one static pass", "threaded_load_us",
         "legacy_load_us", PLUGINS, median, -inf, 2.1,
         "load_module + Instance of a never-seen binary (a cold_variant), the "
         "aot engine's cold start on threaded code over the same with the legacy "
         "lowering; per plugin the median of nine a side, alternated, gc off; the "
         "median of rr / pf / mt.  In the ledger selftest (SchedulerPlugin.load, "
         "the median over six workloads), 2 cores: 2.35-2.73 when threaded and "
         "aot lowering re-analysed each body and built the legacy lowering too; "
         "1.41-2.11 lowering from the validator's facts.  Timed here: 1.49-1.64 "
         "(12 runs)"),
    Gate("a disabled span site is one branch", "span_disabled_site_us", None,
         ("telemetry",), median, -inf, 2.0,
         "tracer.span() on a disabled tracer, median of five 10k-site loops: "
         "1 us a site with x2 headroom, or every untraced run pays for the "
         "instrumented hot path.  2 cores: 0.26-0.53"),
    Gate("a traced cluster run costs at most twice a plain one",
         "cluster_traced_over_plain", None, ("telemetry",), median, -inf, 2.0,
         "wall of a trace=True inline run (2 workers x 4 cells x 8 UEs x 60 "
         "slots) over the same run untraced, median of 5 alternated pairs after "
         "one untimed run a side: span shipping, stitching and attribution.  "
         "2 cores: 1.55-1.65 over 5 runs; 0.34 with the plain run the process's "
         "first, 1.7-2.1 with only the plain side warmed"),
    Gate("plugin-call telemetry stays cheap", "slot_obs_on_over_off", None,
         ("telemetry",), median, -inf, 1.32,
         "sparse_metro's slot loop (16 cells x 3 UEs, seed 7) with telemetry on "
         "over off: the median of 100 alternated pairs of 6-slot blocks in thread "
         "CPU time.  Read off a 1 s ledger selftest until the call path was cut: "
         "11 alternated selftests a side, 2 cores, 1.14-1.31 (median 1.22) with one "
         "record per call and slot built on read, 1.20-1.70 with the slot's span "
         "and series eager; 1.10-1.38 over five selftests, failing this bound "
         "once.  Timed here, 2 cores: 1.21-1.22 (2 runs) before a plugin call "
         "entered compiled code through one bound entry, 1.21-1.25 (9 runs) after: "
         "the cheaper call leaves telemetry a larger share of the slot"),
    Gate("a promoted plugin call's telemetry stays on budget", "call_obs_on_over_off",
         None, ("telemetry",), median, -inf, 1.40,
         "promoted rr, 3 UEs, obs on over obs off, median of 9 alternated "
         "200-call rounds: a 0.20 budget with x2 headroom.  2 cores: 1.14-1.30 "
         "(1.22-1.25 over 5 runs of this table; 1.30-1.35 when first measured "
         "with one record per call built on read), 1.64-1.65 when each call "
         "built its span, flight record and six observations on the spot"),
)


def document_rows(doc: dict) -> dict[str, dict[str, float]]:
    """Workload -> row -> value, both sections of the document's first set."""
    return {
        name: {**workload["end_to_end"], **workload["per_layer"]}
        for name, workload in doc["sets"][0].items()
    }


def gate_table(doc: dict, timed: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """What the gates read: the document's rows with the timed ones added
    to their workloads."""
    table = document_rows(doc)
    for workload, rows in timed.items():
        table.setdefault(workload, {}).update(rows)
    return table


def timed_rows() -> dict[str, dict[str, float]]:
    """The rows of the gates timed here, with gc off."""
    from benchmarks.ledger.workloads import cold_variant
    from repro.abi.hostfuncs import make_env
    from repro.plugins import plugin_wasm
    from repro.wasm import Instance, decode_module, load_module, validate_module
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
            loads = {"threaded": [], "legacy": []}
            for i in range(9):
                for lowering in sorted(loads, reverse=bool(i % 2)):
                    wasm, env = cold_variant(raw, "gate", f"{lowering}.{i}"), make_env()
                    start = time.perf_counter()
                    Instance(load_module(wasm), {"env": env}, validate=False, engine=lowering)
                    loads[lowering].append(time.perf_counter() - start)
            rows[kind] = {
                "decode_validate_us": check * 1e6, "legacy_lowering_us": lower * 1e6,
                "threaded_load_us": median(loads["threaded"]) * 1e6,
                "legacy_load_us": median(loads["legacy"]) * 1e6,
            }
        rows["telemetry"] = telemetry_rows()
        rows["native_floor"] = {"step_over_ue_step": mac_ratio()}
        rows["ric_uplink"] = {"encode_over_step": e2_ratio()}
    finally:
        gc.enable()
    rows["decode"] = {"decode_us_per_instr_24k": best[8192], "decode_us_per_instr_384k": best[131072]}
    return rows


def alternated(timed: Callable[[bool], float], pairs: int) -> float:
    """Median of ``timed(True) / timed(False)`` over ``pairs`` pairs,
    alternating which side goes first so a drifting host hits both alike."""
    ratios = []
    for r in range(pairs):
        first = bool(r % 2)
        t = {first: timed(first)}
        t[not first] = timed(not first)
        ratios.append(t[True] / t[False])
    return median(ratios)


def telemetry_rows() -> dict[str, float]:
    """What telemetry costs on for one promoted plugin call, off at a
    span site, and when tracing a cluster run; both sides of each timed
    in this process."""
    from dataclasses import replace

    from repro import obs
    from repro.abi import wire
    from repro.abi.host import PluginHost
    from repro.cluster import ClusterSpec, run_cluster
    from repro.obs.tracing import Tracer
    from repro.plugins import plugin_wasm
    from repro.sched import UeSchedInfo

    payload = wire.pack_sched_input(
        0, 52, [UeSchedInfo(i + 1, 20, 12, 50_000, 1e6) for i in range(3)]
    )
    hosts = {on: PluginHost(plugin_wasm("rr"), name=f"overhead-{on}") for on in (False, True)}
    for host in hosts.values():
        host.promote()  # the compiled call every slot makes

    def calls(on: bool) -> float:
        (obs.enable if on else obs.disable)()
        start = time.perf_counter()
        for _ in range(200):
            hosts[on].call(payload)
        return time.perf_counter() - start

    was_enabled = obs.OBS.enabled
    try:
        calls(False), calls(True)  # scratch allocation and handle binding, untimed
        call_ratio = alternated(calls, 9)
    finally:
        (obs.enable if was_enabled else obs.disable)()

    tracer, sites = Tracer(enabled=False), 10_000
    loops = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(sites):
            with tracer.span("site"):
                pass
        loops.append((time.perf_counter() - start) / sites * 1e6)

    spec = ClusterSpec(workers=2, cells=4, ues=8, slots=60, seed=7, mode="inline")

    def wall(traced: bool) -> float:
        start = time.perf_counter()
        run_cluster(replace(spec, trace=traced))
        return time.perf_counter() - start

    wall(False), wall(True)  # plugin loads and the first trace, untimed
    return {
        "span_disabled_site_us": median(loops),
        "cluster_traced_over_plain": alternated(wall, 5),
        "call_obs_on_over_off": call_ratio,
        "slot_obs_on_over_off": slot_ratio(),
    }


def slot_ratio() -> float:
    """``sparse_metro``'s slot loop with telemetry on over off: the median
    of 100 alternated pairs of 6-slot blocks of one cell set, each block
    timed in this thread's CPU time."""
    from benchmarks.ledger.workloads import STEADY, WORKLOADS, make_phase
    from repro import obs

    phase = make_phase(WORKLOADS["sparse_metro"], 7, STEADY, None)

    def block(on: bool) -> float:
        (obs.enable if on else obs.disable)()
        start = time.thread_time_ns()
        phase.block(6)
        return time.thread_time_ns() - start

    was_enabled = obs.OBS.enabled
    try:
        block(False), block(True)  # promotions and handle binding, untimed
        return alternated(block, 100)
    finally:
        (obs.enable if was_enabled else obs.disable)()


def mac_ratio() -> float:
    """One ``gnb.step`` of ``native_floor``'s cell set (obs off, as it ships)
    over one UE's channel step as ``gnb.step`` takes it (step + mcs): the
    median of 100 alternated pairs of blocks, each in thread CPU time per
    operation."""
    from benchmarks.ledger.workloads import STEADY, WORKLOADS, make_phase
    from repro import obs
    from repro.channel import MarkovCqiChannel

    phase = make_phase(WORKLOADS["native_floor"], 7, STEADY, None)
    gnbs = [cell.gnb for cell in phase.cells]
    channels = [
        MarkovCqiChannel(initial_cqi=7 + i % 6, p_step=0.2, seed=7 + i)
        for i in range(48)
    ]
    slots = iter(range(1 << 30))

    def block(step: bool) -> float:
        start = time.thread_time_ns()
        if step:
            for _ in range(6):
                for gnb in gnbs:
                    gnb.step()
            return (time.thread_time_ns() - start) / (6 * len(gnbs))
        for _ in range(20):
            slot = next(slots)
            for channel in channels:
                channel.step(slot)
                channel.mcs(slot)
        return (time.thread_time_ns() - start) / (20 * len(channels))

    was_enabled = obs.OBS.enabled
    obs.disable()
    try:
        block(True), block(False)  # first-use memos, untimed
        return alternated(block, 100)
    finally:
        (obs.enable if was_enabled else obs.disable)()


def e2_ratio() -> float:
    """One KPM indication's vendor encode over one ``gnb.step`` of
    ``ric_uplink``'s cell set (obs on, as it ships): the median of 100
    alternated pairs of blocks, each in thread CPU time per operation.
    The indications are the ones the cells' E2 nodes build in 6 slots."""
    from benchmarks.ledger.workloads import UPLINK, WORKLOADS, make_phase
    from repro import obs

    was_enabled = obs.OBS.enabled
    obs.enable()
    try:
        phase = make_phase(WORKLOADS["ric_uplink"], 7, UPLINK, None)
        gnbs = [cell.gnb for cell in phase.cells]
        messages: list[dict] = []
        for cell in phase.cells:
            cell.node.channel.send = lambda dest, message: messages.append(message)
        for _ in range(6):
            for cell in phase.cells:
                cell.gnb.step()
                cell.node.step()
        encode = phase.cells[0].node.channel.profile.encode

        def block(encoding: bool) -> float:
            start = time.thread_time_ns()
            if encoding:
                for message in messages:
                    encode(message)
                return (time.thread_time_ns() - start) / len(messages)
            for _ in range(6):
                for gnb in gnbs:
                    gnb.step()
            return (time.thread_time_ns() - start) / (6 * len(gnbs))

        block(True), block(False)  # the codec's first-use lowering, untimed
        return alternated(block, 100)
    finally:
        (obs.enable if was_enabled else obs.disable)()


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
        doc = json.load(f)
    return 1 if failed(gate_table(doc, timed_rows())) else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

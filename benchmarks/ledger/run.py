#!/usr/bin/env python3
"""Entry point of the slot-cost ledger.

Single run (the form ``BENCHMARK.json`` names; the last stdout line is the
result object)::

    python3 benchmarks/ledger/run.py --workload dense_cell --seed 7 \\
        --seconds 10 --trace 0

Full set (every workload, untraced then traced, one fresh subprocess
each; prints every metric by name with its unit)::

    python -m benchmarks.ledger [--seed 7] [--seconds 10] [--sets N]
    python -m benchmarks.ledger --compare A.json B.json
    python -m benchmarks.ledger --selftest
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# only the light modules here: a set-up probe times the heavy imports
from benchmarks.ledger.hostclock import (  # noqa: E402
    MAX_DROPPED_SHARE,
    HostClock,
    percentile,
    spread,
)

OUT = HERE / "out"
DEFAULT_SEED = 7  # 11 is the held-out seed: never tune against it
#: fresh-process set-ups timed per run; ``setup_s`` is their median
SETUP_PROBES = 5
#: share of ``--seconds`` each companion phase gets; the main loop gets the rest
COMPANION_SHARE = 0.15
#: untimed warm-up before a loop is measured (slots; swap events)
WARM_SLOTS, WARM_EVENTS = 10, 2


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# measuring: one shared clock, the loops interleaved block by block
# ---------------------------------------------------------------------------


class Measured:
    """The blocks of one loop, each with the index of the clock interval
    (between two kernel runs) it occupied."""

    def __init__(self, phase, clock: HostClock):
        self.phase = phase
        self.clock = clock
        self.blocks: list = []
        self.at: list[int] = []  # clock interval of each block
        self.prefix_state: dict | None = None
        self.spent_s = 0.0

    def factor(self, j: int) -> float:
        return self.clock.factor(self.at[j])

    def kept(self) -> list[int]:
        """Blocks whose bracketing kernels agree.  When more than a quarter
        disagree the host was too unsteady for the filter to mean anything
        (the run is flagged, see ``warn_if_unsteady``) and every block is
        used: the median over blocks is robust on its own."""
        kept = [j for j, i in enumerate(self.at) if self.clock.steady(i)]
        if len(self.at) - len(kept) > MAX_DROPPED_SHARE * len(self.at):
            return list(range(len(self.at)))
        return kept

    def dropped(self) -> int:
        return sum(not self.clock.steady(i) for i in self.at)


def measure(
    phases: dict, seconds: float, prefix_hooks=None, interludes=(), after_prefixes=None
) -> dict:
    """Warm every loop up, run each one's fixed prefix, then interleave
    their blocks until ``seconds`` have passed.

    Interleaving matters on a host whose speed drifts for a second or two
    at a time: every loop gets its blocks from the whole run, so a slow
    spell costs each metric a few blocks instead of costing one metric all
    of them.  The main loop gets the time the companions do not
    (``COMPANION_SHARE`` each).  ``interludes`` are callables run at even
    spacing between blocks (the set-up probes), re-bracketed afterwards.
    ``prefix_hooks`` is a ``(begin(kind), end(kind) -> dict)`` pair called
    around each loop's prefix; what ``end`` returns joins its prefix state.
    ``after_prefixes`` runs once every prefix is done - the point where the
    process has done a fixed amount of work, whatever the host's speed.
    """
    from benchmarks.ledger.workloads import SWAP

    clock = HostClock()
    measured = {kind: Measured(phase, clock) for kind, phase in phases.items()}
    main = next(iter(phases))
    share = {
        kind: COMPANION_SHARE if kind != main
        else 1.0 - COMPANION_SHARE * (len(phases) - 1)
        for kind in phases
    }
    for kind, phase in phases.items():
        phase.block(WARM_EVENTS if kind == SWAP else WARM_SLOTS)

    def one_block(kind: str) -> None:
        m = measured[kind]
        start = time.perf_counter()
        m.blocks.append(m.phase.block(m.phase.workload.block[kind]))
        m.at.append(clock.blocks)
        clock.tick()
        m.spent_s += time.perf_counter() - start

    begin = time.perf_counter()
    clock.tick()
    for kind, m in measured.items():
        if prefix_hooks is not None:
            prefix_hooks[0](kind)
        for _ in range(m.phase.workload.prefix if kind == main else 1):
            one_block(kind)
        m.prefix_state = {"digest": m.phase.digest(), "counts": m.phase.counts()}
        if prefix_hooks is not None:
            m.prefix_state.update(prefix_hooks[1](kind))
    if after_prefixes is not None:
        after_prefixes()
    pending = list(interludes)
    while (elapsed := time.perf_counter() - begin) < seconds:
        if pending and elapsed >= seconds * (
            (len(interludes) - len(pending) + 1) / (len(interludes) + 1)
        ):
            pending.pop(0)()
            clock.tick()  # the interval that held the interlude holds no block
            continue
        spent = sum(m.spent_s for m in measured.values())
        one_block(max(share, key=lambda k: share[k] * spent - measured[k].spent_s))
    for interlude in pending:
        interlude()
    for m in measured.values():
        m.phase.finish()
    return measured


def summarise(measured: Measured) -> dict[str, float]:
    """Every statistic is a median over kept blocks - of the block's rate,
    or of the block's own percentile - once normalised, once raw under a
    ``raw.`` prefix.  A host burst then spoils one block's vote, not the
    pooled tail."""
    blocks = measured.blocks
    kept = measured.kept()
    out: dict[str, float] = {
        "blocks": float(len(blocks)),
        "blocks_dropped": float(measured.dropped()),
    }
    factors = {"": [measured.factor(j) for j in kept], "raw.": [1.0] * len(kept)}
    for unit in blocks[0].units:
        per_s = [blocks[j].units[unit] / (blocks[j].wall_ns / 1e9) for j in kept]
        for label, scale in factors.items():
            out[f"{label}rate.{unit}"] = statistics.median(
                r / f for r, f in zip(per_s, scale)
            )
    for series in blocks[0].samples:
        ordered = [sorted(blocks[j].samples[series]) for j in kept]
        out[f"n.{series}"] = float(sum(map(len, ordered)))
        for q in (50, 95, 99):
            # scaling is linear, so each block's percentile is taken once
            per_block = [percentile(s, q / 100) / 1e3 if s else None for s in ordered]
            for label, scale in factors.items():
                scaled = [v * f for v, f in zip(per_block, scale) if v is not None]
                out[f"{label}p{q}.{series}"] = (
                    statistics.median(scaled) if scaled else 0.0
                )
    return out


# metric -> (loop kind that supplies it, or None for the main loop; key in
# that loop's summary).  The three tails are measured by both passes but
# declared per-layer in BENCHMARK.json: their run-to-run spread on this
# host (up to 30%) is wider than any bound the contract allows.
END_TO_END_SOURCES = {
    "cell_slots_per_s": (None, "rate.cell_slots"),
    "slot_p50_us": (None, "p50.slot"),
    "slot_p99_us": (None, "p99.slot"),
    "indications_per_s": ("uplink", "rate.indications"),
    "uplink_range_p50_us": ("uplink", "p50.range"),
    "uplink_range_p95_us": ("uplink", "p95.range"),
    "swap_warm_p50_us": ("swap", "p50.swap_warm"),
    "swap_cold_p50_us": ("swap", "p50.swap_cold"),
    "swap_cold_p95_us": ("swap", "p95.swap_cold"),
    "post_swap_slot_p50_us": ("swap", "p50.post_swap"),
}


def sourced_metrics(workload, summaries: dict) -> dict[str, float]:
    """The ``END_TO_END_SOURCES`` rows, normalised and raw, from the loop
    summaries of one pass."""
    out = {}
    for metric, (kind, key) in END_TO_END_SOURCES.items():
        summary = summaries[kind or workload.main]
        out[metric] = summary[key]
        out[f"raw.{metric}"] = summary[f"raw.{key}"]
    return out


def host_metrics(clocks: list[HostClock], cpu_s: float, wall_s: float) -> dict:
    """Run validity: how fast the host was, how much that moved, how much
    of the time the process actually had a CPU, how many blocks went."""
    factors = [c.factor(i) for c in clocks for i in range(c.blocks)]
    return {
        "host.speed_factor": statistics.median(factors),
        "host.speed_spread": spread(factors),
        "host.cpu_wall_ratio": cpu_s / wall_s,
        "host.blocks_dropped": float(
            sum(not c.steady(i) for c in clocks for i in range(c.blocks))
        ),
        "host.blocks": float(len(factors)),
    }


def phase_kinds(workload) -> list[str]:
    """The main loop first, then the companions that supply the
    end-to-end metrics the main loop does not."""
    from benchmarks.ledger.workloads import SWAP, UPLINK

    return [workload.main] + [k for k in (UPLINK, SWAP) if k != workload.main]


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------


def setup_child(args) -> int:
    """Child mode: time this process from spawn through imports, WACC
    compile, cell build and warm-up slots, between two kernel runs."""
    clock = HostClock()
    clock.tick()
    workload, engine = resolve(args)
    from benchmarks.ledger.workloads import SWAP, make_phase, set_obs

    set_obs(workload)
    phase = make_phase(workload, args.seed, workload.main, engine)
    phase.block(WARM_EVENTS if workload.main == SWAP else WARM_SLOTS)
    raw_s = (time.perf_counter_ns() - args.spawned_at) / 1e9 - clock.ticks[0]
    clock.tick()
    print(json.dumps({"raw_s": raw_s, "norm_s": raw_s * clock.factor(0)}))
    return 0


def time_fresh_setup(args) -> dict[str, float]:
    """One fresh process, timed from spawn to ready."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--spawned-at", str(time.perf_counter_ns()),
    ]
    if args.engine:
        cmd += ["--engine", args.engine]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the untraced pass: end-to-end metrics
# ---------------------------------------------------------------------------


def resolve(args):
    from repro.wasm.threaded import resolve_engine

    from benchmarks.ledger.workloads import WORKLOADS, tiny

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    return workload, resolve_engine(args.engine)


def run_untraced(args) -> dict:
    from benchmarks.ledger.workloads import make_phase, ops_of, set_obs

    setups = [time_fresh_setup(args)]
    idle = [0.0]  # wall time this process spent waiting on later probes

    def another_probe() -> None:
        start = time.perf_counter()
        setups.append(time_fresh_setup(args))
        idle[0] += time.perf_counter() - start

    def read_rss() -> None:
        # after the fixed prefixes, not at exit: how many more blocks (and
        # cold binaries in the codecache) follow depends on the host's speed
        values["peak_rss_mb"] = values["raw.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    values: dict[str, float] = {}
    workload, engine = resolve(args)
    set_obs(workload)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    measured = measure(
        {
            kind: make_phase(workload, args.seed, kind, engine)
            for kind in phase_kinds(workload)
        },
        args.seconds,
        interludes=[another_probe] * (SETUP_PROBES - 1),
        after_prefixes=read_rss,
    )
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0 - idle[0]
    values["setup_s"] = statistics.median(s["norm_s"] for s in setups)
    values["raw.setup_s"] = statistics.median(s["raw_s"] for s in setups)
    problems: list[str] = []
    attempted = failed = 0
    summaries = {kind: summarise(m) for kind, m in measured.items()}
    for kind, m in measured.items():
        done, bad = ops_of(m.phase.counts())
        attempted += done
        failed += bad
        if bad:
            problems.append(f"{kind}: {bad} failed operations {m.phase.counts()}")
    values.update(sourced_metrics(workload, summaries))
    clock = measured[workload.main].clock
    values.update(host_metrics([clock], cpu_s, wall_s))
    warn_if_unsteady(values)
    problems += check_variants(measured)
    problems += legacy_oracle(workload, args.seed, measured[workload.main].phase)
    write_samples(workload.name, measured)
    return {
        "workload": workload.name, "seed": args.seed, "engine": engine,
        "trace": 0, "seconds": args.seconds,
        "attempted": attempted, "failed": failed + len(problems),
        "problems": problems, "values": values,
        "phases": summaries,
        "prefix": {k: m.prefix_state for k, m in measured.items()},
    }


def write_samples(workload_name: str, measured: dict) -> None:
    """Every raw sample of the run, for offline analysis (git-ignored)."""
    clock = next(iter(measured.values())).clock
    doc = {
        "ticks": clock.ticks,
        "loops": {
            kind: {
                "at": m.at,
                "blocks": [
                    {"wall_ns": b.wall_ns, "units": b.units, "samples": b.samples}
                    for b in m.blocks
                ],
            }
            for kind, m in measured.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload_name}.samples.json").write_text(
        json.dumps(doc, separators=(",", ":"))
    )


def warn_if_unsteady(values: dict) -> None:
    """More than a quarter of the blocks skewed: the numbers stand (the
    single-run exit code must stay 0 for the driver) but are flagged."""
    dropped, blocks = values["host.blocks_dropped"], values["host.blocks"]
    if dropped > MAX_DROPPED_SHARE * blocks:
        print(
            f"WARNING: {dropped:.0f} of {blocks:.0f} blocks had bracketing "
            "kernels more than 15% apart: the host's speed moved too much "
            "for this run to be trusted; rerun it",
            file=sys.stderr,
        )


def check_variants(measured: dict[str, Measured]) -> list[str]:
    """Every cold-swap variant was a distinct binary (one that failed to
    decode already counted as a failed swap)."""
    phase = measured["swap"].phase
    if len(phase.variant_shas) != phase.variants:
        return [
            f"{phase.variants} cold-swap variants but only "
            f"{len(phase.variant_shas)} distinct sha256"
        ]
    return []


def legacy_oracle(workload, seed: int, main_phase) -> list[str]:
    """Plugin workloads re-run their first slots under ``legacy`` and must
    deliver identical per-cell bytes (fuel and traps are engine-identical,
    so every scheduling decision is)."""
    from benchmarks.ledger.workloads import SWAP, make_phase, set_obs

    if workload.native and workload.main != SWAP:
        return []
    set_obs(workload)
    oracle = make_phase(workload, seed, workload.main, "legacy")
    while oracle.mark is None:
        oracle.block(1 if workload.main == SWAP else WARM_SLOTS)
    if oracle.mark != main_phase.mark:
        return [
            f"legacy re-run delivered {oracle.mark}, the measured pass "
            f"{main_phase.mark}"
        ]
    return []


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def emit(result: dict, declared: list[dict]) -> int:
    """Print the human-readable rows, then the contract's result line."""
    values = result["values"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        result["problems"].append(f"metrics not produced: {missing}")
        result["failed"] += 1
    print(
        f"# {result['workload']} seed={result['seed']} engine={result['engine']} "
        f"trace={result['trace']} seconds={result['seconds']:g}"
    )
    for metric in declared:
        name = metric["name"]
        if name in values:
            raw = values.get(f"raw.{name}")
            beside = f"   (raw {raw:.6g})" if raw is not None else ""
            print(f"{name:34s} {values[name]:14.6g} {metric['unit']}{beside}")
    shown = {m["name"] for m in declared}
    for name in sorted(values):
        # beside the declared rows: run validity, and in the untraced pass
        # the tails the contract lists per-layer
        if name not in shown and (
            name.startswith("host.")
            or (name in END_TO_END_SOURCES and not result["trace"])
        ):
            print(f"{name:34s} {values[name]:14.6g}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}.trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    line = {
        "correct": not result["problems"],
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default 7; 11 is held out)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: traced pass + layer probes")
    parser.add_argument("--engine", default=None,
                        help="Wasm engine (default: DEFAULT_ENGINE/REPRO_WASM_ENGINE)")
    parser.add_argument("--sets", type=int, default=1,
                        help="full sets to run back to back and compare")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return setup_child(args)
    if args.compare:
        from benchmarks.ledger.compare import compare_files

        return compare_files(*args.compare)
    if args.workload is None:
        from benchmarks.ledger.sets import run_sets

        return run_sets(args)
    contract = load_contract()
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.trace:
        from benchmarks.ledger.traced import run_traced

        return emit(run_traced(args), contract["per_layer"])
    return emit(run_untraced(args), contract["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())

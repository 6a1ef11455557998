"""Full sets: every workload, untraced then traced, one fresh subprocess
each - the form a person runs (``python -m benchmarks.ledger``)."""

from __future__ import annotations

import json
import re
import subprocess
import sys

from benchmarks.ledger.compare import compare_sets, exact_mismatches
from benchmarks.ledger.run import HERE, OUT, load_contract

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_one(workload: str, trace: int, args) -> dict:
    """One single-run subprocess; returns its result document."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.engine:
        cmd += ["--engine", args.engine]
    if args.tiny or args.selftest:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 and not done.stdout.strip().endswith("}"):
        raise RuntimeError(f"{workload} trace={trace} crashed (exit {done.returncode})")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    doc = json.loads((OUT / f"{workload}.trace{trace}.json").read_text())
    doc["line"] = line
    return doc


def run_set(args, contract: dict) -> tuple[dict, list[str]]:
    """One full set: ``{workload: {end_to_end, per_layer, raw, ...}}``."""
    result: dict = {}
    problems: list[str] = []
    for workload in (w["name"] for w in contract["workloads"]):
        untraced = run_one(workload, 0, args)
        traced = run_one(workload, 1, args)
        for doc, key in ((untraced, "end_to_end"), (traced, "per_layer")):
            line = doc["line"]
            if not line["correct"] or line["failed"]:
                problems.append(
                    f"{workload} trace={doc['trace']}: ops_failed={line['failed']} "
                    f"{doc['problems']}"
                )
            missing = [m["name"] for m in contract[key] if m["name"] not in doc["values"]]
            if missing:
                problems.append(f"{workload}: {key} metrics missing: {missing}")
        values = {**untraced["values"], **traced["values"]}
        result[workload] = {
            "engine": untraced["engine"],
            "end_to_end": {m["name"]: values[m["name"]] for m in contract["end_to_end"]},
            "per_layer": {
                m["name"]: values[m["name"]]
                for m in contract["per_layer"] if m["name"] in values
            },
            "raw": {k[4:]: v for k, v in values.items() if k.startswith("raw.")},
            "ops_attempted": untraced["attempted"] + traced["attempted"],
            "ops_failed": untraced["failed"] + traced["failed"],
        }
    return result, problems


def run_sets(args) -> int:
    contract = load_contract()
    problems = [
        f"metric name {m['name']!r} is not [A-Za-z0-9_.-]+"
        for key in ("end_to_end", "per_layer") for m in contract[key]
        if not NAME_RE.fullmatch(m["name"])
    ]
    if args.selftest:
        args.seconds = 1.0
    sets = []
    for index in range(args.sets):
        print(f"##### set {index + 1} of {args.sets}")
        one, bad = run_set(args, contract)
        sets.append(one)
        problems += bad
    doc = {
        "schema": "waran-ledger/1", "seed": args.seed, "seconds": args.seconds,
        "engine": next(iter(sets[0].values()))["engine"], "sets": sets,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / ("selftest.json" if args.selftest else "ledger.json")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"##### wrote {path}")
    if len(sets) > 1:
        half = (len(sets) + 1) // 2
        print(f"##### sets 1..{half} (A) against sets {half + 1}..{len(sets)} (B)")
        if compare_sets(sets[:half], sets[half:], contract):
            problems.append("sets of one commit disagree beyond the bounds")
        problems += [f"exact count differs between sets: {m}" for m in exact_mismatches(sets)]
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print("##### " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0

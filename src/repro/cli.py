"""The ``waran`` command line: plugin toolchain + experiment runner.

Usage (``python -m repro <command>``)::

    python -m repro compile plugin.wc -o plugin.wasm   # WACC -> Wasm
    python -m repro sanitize plugin.wasm               # deployment check
    python -m repro disasm plugin.wasm                 # inspect a binary
    python -m repro plugins                            # list shipped plugins
    python -m repro fig5a [--duration 10]              # run an experiment; exit 1
    python -m repro fig5b | fig5c | fig5d | safety     # if a shape check fails
    python -m repro obs [--format json|prom]           # telemetry demo dump
    python -m repro obs merge w0.json w1.json          # merge metric snapshots
    python -m repro chaos --seed 42 --slots 10000      # fault-injection soak
    python -m repro scale --workers 4 --cells 8        # multi-process scale-out
    python -m repro scale --sweep 1,2,4 --json BENCH_cluster.json  # scaling doc
    python -m repro fuzz --seed 0 --budget 500         # differential fuzzing
    python -m repro fuzz --replay tests/wasm/corpus    # replay the corpus
    python -m repro record --workload chaos -o s.wrc   # capture a soak
    python -m repro reduce s.wrc -o s.min.wrc          # shrink the corpus
    python -m repro replay-bench s.min.wrc --engines all  # standalone bench
"""

from __future__ import annotations

import argparse
import sys


def _cmd_compile(args) -> int:
    from repro.wacc import WaccError, compile_source

    source = open(args.source, encoding="utf-8").read()
    try:
        raw = compile_source(source)
    except WaccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.output or args.source.rsplit(".", 1)[0] + ".wasm"
    with open(out, "wb") as f:
        f.write(raw)
    print(f"{args.source} -> {out} ({len(raw)} bytes)")
    return 0


def _cmd_sanitize(args) -> int:
    from repro.abi import SanitizerError, sanitize_plugin

    raw = open(args.binary, "rb").read()
    try:
        report = sanitize_plugin(raw)
    except SanitizerError as exc:
        print(f"REJECTED: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {report.n_funcs} functions, {report.n_exports} exports")
    print(f"   imports: {report.imports_used or 'none'}")
    print(f"   memory: {report.memory_min_pages}..{report.memory_max_pages} pages")
    for warning in report.warnings:
        print(f"   warning: {warning}")
    return 0


def _cmd_wat(args) -> int:
    from repro.wasm import load_module
    from repro.wasm.wat import WatError, assemble

    source = open(args.source, encoding="utf-8").read()
    try:
        raw = assemble(source)
        load_module(raw)
    except (WatError, Exception) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.output or args.source.rsplit(".", 1)[0] + ".wasm"
    with open(out, "wb") as f:
        f.write(raw)
    print(f"{args.source} -> {out} ({len(raw)} bytes)")
    return 0


def _cmd_disasm(args) -> int:
    from repro.wasm.disasm import disassemble

    raw = open(args.binary, "rb").read()
    try:
        if args.threaded:
            from repro.wasm.threaded import dump_threaded

            print(dump_threaded(raw))
        elif args.aot:
            from repro.wasm.aot import dump_aot

            print(dump_aot(raw))
        else:
            print(disassemble(raw))
    except BrokenPipeError:  # e.g. `waran disasm x.wasm | head`
        pass
    return 0


def _cmd_plugins(args) -> int:
    from repro.plugins import available_plugins, plugin_wasm

    for name in available_plugins():
        raw = plugin_wasm(name)
        print(f"{name:16s} {len(raw):6d} bytes")
    return 0


def _shape_exit(result) -> int:
    """Print a figure result's shape checks; exit 1 if one fails."""
    checks = result.shape_holds()
    for check, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return 0 if all(checks.values()) else 1


def _cmd_fig5a(args) -> int:
    from repro.experiments import run_fig5a

    result = run_fig5a(duration_s=args.duration)
    print(f"{'MVNO':12s} {'target':>8s} {'achieved':>9s} {'ratio':>6s}")
    for name, target, achieved, ratio in result.rows():
        print(f"{name:12s} {target:6.1f}Mb {achieved:7.2f}Mb {ratio:6.3f}")
    return _shape_exit(result)


def _cmd_fig5b(args) -> int:
    from repro.experiments import run_fig5b
    from repro.experiments.asciiplot import render_series
    from repro.experiments.fig5b import UE_MCS

    result = run_fig5b(phase_duration_s=args.duration)
    series = {
        f"MCS{UE_MCS[ue]}": [(t, v / 1e6) for t, v in result.series[ue]]
        for ue in sorted(UE_MCS)
    }
    print(render_series(series, y_label="Mb/s"))
    print(f"\n(phases: MT 0..{args.duration:.0f}s, "
          f"PF ..{2 * args.duration:.0f}s, RR ..{3 * args.duration:.0f}s)")
    print("per-phase mean rates (Mb/s), UEs at MCS 20/24/28:")
    for phase, means in result.phase_means.items():
        print(f"  {phase.upper():3s}: " + "  ".join(
            f"UE{u}={means[u]:5.2f}" for u in sorted(means)))
    return _shape_exit(result)


def _cmd_fig5c(args) -> int:
    from repro.experiments import run_fig5c

    from repro.experiments.asciiplot import render_series

    result = run_fig5c(duration_s=args.duration)
    print(render_series(
        {"leak in plugin": result.plugin_series,
         "leak native": result.native_series},
        y_label="MiB",
    ))
    print("\nhost memory increase (MiB): plugin vs native leak")
    for (t, plugin_mib), (_t, native_mib) in zip(
        result.plugin_series, result.native_series
    ):
        print(f"  t={t:5.1f}s  plugin={plugin_mib:6.2f}  native={native_mib:7.2f}")
    return _shape_exit(result)


def _cmd_fig5d(args) -> int:
    from repro.experiments import run_fig5d

    result = run_fig5d(calls=args.calls)
    print(f"{'plugin':6s} {'UEs':>4s} {'p50 us':>8s} {'p99 us':>8s} {'mean us':>8s}")
    for plugin, n_ues, p50, p99, mean in result.rows():
        print(f"{plugin:6s} {n_ues:4d} {p50:8.1f} {p99:8.1f} {mean:8.1f}")
    print(f"slot duration: {result.slot_duration_us:.0f} us; "
          f"every p99 inside the slot: {result.all_within_deadline()}")
    return _shape_exit(result)


def _cmd_obs(args) -> int:
    """Run a short instrumented workload, then dump the telemetry."""
    import json

    from repro import obs
    from repro.abi import SchedulerPlugin
    from repro.experiments.fig5d import make_ues
    from repro.plugins import available_plugins, plugin_wasm

    obs.enable()
    obs.reset()

    if args.plugin not in available_plugins():
        print(f"error: unknown plugin {args.plugin!r}", file=sys.stderr)
        return 1
    plugin = SchedulerPlugin.load(plugin_wasm(args.plugin), name=args.plugin)
    plugin.host.limits.fuel = 10_000_000
    ues = make_ues(5)
    for slot in range(args.calls):
        plugin.schedule(52, ues, slot)
    # a hot swap and a deliberately bad call so events/flight show faults too
    plugin.swap(plugin_wasm(args.plugin))
    try:
        plugin.host.call(b"\x00" * 4)  # truncated input: ABI violation
    except Exception:
        pass

    bundle = obs.OBS
    if args.tree:
        print(bundle.tracer.render_tree())
        return 0
    if args.top:
        totals: dict[str, list[float]] = {}
        for span in bundle.tracer.finished():
            totals.setdefault(span.name, []).append(span.elapsed_us)
        rows = sorted(
            totals.items(), key=lambda kv: -sum(kv[1])
        )[: args.top]
        print(f"{'span':24s} {'count':>7s} {'total ms':>9s} {'max us':>9s}")
        for name, samples in rows:
            print(
                f"{name:24s} {len(samples):7d} "
                f"{sum(samples) / 1000.0:9.2f} {max(samples):9.1f}"
            )
        return 0
    if args.format == "prom":
        sys.stdout.write(bundle.registry.to_prometheus())
        return 0
    sections = {
        "metrics": lambda: bundle.registry.to_json(),
        "spans": lambda: bundle.tracer.to_json(),
        "events": lambda: bundle.events.to_json(),
        "flight": lambda: bundle.flight.to_json(),
    }
    if args.section == "all":
        doc = {name: build() for name, build in sections.items()}
    else:
        doc = {args.section: sections[args.section]()}
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_obs_merge(args) -> int:
    """Merge per-process metrics snapshots into one exposition."""
    import json

    from repro.obs import (
        DEFAULT_GAUGE_MODES,
        MergeError,
        merge_snapshots,
        snapshot_to_prometheus,
    )

    docs = []
    for path in args.snapshots:
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
    gauge_modes = dict(DEFAULT_GAUGE_MODES)
    for item in args.gauge_mode or ():
        name, sep, mode = item.partition("=")
        if not sep:
            print(
                f"error: --gauge-mode wants NAME=MODE, got {item!r}",
                file=sys.stderr,
            )
            return 1
        gauge_modes[name] = mode
    try:
        merged = merge_snapshots(docs, gauge_modes=gauge_modes)
    except MergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "prom":
        text = snapshot_to_prometheus(merged)
    else:
        text = json.dumps(merged, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"{len(docs)} snapshots -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_scale(args) -> int:
    """Run the multi-process cluster (or a worker-count sweep)."""
    import json

    from repro.cluster import ClusterError, ClusterSpec, run_cluster, run_sweep
    from repro.cluster import sweep_document

    spec = ClusterSpec(
        workers=args.workers,
        cells=args.cells,
        ues=args.ues,
        slots=args.slots,
        seed=args.seed,
        engine=args.engine,
        chaos=args.chaos,
        mode=args.mode,
        timeout_s=args.timeout,
        rt=args.rt,
        scenario=args.scenario,
        liveness_timeout_s=args.liveness_timeout,
    )
    try:
        spec.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.sweep:
            print(f"{'workers':>7s} {'slots/s':>9s} {'cell-slots/s':>12s} "
                  f"{'p50 us':>8s} {'p99 us':>8s}  digest")
            reports = run_sweep(spec, workers=args.sweep)
            for report in reports:
                print(f"{report.spec.workers:7d} {report.slot_rate:9.1f} "
                      f"{report.cell_slot_rate:12.1f} "
                      f"{report.p50_slot_us:8.0f} {report.p99_slot_us:8.0f}  "
                      f"{report.bytes_digest[:12]}")
            print("aggregate digests invariant across worker counts")
            report = reports[-1]
            if args.json:
                doc = sweep_document(spec, reports)
                print(f"speedup x{doc['speedup_1_to_max']:.2f}, p99 ratio x"
                      f"{doc['p99_ratio_max_vs_1']:.2f}; traced p99 dominant: "
                      f"{doc['attribution'].get('dominant')}")
        else:
            report = run_cluster(spec)
            doc = report.to_json()
            print(report.summary())
            if args.verify_determinism:
                again = run_cluster(spec)
                same = (
                    again.bytes_digest == report.bytes_digest
                    and again.fault_digest == report.fault_digest
                )
                print("determinism: "
                      f"{'byte-identical' if same else 'DIVERGED'}")
                if not same:
                    return 1
    except ClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report -> {args.json}")
    if args.metrics:
        from repro.obs import snapshot_to_prometheus

        sys.stdout.write(snapshot_to_prometheus(report.metrics))
    return 0


def _cmd_trace(args) -> int:
    """Trace one cluster run and attribute every microsecond of its p99."""
    import json

    from repro.cluster import ClusterError, ClusterSpec, run_cluster
    from repro.obs import (
        AttributionReport,
        render_span_tree,
        write_chrome_trace,
    )

    spec = ClusterSpec(
        workers=args.workers,
        cells=args.cells,
        ues=args.ues,
        slots=args.slots,
        seed=args.seed,
        engine=args.engine,
        mode=args.mode,
        timeout_s=args.timeout,
        trace=True,
        budget_us=args.budget_us,
    )
    try:
        spec.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_cluster(spec)
    except ClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.digest_only:
        print(report.trace_digest)
        return 0
    print(report.summary())
    print()
    print(AttributionReport(report.attribution).render_table())
    if args.tree:
        print()
        print(render_span_tree(report.spans))
    if args.out:
        n = write_chrome_trace(args.out, report.spans)
        print(
            f"\n{n} events -> {args.out} "
            "(load in chrome://tracing or ui.perfetto.dev)"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "spec": spec.to_json(),
                    "trace_digest": report.trace_digest,
                    "span_count": len(report.spans),
                    "attribution": report.attribution,
                    "deadline_misses": report.deadline_misses,
                },
                f,
                indent=2,
            )
        print(f"attribution -> {args.json}")
    return 0


def _cmd_chaos(args) -> int:
    """Run the seeded chaos soak and report its invariants."""
    from repro.chaos import ChaosRunner

    try:
        runner = ChaosRunner(
            seed=args.seed, slots=args.slots, engine=args.engine, rt=args.rt
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = runner.run()
    print(report.summary())
    if args.verify_determinism:
        again = ChaosRunner(
            seed=args.seed, slots=args.slots, engine=args.engine, rt=args.rt
        ).run()
        same = again.log == report.log
        print(f"determinism: {'byte-identical' if same else 'DIVERGED'}")
        if not same:
            return 1
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write(report.log)
        print(f"fault/event log -> {args.log} "
              f"({len(report.log.splitlines())} lines)")
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_rt(args) -> int:
    """Run an rt stress scenario and report admission + deadline behavior."""
    import json

    from repro import obs
    from repro.obs.attribution import attribute_slots
    from repro.rt.scenarios import (
        baseline_comparison,
        run_scenario,
        scenario_policy,
        scenario_slots,
    )

    try:
        policy = scenario_policy(args.scenario).override(args.policy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    slots = args.slots or scenario_slots(args.scenario)

    if args.baseline:
        cmp = baseline_comparison(
            seed=args.seed, slots=slots, engine=args.engine
        )
        if args.json:
            print(json.dumps(cmp, indent=2))
            return 0
        off, on = cmp["baseline"]["counters"], cmp["enforced"]["counters"]
        print(
            f"flash_crowd seed={args.seed} slots={slots}: "
            f"misses rt-off={off['misses']} rt-on={on['misses']} "
            f"(reduction {cmp['miss_reduction']:g}x)"
        )
        print(
            f"rt-on: dispatched={on['dispatched']} degraded={on['degraded']} "
            f"overruns={on['overruns']} shed={on['shed_by_lane']}"
        )
        return 0

    obs.enable()
    obs.reset()
    # keep the whole run's gnb.step spans for attribution (no eviction)
    obs.OBS.tracer.resize(max(obs.OBS.tracer.capacity, slots * 64))
    report = run_scenario(
        args.scenario, seed=args.seed, slots=slots,
        policy=policy, engine=args.engine,
    )
    attribution = attribute_slots(
        obs.OBS.tracer.to_json(),
        slot_name="gnb.step",
        budget_us=policy.budget_us or None,
    )
    if args.verify_determinism:
        again = run_scenario(
            args.scenario, seed=args.seed, slots=slots,
            policy=policy, engine=args.engine,
        )
        same = again.digest == report.digest
        if not args.json:
            print(
                f"determinism: {'byte-identical' if same else 'DIVERGED'}"
            )
        if not same:
            print(
                f"error: digest diverged between runs: "
                f"{report.digest[:16]} != {again.digest[:16]}",
                file=sys.stderr,
            )
            return 1

    if args.json:
        doc = report.to_json()
        doc["attribution"] = attribution.to_json()
        print(json.dumps(doc, indent=2))
        return 0

    c = report.counters
    print(
        f"{report.name} seed={report.seed} slots={report.slots} "
        f"engine={report.engine}: dispatched={c['dispatched']} "
        f"degraded={c['degraded']} overruns={c['overruns']} "
        f"misses={c['misses']} (rate {report.miss_rate:.4f}) "
        f"shed={c['shed_by_lane']}"
    )
    print(
        f"quarantines={report.quarantines} "
        f"readmissions={report.readmissions} handovers={report.handovers} "
        f"delivered_bytes={report.delivered_bytes}"
    )
    if report.suggested_fuel_per_us:
        print(
            f"calibrator suggests fuel_per_us="
            f"{report.suggested_fuel_per_us:g} for this engine "
            f"(policy pins {policy.fuel_per_us:g})"
        )
    print(f"digest: {report.digest}")
    print()
    print(
        f"{'plugin':20s} {'lane':7s} {'verdict':10s} {'p99 fuel':>9s} "
        f"{'overrun':>7s} {'reject':>6s} {'quar':>5s} {'readmit':>7s}"
    )
    for key in sorted(report.plugins):
        st = report.plugins[key]
        p99 = st["fuel_p99"]
        print(
            f"{key:20s} {st['lane']:7s} {st['last_verdict'] or '-':10s} "
            f"{p99 if p99 is not None else '-':>9} "
            f"{st['overruns']:>7d} {st['rejects']:>6d} "
            f"{st['quarantines']:>5d} {st['readmissions']:>7d}"
        )
    print()
    print(attribution.render_table())
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write(report.log + "\n")
        print(f"\nadmission/fault log -> {args.log} "
              f"({len(report.log.splitlines())} lines)")
    return 0


def _cmd_safety(args) -> int:
    from repro.experiments import run_safety_table

    result = run_safety_table()
    for row in result.rows:
        print(f"{row.fault:12s} plugin: {row.plugin_outcome:24s} "
              f"host alive: {row.plugin_host_alive}")
        print(f"{'':12s} native: {row.native_outcome:24s} "
              f"process alive: {row.native_process_alive}")
    return _shape_exit(result)


def _cmd_record(args) -> int:
    """Capture a live workload as a standalone replay corpus."""
    from repro.replay import record_workload, reduce_corpus, save_corpus

    try:
        corpus = record_workload(
            args.workload,
            seed=args.seed,
            slots=args.slots,
            engine=args.engine,
            rt=args.rt,
            workers=args.workers,
            cells=args.cells,
            ues=args.ues,
        )
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"recorded {args.workload}: {corpus.total_calls} calls across "
        f"{len(corpus.streams)} streams, {len(corpus.modules)} modules"
    )
    if args.reduce:
        corpus, report = reduce_corpus(corpus, engine=args.engine)
        print(report.summary())
    out = args.output or f"{args.workload}-seed{args.seed}.wrc"
    size = save_corpus(out, corpus)
    print(
        f"corpus -> {out} ({size} bytes, fidelity "
        f"{corpus.fidelity_digest()[:16]})"
    )
    return 0


def _cmd_reduce(args) -> int:
    """Reduce a recorded corpus: dedupe, sample, verify, shrink modules."""
    import json

    from repro.replay import (
        CorpusError,
        load_corpus,
        reduce_corpus,
        save_corpus,
    )

    try:
        corpus = load_corpus(args.corpus)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reduced, report = reduce_corpus(
        corpus,
        max_checks=args.max_checks,
        engine=args.engine,
    )
    out = args.output or args.corpus.rsplit(".", 1)[0] + ".min.wrc"
    size = save_corpus(out, reduced)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())
    print(
        f"corpus -> {out} ({size} bytes, fidelity "
        f"{reduced.fidelity_digest()[:16]})"
    )
    return 0


def _cmd_replay_bench(args) -> int:
    """Replay a corpus standalone; fail unless bit-identical to the recording."""
    import json

    from repro.replay import CorpusError, load_corpus, replay_corpus
    from repro.wasm.threaded import ENGINES

    try:
        corpus = load_corpus(args.corpus)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    engines = (
        list(ENGINES) if args.engines == "all" else args.engines.split(",")
    )
    for engine in engines:
        if engine not in ENGINES:
            print(
                f"error: unknown engine {engine!r} (expected one of "
                f"{ENGINES} or 'all')", file=sys.stderr,
            )
            return 1
    doc = {
        "schema": "waran-bench-replay/1",
        "corpus": args.corpus,
        "meta": corpus.meta,
        "fidelity_digest": corpus.fidelity_digest(),
        "engines": {},
    }
    ok = True
    for engine in engines:
        report = replay_corpus(corpus, engine=engine)
        doc["engines"][engine] = report.to_json()
        ok = ok and report.ok
        print(report.summary())
        if args.verbose or not report.ok:
            for stream in report.streams:
                flag = "ok" if stream.ok else "MISMATCH"
                print(
                    f"  [{flag}] {stream.plugin} gen={stream.generation} "
                    f"calls={stream.calls} matched={stream.matched} "
                    f"mean={stream.mean_us:.1f}us p99={stream.p99_us:.1f}us "
                    f"fuel={stream.fuel_total}"
                )
                for mismatch in stream.mismatches[:4]:
                    print(f"      {json.dumps(mismatch, sort_keys=True)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
        print(f"report -> {args.json}")
    print("fidelity: bit-identical" if ok else "fidelity: MISMATCH",
          file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


def _load_seed_modules(path: str) -> list[bytes]:
    """Module binaries from a ``.wrc`` corpus file or a directory of them."""
    import os

    from repro.replay import load_corpus

    paths = (
        sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".wrc")
        )
        if os.path.isdir(path)
        else [path]
    )
    modules: dict[str, bytes] = {}
    for corpus_path in paths:
        modules.update(load_corpus(corpus_path).modules)
    return [modules[sha] for sha in sorted(modules)]


def _cmd_fuzz(args) -> int:
    import json

    from repro.fuzz import check_case, load_case, run_campaign
    from repro.fuzz.corpus import corpus_paths
    from repro.wasm.threaded import DEFAULT_ENGINE, ENGINES

    if args.replay:
        import os

        if not os.path.exists(args.replay):
            print(f"error: no such corpus path: {args.replay}", file=sys.stderr)
            return 1
        paths = (
            corpus_paths(args.replay)
            if os.path.isdir(args.replay)
            else [args.replay]
        )
        problems: list[str] = []
        for path in paths:
            case = load_case(path)
            engines = ENGINES if case.mode == "diff" else (DEFAULT_ENGINE,)
            for engine in engines:
                problems.extend(
                    f"[{engine}] {p}" for p in check_case(case, engine)
                )
        if args.json:
            print(json.dumps({"replayed": len(paths), "problems": problems},
                             indent=2))
        else:
            print(f"replayed {len(paths)} corpus cases")
            for problem in problems:
                print(f"FAIL {problem}", file=sys.stderr)
        return 1 if problems else 0

    seed_modules = None
    if args.seed_corpus:
        from repro.replay import CorpusError

        try:
            seed_modules = _load_seed_modules(args.seed_corpus)
        except (CorpusError, OSError) as exc:
            print(f"error: --seed-corpus: {exc}", file=sys.stderr)
            return 1
        if not seed_modules:
            print(
                f"error: no modules in seed corpus {args.seed_corpus}",
                file=sys.stderr,
            )
            return 1
    report = run_campaign(
        args.seed,
        args.budget,
        mutate_ratio=args.mutate_ratio,
        time_box=args.time_box,
        corpus_dir=args.corpus_dir,
        seed_modules=seed_modules,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        counts = " ".join(
            f"{k}={v}" for k, v in sorted(report.class_counts.items())
        )
        print(
            f"fuzz seed={report.seed} executed={report.executed}/"
            f"{report.budget} generated={report.generated} "
            f"mutated={report.mutated} seeded={report.seeded} "
            f"elapsed={report.elapsed:.2f}s"
        )
        print(f"mutant classes: {counts or '(none)'}")
        print(f"digest: {report.digest}")
        for failure in report.failures:
            where = f" -> {failure.corpus_path}" if failure.corpus_path else ""
            print(
                f"FAIL i={failure.iteration} {failure.kind}: "
                f"{failure.detail}{where}",
                file=sys.stderr,
            )
        print("no divergences, no crashes" if report.ok
              else f"{len(report.failures)} failure(s)")
    return 0 if report.ok else 1


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _worker_counts(text: str) -> list[int]:
    """argparse type of ``--sweep``: distinct worker counts, ascending."""
    return sorted({_positive_int(w) for w in text.split(",")})


def _cluster_shape_parser() -> argparse.ArgumentParser:
    """The cluster-shape flags ``scale`` and ``trace`` share.

    A fresh parser per command: ``set_defaults`` on a subcommand rewrites
    the defaults of the parent's action objects, so a shared instance
    would leak one command's ``--slots`` default into the other.
    """
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--workers", type=int, default=2)
    shape.add_argument("--cells", type=int, default=4)
    shape.add_argument(
        "--ues", type=int, default=32, help="total UE population"
    )
    shape.add_argument("--slots", type=int, default=400)
    shape.add_argument("--seed", type=int, default=0)
    shape.add_argument(
        "--mode",
        choices=["proc", "inline"],
        default="proc",
        help="proc = worker processes over TCP loopback, "
        "inline = sequential in-process",
    )
    shape.add_argument("--timeout", type=float, default=600.0,
                       help="per-run worker deadline (seconds)")
    return shape


def main(argv: list[str] | None = None) -> int:
    from repro.wasm.threaded import DEFAULT_ENGINE, ENGINES

    parser = argparse.ArgumentParser(prog="waran", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    engine_opt = argparse.ArgumentParser(add_help=False)
    engine_opt.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help=f"Wasm engine (default: REPRO_WASM_ENGINE or {DEFAULT_ENGINE})",
    )

    p = sub.add_parser("compile", help="compile WACC source to Wasm")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("wat", help="assemble WAT text to Wasm")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_wat)

    p = sub.add_parser("sanitize", help="pre-deployment plugin check")
    p.add_argument("binary")
    p.set_defaults(fn=_cmd_sanitize)

    p = sub.add_parser("disasm", help="disassemble a Wasm binary")
    p.add_argument("binary")
    p.add_argument(
        "--threaded",
        action="store_true",
        help="dump the threaded-code lowering (slots, fuel costs, fusions)",
    )
    p.add_argument(
        "--aot",
        action="store_true",
        help="dump the AOT lowering: generated Python next to the Wasm body",
    )
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("plugins", help="list shipped plugins")
    p.set_defaults(fn=_cmd_plugins)

    p = sub.add_parser("fig5a", help="MVNO co-existence experiment")
    p.add_argument("--duration", type=float, default=10.0)
    p.set_defaults(fn=_cmd_fig5a)

    p = sub.add_parser("fig5b", help="live scheduler swap experiment")
    p.add_argument("--duration", type=float, default=8.0, help="per phase")
    p.set_defaults(fn=_cmd_fig5b)

    p = sub.add_parser("fig5c", help="memory leak confinement experiment")
    p.add_argument("--duration", type=float, default=20.0)
    p.set_defaults(fn=_cmd_fig5c)

    p = sub.add_parser("fig5d", help="plugin execution time experiment")
    p.add_argument("--calls", type=_positive_int, default=1000)
    p.set_defaults(fn=_cmd_fig5d)

    p = sub.add_parser("safety", help="memory-safety comparison table")
    p.set_defaults(fn=_cmd_safety)

    p = sub.add_parser(
        "chaos",
        parents=[engine_opt],
        help="seeded fault-injection soak of the full gNB+RIC system",
        description="Runs the ChaosRunner soak harness: a gNB with three "
        "plugin-scheduled slices, an E2 node agent and a near-RT RIC under "
        "a seeded schedule of plugin, ABI and transport faults, asserting "
        "the §6A invariants (host never raises, every non-disconnected "
        "slice served every slot, bounded recovery after release).",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slots", type=int, default=10_000)
    p.add_argument(
        "--log", metavar="PATH", help="write the fault/event log to a file"
    )
    p.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run twice and require byte-identical fault/event logs",
    )
    p.add_argument(
        "--rt", metavar="POLICY", default=None,
        help='rt dispatch policy string (or "on" for defaults): composes '
        "deadline budgets and admission control with the chaos faults",
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "rt",
        parents=[engine_opt],
        help="real-time dispatch: deadline budgets, lanes, admission",
        description="Runs one of the rt stress scenarios (flash_crowd, "
        "handover, mixed_sla) through the deadline-aware dispatcher: "
        "per-call fuel budgets derived from the slot-time budget, priority "
        "lanes (SLA dispatches first and is never shed), and latency-driven "
        "admission control with circuit-breaker probation.  Prints "
        "per-plugin admission verdicts and the deadline-miss attribution "
        "table; every number is a deterministic function of "
        "(scenario, seed, slot).",
    )
    p.add_argument(
        "--scenario",
        choices=["flash_crowd", "handover", "mixed_sla"],
        default="flash_crowd",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--slots", type=_positive_int, default=None,
        help="run length (default: the scenario's, e.g. flash_crowd=300)",
    )
    p.add_argument(
        "--policy", metavar="SPEC", default=None,
        help='RtPolicy fields to change on top of the scenario\'s policy, '
        'e.g. "budget_us=400,lanes=sla:60;be:40,admission=off" '
        '(lanes: "!" pins a lane non-sheddable, "sla" always is; '
        '"enforce=off" is the observe-only baseline)',
    )
    p.add_argument(
        "--baseline", action="store_true",
        help="run the acceptance comparison: flash crowd rt-off vs rt-on, "
        "reporting the deadline-miss-rate reduction factor",
    )
    p.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run twice and require byte-identical report digests",
    )
    p.add_argument(
        "--log", metavar="PATH",
        help="write the admission/fault/mobility log to a file",
    )
    p.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    p.set_defaults(fn=_cmd_rt)

    p = sub.add_parser(
        "obs",
        help="run an instrumented demo workload and dump telemetry",
        description="Exercises a scheduler plugin with telemetry enabled, "
        "then dumps metrics, spans, events and the flight recorder as JSON "
        "(or the metrics registry as Prometheus text).",
    )
    p.add_argument("--format", choices=["json", "prom"], default="json")
    p.add_argument(
        "--section",
        choices=["all", "metrics", "spans", "events", "flight"],
        default="all",
        help="JSON output only: which telemetry section to dump",
    )
    p.add_argument("--calls", type=int, default=25, help="demo plugin calls")
    p.add_argument("--plugin", default="pf", help="demo scheduler plugin")
    p.add_argument(
        "--tree",
        action="store_true",
        help="print the recorded span forest as an indented tree and exit",
    )
    p.add_argument(
        "--top",
        type=int,
        metavar="N",
        help="print the N most expensive span names (by total time) and exit",
    )
    p.set_defaults(fn=_cmd_obs)
    obs_sub = p.add_subparsers(dest="obs_command", metavar="merge")
    pm = obs_sub.add_parser(
        "merge",
        help="merge metrics snapshots from several processes",
        description="Merges per-process MetricsRegistry snapshots (JSON "
        "files, either bare registry dumps or whole telemetry bundles with "
        "a 'metrics' section) into one aggregate exposition - the same "
        "merge path the cluster coordinator uses for its workers.",
    )
    pm.add_argument("snapshots", nargs="+", metavar="snap.json")
    pm.add_argument("--format", choices=["json", "prom"], default="json")
    pm.add_argument("-o", "--output", help="write instead of printing")
    pm.add_argument(
        "--gauge-mode",
        action="append",
        metavar="NAME=MODE",
        help="merge mode for a gauge: sum, max or last (repeatable; "
        "defaults cover the known high-water-mark gauges)",
    )
    pm.set_defaults(fn=_cmd_obs_merge)

    p = sub.add_parser(
        "scale",
        parents=[_cluster_shape_parser(), engine_opt],
        help="multi-process scale-out: sharded gNB workers + one RIC",
        description="Spawns N shared-nothing cell-worker processes, each "
        "hosting a shard of the cells with its own Wasm plugins (and chaos "
        "schedule, if any), streaming KPM indications to the coordinator's "
        "near-RT RIC over the batched E2 uplink.  Aggregate scheduled-bytes "
        "and fault-log digests are invariant across runs and worker counts.",
    )
    p.add_argument(
        "--chaos",
        metavar="SPEC",
        help="chaos fault spec, e.g. seed=1,trap=0.01 (bare seed: the soak mix)",
    )
    p.add_argument(
        "--sweep",
        type=_worker_counts,
        metavar="W1,W2,...",
        help="sweep worker counts (e.g. 1,2,4) and verify digest invariance",
    )
    p.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run twice and require byte-identical aggregate digests",
    )
    p.add_argument("--json", metavar="PATH", help="write the report (with --sweep, the sweep's)")
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged cross-process metrics as Prometheus text",
    )
    p.add_argument(
        "--rt", metavar="POLICY", default=None,
        help='rt dispatch policy string (or "on" for defaults); the '
        "budget is per cell and slot, never divided by worker count",
    )
    p.add_argument(
        "--scenario",
        choices=["flash_crowd", "handover", "mixed_sla"],
        default=None,
        help="replace the default CBR cells with an rt stress scenario",
    )
    p.add_argument(
        "--liveness-timeout", type=float, default=0.0, metavar="SECONDS",
        help="fail fast with WorkerFailed when a worker goes silent this "
        "long (0 = only --timeout applies)",
    )
    p.set_defaults(fn=_cmd_scale)

    p = sub.add_parser(
        "trace",
        parents=[_cluster_shape_parser(), engine_opt],
        help="trace a cluster run and attribute its per-slot latency",
        description="Runs the scale-out cluster with distributed tracing "
        "on: every worker slot becomes a span, trace context rides the "
        "batched E2 uplink, and the coordinator stitches one cross-process "
        "trace.  Prints the latency-attribution table (which segment owns "
        "the p99, exact decomposition of the p99 slot, critical path, "
        "deadline misses) and can export a Chrome/Perfetto trace file.",
    )
    p.add_argument(
        "--budget-us",
        type=float,
        default=0.0,
        help="per-slot latency budget; overruns become deadline_miss "
        "events naming the guilty segment",
    )
    p.add_argument(
        "--out",
        metavar="TRACE.json",
        help="write the stitched Chrome/Perfetto trace-event file",
    )
    p.add_argument(
        "--json", metavar="PATH", help="write the attribution report as JSON"
    )
    p.add_argument(
        "--tree",
        action="store_true",
        help="also print the stitched span forest as an indented tree",
    )
    p.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the structural trace digest (CI determinism check)",
    )
    p.set_defaults(fn=_cmd_trace, slots=200)

    p = sub.add_parser(
        "fuzz",
        help="generative differential fuzzing of the Wasm engines",
        description="Generates seeded arbitrary-but-valid Wasm modules and "
        "runs each under the legacy, threaded and aot engines plus "
        "cross-engine checkpoint/restore round trips, requiring identical "
        "results, trap "
        "codes, fuel and exec stats; a fraction of iterations corrupt the "
        "binary instead and assert the decoder/validator reject it cleanly. "
        "Failures are shrunk to minimal corpus reproducers.  The campaign "
        "digest is deterministic for a given seed and budget.",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=500,
                   help="number of fuzz iterations")
    p.add_argument("--time-box", type=float, default=None, metavar="SECONDS",
                   help="stop early after this many seconds")
    p.add_argument("--mutate-ratio", type=float, default=0.3,
                   help="fraction of iterations that mutate instead of run")
    p.add_argument("--corpus-dir", metavar="DIR",
                   help="write shrunk reproducers for failures here")
    p.add_argument("--replay", metavar="PATH",
                   help="replay a corpus case file or directory and exit")
    p.add_argument("--seed-corpus", metavar="PATH",
                   help="bias mutations with module binaries from a replay "
                   "corpus (.wrc file or directory of them)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.set_defaults(fn=_cmd_fuzz)

    from repro.replay.record import RECORDABLE_WORKLOADS

    p = sub.add_parser(
        "record",
        parents=[engine_opt],
        help="capture a live workload as a standalone replay corpus",
        description="Runs an existing deterministic workload (chaos soak, "
        "rt stress scenario, the Fig-5b hot-swap experiment or a "
        "multi-worker cluster sweep) with the "
        "flight recorder in corpus-capture mode and serialises every "
        "per-plugin call stream - module bytes, ABI inputs, fuel budgets, "
        "chaos/rt attributes - into a versioned .wrc corpus that "
        "'repro replay-bench' can re-execute without any RAN around it.",
    )
    p.add_argument("--workload", choices=RECORDABLE_WORKLOADS,
                   default="chaos")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slots", type=int, default=None,
                   help="override the workload's slot count")
    p.add_argument("--rt", metavar="POLICY",
                   help="rt dispatch policy string ('on' for defaults)")
    p.add_argument("--workers", type=int, default=2,
                   help="cluster workload: worker count")
    p.add_argument("--cells", type=int, default=4,
                   help="cluster workload: cell count")
    p.add_argument("--ues", type=int, default=8,
                   help="cluster workload: total UE population")
    p.add_argument("--reduce", action="store_true",
                   help="reduce the corpus inline before saving")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="corpus path (default <workload>-seed<N>.wrc)")
    p.set_defaults(fn=_cmd_record)

    p = sub.add_parser(
        "reduce",
        parents=[engine_opt],
        help="shrink a recorded replay corpus while it stays faithful",
        description="Dedupes calls by (module, input-shape, trap/fuel "
        "equivalence class), keeps a few representatives per class, "
        "re-verifies each standalone (rebasing deterministic divergences), "
        "then minimises module bodies with the fuzzer's shrinking "
        "machinery under a bit-exact replay predicate.",
    )
    p.add_argument("corpus", help=".wrc corpus to reduce")
    p.add_argument("--max-checks", type=int, default=120,
                   help="shrinker predicate evaluations per module")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="output path (default <input>.min.wrc)")
    p.add_argument("--json", action="store_true",
                   help="print the reduction report as JSON")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser(
        "replay-bench",
        help="execute a replay corpus standalone and benchmark it",
        description="Rebuilds one plugin host per recorded call stream and "
        "re-executes every call under the requested engines, checking "
        "outputs, traps and fuel bit-exactly against the corpus "
        "expectations while measuring per-call latency.  Exits non-zero "
        "on any fidelity mismatch.",
    )
    p.add_argument("corpus", help=".wrc corpus to replay")
    p.add_argument("--engines", default=DEFAULT_ENGINE,
                   help="comma-separated engine list, or 'all' "
                   f"(default: {DEFAULT_ENGINE})")
    p.add_argument("--json", metavar="FILE",
                   help="write the full waran-bench-replay/1 report here")
    p.add_argument("--verbose", action="store_true",
                   help="print per-stream fidelity and timing lines")
    p.set_defaults(fn=_cmd_replay_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `waran plugins | head`
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":
    raise SystemExit(main())

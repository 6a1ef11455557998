#!/usr/bin/env python3
"""Where the cost goes: three ablations in one table (§4B, §6A, §6C).

1. Plugin overhead (§6C): one PF scheduling call on 10 UEs and 52 PRBs,
   natively in Python (the floor), as the shipped Wasm plugin, and as the
   same source compiled without WACC's optimiser; plus the ABI
   pack/unpack alone, the serialization share of Fig. 5d's numbers.
   Fuel metering has no off switch to ablate: every engine meters.
2. E2 codecs and crypto (§4B): a 10-UE KPM indication round trip through
   JSON, pbwire and pbwire + AES-CTR, an ASN.1-lite control message,
   AES-CTR over 1 KiB and an RSA-512 round trip.
3. Fault policy (§6A): one gNB slot with a healthy plugin, with a plugin
   that faults every slot and falls back to the default scheduler, and
   with that plugin quarantined (the trap/recover path disappears).

Each row is the median ``time.perf_counter_ns`` of one call over a fixed
number of repetitions, after one untimed call.  The timings are this
host's and gate nothing: claims are made with the slot-cost ledger
(``benchmarks/ledger``), and what each call must do is tier-1's
(round trips in ``tests/test_codecs.py``, ``tests/test_cryptolite.py``
and ``tests/test_e2_ric.py``, the fault policy in ``tests/test_gnb.py``).

Run: python examples/ablations.py
"""

import itertools
import random
import statistics
import time

from repro.abi import SchedulerPlugin, pack_sched_input, unpack_grants
from repro.abi.wire import pack_grants
from repro.channel import FixedMcsChannel
from repro.codecs import Asn1Field, Asn1LiteCodec, Asn1Schema
from repro.cryptolite import AesCtr, generate_keypair
from repro.e2.messages import indication
from repro.e2.vendors import vendor_a, vendor_b
from repro.experiments.fig5d import make_ues
from repro.gnb import FaultPolicy, GnbHost, SliceRuntime, UeContext
from repro.plugins import plugin_source, plugin_wasm
from repro.sched import ProportionalFairScheduler, TargetRateInterSlice
from repro.sched.types import UeGrant
from repro.traffic import FullBufferSource
from repro.wacc import compile_source

#: repetitions per row; pure-Python AES takes ~20 ms a call, so it gets 10
REPS = 200


def timed(ablation: str, variant: str, fn, note: str = "", reps: int = REPS) -> tuple:
    """``fn`` once untimed, then its median over ``reps`` calls in
    microseconds."""
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return ablation, variant, statistics.median(samples) / 1000, note


def overhead_rows() -> list[tuple]:
    ues = make_ues(10)
    slot = itertools.count(1)
    native = ProportionalFairScheduler()
    shipped = SchedulerPlugin.load(plugin_wasm("pf"), name="pf")
    shipped.host.limits.fuel = 10_000_000
    unoptimized = SchedulerPlugin.load(
        compile_source(plugin_source("pf"), optimize=False), name="pf-O0"
    )
    unoptimized.host.limits.fuel = 50_000_000
    for plugin in (shipped, unoptimized):
        plugin.host.promote()  # time the compiled tier a running scheduler is on
    grants = pack_grants([UeGrant(u.ue_id, 5) for u in ues])
    return [
        timed("overhead", "native Python PF", lambda: native.schedule(52, ues, next(slot))),
        timed("overhead", "Wasm PF plugin", lambda: shipped.schedule(52, ues, next(slot))),
        timed("overhead", "Wasm PF, no inlining",
              lambda: unoptimized.schedule(52, ues, next(slot))),
        timed("overhead", "ABI pack + unpack",
              lambda: (pack_sched_input(1, 52, ues), unpack_grants(grants))),
    ]


def make_indication() -> dict:
    rng = random.Random(1)
    ue_reports = [
        {
            "ue_id": i,
            "slice_id": i % 3,
            "cqi": rng.randint(1, 15),
            "neighbor_cell": rng.randint(0, 3),
            "neighbor_cqi": rng.randint(1, 15),
            "avg_tput_bps": rng.uniform(1e5, 2e7),
            "buffer_bytes": rng.randint(0, 1 << 20),
        }
        for i in range(10)
    ]
    slice_reports = [
        {"slice_id": s, "measured_bps": rng.uniform(1e6, 2e7), "target_bps": 1e7}
        for s in range(3)
    ]
    return indication(1, 12345, ue_reports, slice_reports)


def codec_rows() -> list[tuple]:
    msg = make_indication()
    rows = []
    for variant, profile, reps in (
        ("JSON indication", vendor_a(), REPS),
        ("pbwire indication", vendor_b(), REPS),
        ("pbwire + AES-CTR", vendor_b(aes_key=b"0123456789abcdef"), 10),
    ):
        rows.append(timed("codec", variant, lambda: profile.decode(profile.encode(msg)),
                          f"{len(profile.encode(msg))} B", reps))
    schema = Asn1Schema(
        "Control",
        [
            Asn1Field("msg_type", "int", 0, 15),
            Asn1Field("request_id", "int", 0, 65535),
            Asn1Field("action", "int", 0, 3),
            Asn1Field("target", "int", 0, 65535),
            Asn1Field("value", "int", 0, (1 << 27) - 1),
        ],
    )
    codec = Asn1LiteCodec(schema)
    control = {"msg_type": 5, "request_id": 77, "action": 1, "target": 2, "value": 9_000_000}
    rows.append(timed("codec", "ASN.1-lite control",
                      lambda: codec.decode(codec.encode(control)),
                      f"{len(codec.encode(control))} B ({schema.bit_size(control)} bits)"))
    ctr = AesCtr(b"0123456789abcdef", b"nonce--1")
    payload = bytes(range(256)) * 4
    rows.append(timed("crypto", "AES-CTR 1 KiB", lambda: ctr.encrypt(payload), reps=10))
    keypair = generate_keypair(bits=512, seed=7)
    rng = random.Random(3)
    rows.append(timed("crypto", "RSA-512 round trip",
                      lambda: keypair.decrypt(keypair.encrypt(b"quota update", rng=rng))))
    return rows


def make_gnb(plugin_name: str, quarantine_after: int) -> GnbHost:
    gnb = GnbHost(
        inter_slice=TargetRateInterSlice({1: 5e6}),
        fault_policy=FaultPolicy(quarantine_after=quarantine_after),
    )
    runtime = gnb.add_slice(SliceRuntime(1, "mvno"))
    runtime.use_plugin(SchedulerPlugin.load(plugin_wasm(plugin_name), name=plugin_name))
    gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
    return gnb


def fault_policy_rows() -> list[tuple]:
    quarantined = make_gnb("fault_null", quarantine_after=2)
    quarantined.run(5)  # two faults trip the quarantine
    return [
        timed("fault policy", "healthy plugin", make_gnb("rr", quarantine_after=3).step),
        # never quarantined: every slot faults and falls back
        timed("fault policy", "faulting plugin, fallback",
              make_gnb("fault_null", quarantine_after=10**9).step),
        timed("fault policy", "faulting plugin, quarantined", quarantined.step),
    ]


def main() -> None:
    rows = overhead_rows() + codec_rows() + fault_policy_rows()
    print(f"{'ablation':13s} {'variant':29s} {'median us':>10s}  note")
    for ablation, variant, us, note in rows:
        print(f"{ablation:13s} {variant:29s} {us:10.1f}  {note}")


if __name__ == "__main__":
    main()

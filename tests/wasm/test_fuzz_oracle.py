"""Differential-oracle tests: every leg agrees on everything observable.

The fast tests sweep a few dozen seeds through the full oracle (legacy,
threaded, aot, checkpoint/restore round-trip, cross-engine restore,
in-place tier-up).  The
``slow``-marked campaign is the nightly workhorse — a thousand-module
sweep that tier-1 skips.
"""

import math

import pytest

from repro.fuzz.gen import ModuleGen
from repro.fuzz.oracle import canon_state, canon_value, differential, run_trace
from repro.fuzz.runner import _iteration_rng, run_campaign
from repro.wasm import Instance, Store, decode_module
from repro.wasm.wat import assemble

N_SEEDS = 30


def case(seed: int):
    return ModuleGen(_iteration_rng(seed, 1)).generate()


class TestCanonicalization:
    def test_signed_zero_distinct(self):
        assert canon_value(0.0) != canon_value(-0.0)

    def test_nan_is_deterministic(self):
        assert canon_value(math.nan) == canon_value(math.nan)

    def test_int_float_distinct(self):
        assert canon_value(1) != canon_value(1.0)

    def test_void(self):
        assert canon_value(None) == "void"


class TestDifferential:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_generated_modules_agree(self, seed):
        gm = case(seed)
        result = differential(gm.wasm, gm.calls)
        assert result.ok, result.reason

    def test_digest_material_is_stable(self):
        gm = case(2)
        a = differential(gm.wasm, gm.calls).digest_material
        b = differential(gm.wasm, gm.calls).digest_material
        assert a == b

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_decodes_once_and_changes_nothing_a_leg_sees(self, seed, monkeypatch):
        # every leg runs on the one module `differential` decoded (so an
        # engine's bodies are lowered once per case), and each observes
        # what it would on a decode of its own - the campaign digest folds
        # the legacy leg's observations, so it cannot move either
        from repro.fuzz import oracle

        decodes = []
        decode = oracle.decode_module

        def counting(wasm):
            decodes.append(wasm)
            return decode(wasm)

        monkeypatch.setattr(oracle, "decode_module", counting)
        gm = case(seed)
        result = differential(gm.wasm, gm.calls)
        assert result.ok and len(result.legs) >= 4
        assert decodes == [gm.wasm]
        split = len(gm.calls) // 2
        for engine in ("legacy", "threaded", "aot"):
            solo = run_trace(decode_module(gm.wasm), gm.calls, engine, capture_at=split)
            shared = result.legs[engine]
            assert (solo.outcomes, solo.final) == (shared.outcomes, shared.final)
        assert result.digest_material == repr(solo.outcomes) + repr(solo.final)


WAT_STATEFUL = """(module (memory 1)
  (global $n (mut i32) (i32.const 0))
  (func (export "f0") (param i32) (result i32)
    (global.set $n (i32.add (global.get $n) (i32.const 1)))
    (i32.store (i32.const 16) (local.get 0))
    (i32.load (i32.const 16)))
  (func (export "f1") (result i32) (global.get $n)))"""


class TestRunTrace:
    def test_checkpoint_captures_midpoint_state(self):
        wasm = assemble(WAT_STATEFUL)
        calls = [("f0", (7,)), ("f0", (9,)), ("f1", ())]
        trace = run_trace(decode_module(wasm), calls, "threaded", capture_at=2)
        assert trace.checkpoint is not None
        # two f0 calls before the checkpoint
        globals_ = dict(trace.checkpoint.globals)
        assert globals_[0] == 2
        assert trace.outcomes[2][:2] == ("ok", ("i", 2))

    def test_tier_up_leg_switches_engine_in_place(self):
        wasm = assemble(WAT_STATEFUL)
        calls = [("f0", (7,)), ("f0", (9,)), ("f1", ()), ("f0", (1,))]
        legacy = run_trace(decode_module(wasm), calls, "legacy")
        tiered = run_trace(decode_module(wasm), calls, "threaded", retier_at=2)
        assert tiered.outcomes == legacy.outcomes
        assert tiered.final == legacy.final
        result = differential(wasm, calls)
        assert result.ok, result.reason
        assert result.legs["tier-up"].outcomes == legacy.outcomes

    def test_restore_reproduces_tail(self):
        wasm = assemble(WAT_STATEFUL)
        calls = [("f0", (7,)), ("f1", ()), ("f1", ())]
        full = run_trace(decode_module(wasm), calls, "threaded", capture_at=1)
        replay = run_trace(
            decode_module(wasm), calls[1:], "legacy", restore_from=full.checkpoint
        )
        assert replay.outcomes == full.outcomes[1:]
        assert replay.final == full.final

    def test_canon_state_sees_memory_writes(self):
        wasm = assemble(WAT_STATEFUL)
        a = run_trace(decode_module(wasm), [("f0", (1,))], "threaded")
        b = run_trace(decode_module(wasm), [("f0", (2,))], "threaded")
        assert a.final != b.final

    def test_capture_restore_roundtrip_preserves_memory_bytes(self):
        instance = Instance(
            decode_module(assemble(WAT_STATEFUL)), store=Store()
        )
        instance.call("f0", 41, fuel=1000)
        snapshot = instance.capture_state()
        fresh = Instance(decode_module(assemble(WAT_STATEFUL)), store=Store())
        fresh.restore_state(snapshot)
        assert canon_state(fresh.capture_state()) == canon_state(snapshot)
        assert fresh.call("f1", fuel=1000) == 1


@pytest.mark.slow
class TestCampaignSoak:
    def test_thousand_module_campaign_finds_nothing(self):
        report = run_campaign(11, 1000)
        assert report.executed == 1000
        assert report.ok, [
            (f.iteration, f.kind, f.detail) for f in report.failures
        ]

    def test_campaign_digest_deterministic(self):
        a = run_campaign(13, 300)
        b = run_campaign(13, 300)
        assert a.digest == b.digest
        assert a.ok and b.ok

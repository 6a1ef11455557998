"""Chaos layer tests: schedules, injectors at every layer, and replay.

Covers the seeded :class:`FaultSchedule` (determinism, per-site stream
independence, env parsing), each plugin-layer injection kind through
:class:`PluginHost.call`, each transport fault through
:class:`ChaosEndpoint`, and the satellite regression: a chaos-provoked
fault captured by the flight recorder replays with the same trap code
and fuel count.
"""

import pytest

from repro import obs
from repro.abi import wire
from repro.abi.host import PluginError, PluginHost
from repro.chaos.schedule import (
    ChaosConfig,
    ChaosInjection,
    FaultSchedule,
    OneShotChaos,
    schedule_from_spec,
)
from repro.chaos.transport import ChaosEndpoint
from repro.experiments.fig5d import make_ues
from repro.netio import InProcNetwork, NetworkError
from repro.plugins import plugin_wasm


def sched_payload(slot: int = 0, prbs: int = 20, n_ues: int = 3) -> bytes:
    return wire.pack_sched_input(slot, prbs, make_ues(n_ues))


def host_with(config: ChaosConfig, name: str = "rr", **kwargs) -> PluginHost:
    return PluginHost(
        plugin_wasm(name), name=name, chaos=FaultSchedule(config), **kwargs
    )


class TestFaultSchedule:
    def test_same_seed_same_draws(self):
        def draws(seed):
            schedule = FaultSchedule(ChaosConfig.soak(seed))
            for _ in range(500):
                schedule.draw_plugin("rr")
                schedule.draw_transport("ric")
            return schedule.injected

        assert draws(42) == draws(42)
        assert draws(42) != draws(43)

    def test_sites_are_independent_streams(self):
        """Draws at one site never perturb the schedule at another."""
        lone = FaultSchedule(ChaosConfig.soak(7))
        lone_draws = [lone.draw_plugin("pf") for _ in range(200)]

        mixed = FaultSchedule(ChaosConfig.soak(7))
        mixed_draws = []
        for i in range(200):
            mixed.draw_plugin("rr")  # interleaved traffic at another site
            if i % 3 == 0:
                mixed.draw_transport("ric")
            mixed_draws.append(mixed.draw_plugin("pf"))
        assert lone_draws == mixed_draws

    def test_injection_indices_are_per_site_event_counts(self):
        schedule = FaultSchedule(ChaosConfig(seed=1, trap=1.0))
        first = schedule.draw_plugin("rr")
        second = schedule.draw_plugin("rr")
        assert (first.index, second.index) == (0, 1)
        assert first.site == "plugin:rr"

    def test_zero_rates_never_inject(self):
        schedule = FaultSchedule(ChaosConfig(seed=1))
        assert all(schedule.draw_plugin("rr") is None for _ in range(100))
        assert schedule.injected == []

    def test_injection_json_round_trip(self):
        injection = ChaosInjection("trap", "plugin:rr", 5, 17, 3)
        assert ChaosInjection.from_json(injection.to_json()) == injection

    def test_counts(self):
        schedule = FaultSchedule(ChaosConfig(seed=1, trap=1.0))
        for _ in range(3):
            schedule.draw_plugin("rr")
        assert schedule.counts() == {"trap": 3}


class TestScheduleFromEnv:
    def test_bare_seed_enables_soak_mix(self):
        schedule = schedule_from_spec("seed=42")
        assert schedule.seed == 42
        assert schedule.config == ChaosConfig.soak(42)

    def test_explicit_rates(self):
        schedule = schedule_from_spec("seed=7,trap=0.5,drop=0.25")
        assert schedule.config.trap == 0.5
        assert schedule.config.drop == 0.25
        assert schedule.config.fuel_cut == 0.0  # unnamed rates stay zero

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            schedule_from_spec("seed=1,explode=0.5")


class TestPluginInjection:
    def test_trap(self):
        host = host_with(ChaosConfig(seed=1, trap=1.0))
        with pytest.raises(PluginError, match="injected trap") as excinfo:
            host.call(sched_payload())
        assert excinfo.value.kind == "trap"
        assert excinfo.value.__cause__.code == "chaos"

    def test_abi_violation(self):
        host = host_with(ChaosConfig(seed=1, abi=1.0))
        with pytest.raises(PluginError, match="injected ABI") as excinfo:
            host.call(sched_payload())
        assert excinfo.value.kind == "abi"

    def test_oversize(self):
        host = host_with(ChaosConfig(seed=1, oversize=1.0))
        with pytest.raises(PluginError, match="oversized") as excinfo:
            host.call(sched_payload())
        assert excinfo.value.kind == "abi"

    def test_deadline(self):
        host = host_with(ChaosConfig(seed=1, deadline=1.0))
        with pytest.raises(PluginError, match="deadline blowout") as excinfo:
            host.call(sched_payload())
        assert excinfo.value.kind == "deadline"
        # the message is time-free so fault logs stay byte-reproducible
        assert "us" not in str(excinfo.value)

    def test_fuel_cut(self):
        host = host_with(ChaosConfig(seed=1, fuel_cut=1.0))
        with pytest.raises(PluginError) as excinfo:
            host.call(sched_payload())
        assert excinfo.value.kind == "fuel"

    def test_bitflip_is_contained(self):
        """A flipped memory bit may corrupt output or trap - never escape."""
        host = host_with(ChaosConfig(seed=1, bitflip=1.0))
        for slot in range(20):
            try:
                host.call(sched_payload(slot))
            except PluginError:
                pass  # contained by the sandbox boundary

    def test_injection_is_deterministic_across_hosts(self):
        def outcomes(seed):
            host = host_with(ChaosConfig.soak(seed))
            results = []
            for slot in range(100):
                try:
                    result = host.call(sched_payload(slot))
                    results.append(("ok", result.output))
                except PluginError as exc:
                    results.append((exc.kind, str(exc)))
            return results

        assert outcomes(11) == outcomes(11)


class TestChaosEndpoint:
    def wrap(self, config: ChaosConfig):
        net = InProcNetwork()
        sender = ChaosEndpoint(net.endpoint("a"), FaultSchedule(config))
        receiver = net.endpoint("b")
        return sender, receiver

    @staticmethod
    def drain(receiver):
        out = []
        while (item := receiver.recv()) is not None:
            out.append(item)
        return out

    def test_drop(self):
        sender, receiver = self.wrap(ChaosConfig(seed=1, drop=1.0))
        sender.send("b", b"hello")
        assert self.drain(receiver) == []
        assert sender.stats == {"drop": 1}

    def test_dup(self):
        sender, receiver = self.wrap(ChaosConfig(seed=1, dup=1.0))
        sender.send("b", b"hello")
        assert self.drain(receiver) == [("a", b"hello"), ("a", b"hello")]

    def test_corrupt_flips_exactly_one_bit(self):
        sender, receiver = self.wrap(ChaosConfig(seed=1, corrupt=1.0))
        sender.send("b", b"\x00" * 8)
        ((_, payload),) = self.drain(receiver)
        assert len(payload) == 8
        assert sum(bin(byte).count("1") for byte in payload) == 1

    def test_delay_holds_then_reorders(self):
        sender, receiver = self.wrap(ChaosConfig(seed=1, delay=1.0))
        sender.send("b", b"m1")
        assert self.drain(receiver) == []  # held, not lost
        sender.flush()
        assert self.drain(receiver) == [("a", b"m1")]

    def test_fail_raises_network_error(self):
        sender, _ = self.wrap(ChaosConfig(seed=1, fail=1.0))
        with pytest.raises(NetworkError, match="injected send failure"):
            sender.send("b", b"hello")

    def test_clean_schedule_passes_through(self):
        sender, receiver = self.wrap(ChaosConfig(seed=1))
        for i in range(10):
            sender.send("b", bytes([i]))
        assert self.drain(receiver) == [("a", bytes([i])) for i in range(10)]
        assert sender.stats == {}


class TestChaosReplay:
    """Satellite 6: flight-recorded chaos faults replay deterministically."""

    @pytest.fixture(autouse=True)
    def telemetry(self):
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        obs.disable()

    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    def test_injected_trap_replays_with_same_code(self, engine):
        host = host_with(ChaosConfig(seed=9, trap=1.0), engine=engine)
        with pytest.raises(PluginError) as original:
            host.call(sched_payload())
        record = obs.OBS.flight.records()[-1]
        assert record.attrs["chaos"]["kind"] == "trap"

        with pytest.raises(PluginError) as replayed:
            host.replay(record)
        assert replayed.value.kind == original.value.kind == "trap"
        assert replayed.value.__cause__.code == original.value.__cause__.code
        replay_record = obs.OBS.flight.records()[-1]
        assert replay_record.outcome == record.outcome == "trap"
        assert replay_record.attrs["chaos"] == record.attrs["chaos"]

    @pytest.mark.parametrize("engine", ["legacy", "threaded", "aot"])
    def test_injected_fuel_cut_replays_with_same_fuel_count(self, engine):
        host = host_with(ChaosConfig(seed=9, fuel_cut=1.0), engine=engine)
        with pytest.raises(PluginError) as original:
            host.call(sched_payload())
        assert original.value.kind == "fuel"
        record = obs.OBS.flight.records()[-1]
        assert record.attrs["chaos"]["kind"] == "fuel_cut"
        assert record.fuel_used is not None

        with pytest.raises(PluginError) as replayed:
            host.replay(record)
        assert replayed.value.kind == "fuel"
        replay_record = obs.OBS.flight.records()[-1]
        assert replay_record.outcome == "fuel"
        assert replay_record.fuel_used == record.fuel_used

    def test_replay_of_clean_record_stays_clean_under_env_chaos(self):
        """A no-chaos capture re-issued on a host whose own schedule traps
        every call runs clean: only the recorded injection ever fires."""
        host = PluginHost(plugin_wasm("rr"), name="rr")
        result = host.call(sched_payload())
        record = obs.OBS.flight.records()[-1]
        chaotic = host_with(ChaosConfig(seed=1, trap=1.0))
        assert chaotic.replay(record).output == result.output
        replayed = chaotic.reissue(record.input_bytes, record.entry, None, None)
        assert replayed.output == result.output

    def test_one_shot_chaos_fires_once(self):
        injection = ChaosInjection("trap", "plugin:rr", 0)
        one_shot = OneShotChaos(injection)
        assert one_shot.draw_plugin("rr") == injection
        assert one_shot.draw_plugin("rr") is None
        assert OneShotChaos(None).draw_plugin("rr") is None

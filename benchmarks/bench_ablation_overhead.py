"""§6C ablations - where does plugin overhead come from?

Three ablations around one fixed scheduling workload (PF, 10 UEs, 52 PRBs):

1. native Python scheduler (zero sandbox overhead, the floor);
2. Wasm plugin, optimized (inlining), fuel-metered (the default);
3. Wasm plugin compiled without the inlining optimization.

Fuel metering has no off switch to ablate: every engine meters every
call, and a host without a fuel limit runs on an unlimited budget.

Plus the serialization share: pack/unpack alone.
"""

import pytest

from repro.abi import SchedulerPlugin, pack_sched_input, unpack_grants
from repro.abi.wire import pack_grants
from repro.experiments.fig5d import make_ues
from repro.plugins import plugin_source, plugin_wasm
from repro.sched import ProportionalFairScheduler
from repro.wacc import compile_source

N_UES = 10
UES = make_ues(N_UES)


@pytest.mark.benchmark(group="ablation-overhead")
def test_native_python_scheduler(benchmark):
    sched = ProportionalFairScheduler()
    slot = [0]

    def call():
        slot[0] += 1
        return sched.schedule(52, UES, slot[0])

    grants = benchmark(call)
    assert grants


@pytest.mark.benchmark(group="ablation-overhead")
def test_wasm_plugin_default(benchmark):
    plugin = SchedulerPlugin.load(plugin_wasm("pf"), name="pf")
    plugin.host.limits.fuel = 10_000_000
    slot = [0]

    def call():
        slot[0] += 1
        return plugin.schedule(52, UES, slot[0])

    assert benchmark(call).grants


@pytest.mark.benchmark(group="ablation-overhead")
def test_wasm_plugin_unoptimized(benchmark):
    raw = compile_source(plugin_source("pf"), optimize=False)
    plugin = SchedulerPlugin.load(raw, name="pf-O0")
    plugin.host.limits.fuel = 50_000_000
    slot = [0]

    def call():
        slot[0] += 1
        return plugin.schedule(52, UES, slot[0])

    assert benchmark(call).grants


@pytest.mark.benchmark(group="ablation-overhead")
def test_serialization_share(benchmark):
    """Pack + unpack alone: the ABI overhead included in Fig. 5d numbers."""
    from repro.sched.types import UeGrant

    grants = [UeGrant(u.ue_id, 5) for u in UES]
    packed_out = pack_grants(grants)

    def roundtrip():
        payload = pack_sched_input(1, 52, UES)
        return len(payload) + len(unpack_grants(packed_out))

    assert benchmark(roundtrip) > 0

"""Near-RT RIC benches: xApp invocation and the E2 closed loop.

§4B has no figure of its own; these benches quantify the RIC-side costs
the design implies - per-indication xApp execution (vs the near-RT 10 ms -
1 s control-loop budget), and the full indication -> xApp -> control round
trip over both transports.
"""

import time

import pytest

from repro.e2 import CommChannel, vendors
from repro.netio import InProcNetwork
from repro.plugins import plugin_wasm
from repro.ric import MSG_SLICE_KPI, MSG_UE_MEAS, NearRtRic, pack_xapp_input


def make_ric() -> NearRtRic:
    net = InProcNetwork()
    return NearRtRic(CommChannel(net.endpoint("ric"), vendors.vendor_a()))


@pytest.mark.benchmark(group="ric")
@pytest.mark.parametrize("n_ues", [5, 20, 50])
def test_traffic_steering_xapp_call(benchmark, n_ues):
    ric = make_ric()
    runtime = ric.load_xapp("ts", plugin_wasm("xapp_ts"), (MSG_UE_MEAS,))
    records = [(i, 5 + i % 8, 1 + i % 3, 9, 1e6, 0.0) for i in range(n_ues)]
    payload = pack_xapp_input(MSG_UE_MEAS, records)

    result = benchmark(runtime.host.call, payload, entry="on_indication")
    assert result.elapsed_us < 10_000  # well under the 10 ms near-RT floor


@pytest.mark.benchmark(group="ric")
def test_sla_xapp_call(benchmark):
    ric = make_ric()
    runtime = ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
    records = [(s, 0, 0, 0, 3e6, 5e6) for s in range(8)]
    payload = pack_xapp_input(MSG_SLICE_KPI, records)
    benchmark(runtime.host.call, payload, entry="on_indication")


@pytest.mark.benchmark(group="ric")
@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_e2_closed_loop_roundtrip(benchmark, transport):
    """indication in -> xApp decision -> control out, over a real channel."""
    from repro.abi import SchedulerPlugin
    from repro.channel import FixedMcsChannel
    from repro.e2 import E2NodeAgent
    from repro.gnb import GnbHost, SliceRuntime, UeContext
    from repro.netio import TcpNetwork
    from repro.sched import TargetRateInterSlice
    from repro.traffic import FullBufferSource

    net = TcpNetwork() if transport == "tcp" else InProcNetwork()
    try:
        gnb = GnbHost(inter_slice=TargetRateInterSlice({1: 5e6}))
        runtime = gnb.add_slice(SliceRuntime(1, "mvno"))
        runtime.use_plugin(SchedulerPlugin.load(plugin_wasm("rr"), name="rr"))
        gnb.attach_ue(UeContext(1, 1, FixedMcsChannel(28), FullBufferSource()))
        vendor = vendors.vendor_a()
        node = E2NodeAgent(gnb, CommChannel(net.endpoint("gnb1"), vendor), "gnb1")
        ric = NearRtRic(CommChannel(net.endpoint("ric"), vendor))
        ric.load_xapp("sla", plugin_wasm("xapp_sla"), (MSG_SLICE_KPI,))
        ric.connect("gnb1", period_slots=1)  # indication every slot
        timeout = 5.0 if transport == "tcp" else 0.0
        # the subscription crosses a socket too: let it land before the
        # first round, which under --benchmark-disable is the only one
        deadline = time.monotonic() + timeout
        while not node.subscriptions and time.monotonic() < deadline:
            node.handle_messages()
            time.sleep(0.001)

        def loop_once():
            gnb.step()
            node.step()
            if transport == "tcp":
                # block until the indication crosses the socket; on the
                # first round the handshake responses cross it first
                seen = ric.indications_seen
                while ric.indications_seen == seen:
                    arrived = ric.channel.poll(timeout=timeout)
                    if not arrived:
                        break  # timed out: the assert below reports it
                    for source, message in arrived:
                        if message["msg"] == "ric_indication":
                            ric.indications_seen += 1
                            ric._handle_indication(source, message)
            else:
                ric.step()

        benchmark.pedantic(loop_once, rounds=20, iterations=1, warmup_rounds=3)
        assert ric.indications_seen > 0
    finally:
        if transport == "tcp":
            net.close()


@pytest.mark.benchmark(group="ric")
def test_message_guard_screening(benchmark):
    """Per-message cost of the sandboxed §3B payload guard."""
    from repro.e2.comm import MessageGuard
    from repro.e2.messages import indication
    from repro.e2.vendors import vendor_b

    guard = MessageGuard()
    payload = vendor_b().encode(
        indication(1, 5, [{"ue_id": i, "cqi": 10} for i in range(10)], [])
    )
    assert benchmark(guard.check, payload)


@pytest.mark.benchmark(group="ric")
def test_message_guard_rejects_garbage(benchmark):
    from repro.e2.comm import MessageGuard

    guard = MessageGuard()
    garbage = b"\x80" * 64

    assert not benchmark(guard.check, garbage)

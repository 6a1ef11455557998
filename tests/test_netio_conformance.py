"""Transport-backend conformance: one contract, two implementations.

Every behaviour the cluster relies on - ordering, binary safety, peer
lifecycle, backpressure accounting, shutdown - must hold identically on
the inline queue bus and the TCP socket bus, or scaling sweeps would
change semantics when they change ``--mode``.  Each test runs against
both via the ``net`` fixture.
"""

import pytest

from repro.netio import (
    BatchSender,
    InProcNetwork,
    NetworkError,
    TcpNetwork,
)

BACKENDS = ("inline", "tcp")


def _make_network(backend: str):
    return InProcNetwork() if backend == "inline" else TcpNetwork()


@pytest.fixture(params=BACKENDS)
def net(request):
    with _make_network(request.param) as network:
        yield network


def _reopen(net, name: str, old) -> object:
    """Recreate ``name`` the way a restarted process would."""
    if isinstance(net, TcpNetwork):
        return net.endpoint(name, port=old.port)
    return net.endpoint(name)


class TestDelivery:
    def test_roundtrip(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"hello")
        assert b.recv(timeout=5.0) == ("a", b"hello")

    def test_ordering_preserved(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        for i in range(100):
            a.send("b", i.to_bytes(4, "little"))
        got = []
        while len(got) < 100:
            item = b.recv(timeout=5.0)
            assert item is not None, f"lost messages after {len(got)}"
            assert item[0] == "a"
            got.append(int.from_bytes(item[1], "little"))
        assert got == list(range(100))

    def test_binary_safety(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        payload = bytes(range(256)) * 16
        a.send("b", payload)
        assert b.recv(timeout=5.0) == ("a", payload)

    def test_empty_payload(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"")
        assert b.recv(timeout=5.0) == ("a", b"")

    def test_bidirectional(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"ping")
        src, _ = b.recv(timeout=5.0)
        b.send(src, b"pong")
        assert a.recv(timeout=5.0) == ("b", b"pong")

    def test_fan_in_two_producers(self, net):
        sink = net.endpoint("sink")
        p0 = net.endpoint("p0")
        p1 = net.endpoint("p1")
        p0.send("sink", b"from0")
        p1.send("sink", b"from1")
        got = {}
        while len(got) < 2:
            item = sink.recv(timeout=5.0)
            assert item is not None
            got[item[0]] = item[1]
        assert got == {"p0": b"from0", "p1": b"from1"}

    def test_recv_empty_returns_none(self, net):
        a = net.endpoint("a")
        assert a.recv() is None
        assert a.recv(timeout=0.05) is None


class TestNaming:
    def test_unknown_dest_raises(self, net):
        a = net.endpoint("a")
        with pytest.raises(NetworkError):
            a.send("ghost", b"x")

    def test_duplicate_name_rejected(self, net):
        net.endpoint("a")
        with pytest.raises(NetworkError):
            net.endpoint("a")

    def test_source_name_travels_verbatim(self, net):
        b = net.endpoint("b")
        for name in ("worker-" + "x" * 40, "cell/7:\u03b1 \u2603", "a b\tc\n"):
            a = net.endpoint(name)
            a.send("b", b"payload")
            assert b.recv(timeout=5.0) == (name, b"payload")
            b.send(name, b"back")  # and it is addressable under that name
            assert a.recv(timeout=5.0) == ("b", b"back")


class TestPeerLifecycle:
    def test_send_to_closed_peer_raises(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"pre")
        assert b.recv(timeout=5.0) == ("a", b"pre")
        b.close()
        with pytest.raises(NetworkError):
            a.send("b", b"post")

    def test_restart_under_same_name(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"first")
        assert b.recv(timeout=5.0) == ("a", b"first")
        b.close()
        reborn = _reopen(net, "b", b)
        a.send("b", b"second")
        assert reborn.recv(timeout=5.0) == ("a", b"second")

    def test_close_idempotent(self, net):
        a = net.endpoint("a")
        a.close()
        a.close()

    def test_endpoint_context_manager(self, net):
        with net.endpoint("a") as a:
            with net.endpoint("b") as b:
                a.send("b", b"ctx")
                assert b.recv(timeout=5.0) == ("a", b"ctx")
        # both names freed for reuse
        net.endpoint("a")
        net.endpoint("b")

    def test_drain_returns_all_queued(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        for i in range(10):
            a.send("b", bytes([i]))
        import time

        got = []
        deadline = time.monotonic() + 5.0
        while len(got) < 10 and time.monotonic() < deadline:
            got.extend(p[0] for _, p in b.drain())
            time.sleep(0.01)
        assert got == list(range(10))


class TestNetworkShutdown:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_network_context_manager(self, backend):
        with _make_network(backend) as network:
            a = network.endpoint("a")
            b = network.endpoint("b")
            a.send("b", b"in-scope")
            assert b.recv(timeout=5.0) == ("a", b"in-scope")
        with pytest.raises((NetworkError, OSError)):
            a.send("b", b"after close")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_twice(self, backend):
        network = _make_network(backend)
        network.endpoint("a")
        network.close()
        network.close()


class TestBatchSenderBackpressure:
    """The uplink batcher's drop accounting is transport-independent."""

    def test_drop_counter_on_full_queue(self, net):
        a = net.endpoint("a")
        net.endpoint("b")
        sender = BatchSender(a, "b", max_queue=8)
        accepted = sum(sender.offer(bytes([i])) for i in range(12))
        assert accepted == 8
        assert sender.dropped == 4
        assert sender.offered == 12

    def test_flush_delivers_survivors(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        sender = BatchSender(a, "b", max_queue=8)
        for i in range(12):
            sender.offer(bytes([i]))
        assert sender.flush(slot_range=(0, 3)) == 8
        frames = []
        while True:
            item = b.recv(timeout=1.0)
            if item is None:
                break
            frames.append(item)
        assert frames, "flush must put at least one frame on the wire"
        assert sender.messages_sent == 8
        assert sender.queued == 0

    def test_oversize_payload_counted_separately(self, net):
        a = net.endpoint("a")
        net.endpoint("b")
        sender = BatchSender(a, "b", max_queue=8)
        from repro.netio.framing import MAX_FRAME

        assert not sender.offer(b"\x00" * MAX_FRAME)
        assert sender.dropped_oversize == 1
        assert sender.dropped == 1

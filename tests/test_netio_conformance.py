"""Transport-backend conformance: one contract, two implementations.

Every behaviour the cluster relies on - ordering, binary safety, peer
lifecycle, backpressure accounting, shutdown - must hold identically on
the inline queue bus and the TCP socket bus, or scaling sweeps would
change semantics when they change ``--mode``.  Each test runs against
both via the ``net`` fixture.
"""

import sys
import threading
import time

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
        start = time.monotonic()
        assert a.recv(timeout=0.2) is None
        assert time.monotonic() - start >= 0.15  # it waited for the timeout


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


class TestInbox:
    """Each endpoint's inbox: one deque that senders (in-process) or reader
    threads (TCP) append to, read without a lock unless a ``recv`` waits."""

    @staticmethod
    def _collect(endpoint, n: int) -> list[int]:
        """``n`` payloads as ints: wait for one, then drain the rest (a
        reader that spun on ``drain`` would hold the interpreter lock
        the TCP reader threads need)."""
        got: list[int] = []
        deadline = time.monotonic() + 10.0
        while len(got) < n and time.monotonic() < deadline:
            item = endpoint.recv(timeout=0.5)
            if item is not None:
                got.append(int.from_bytes(item[1], "little"))
                got.extend(int.from_bytes(p, "little") for _, p in endpoint.drain())
        return got

    def test_fifo_across_interleaved_send_and_drain(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        got, sent = [], 0
        for burst in (1, 5, 2, 9, 3):
            for _ in range(burst):
                a.send("b", sent.to_bytes(4, "little"))
                sent += 1
            first = b.recv(timeout=5.0)  # interleave one recv per burst
            got.append(int.from_bytes(first[1], "little"))
            if isinstance(net, InProcNetwork):
                # delivered on send, so one drain takes the rest
                got.extend(int.from_bytes(p, "little") for _, p in b.drain())
                assert len(got) == sent
            else:
                got.extend(self._collect(b, sent - len(got)))
        assert got == list(range(sent))
        assert b.drain() == [] and b.recv() is None

    def test_drain_while_a_producer_thread_appends(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        n = 2000

        def produce():
            for i in range(n):
                a.send("b", i.to_bytes(4, "little"))

        producer = threading.Thread(target=produce)
        producer.start()
        got = self._collect(b, n)
        producer.join(timeout=10.0)
        assert not producer.is_alive()
        assert got == list(range(n))  # nothing lost, duplicated or reordered
        assert b.recv(timeout=0.05) is None

    def test_many_producers_and_a_waiting_reader_under_fast_switching(self, net):
        """More producer threads than cores, a reader alternating waiting
        recvs and drains, and a thread switch every microsecond: every
        message arrives once, each producer's in its send order."""
        sink = net.endpoint("sink")
        producers = [net.endpoint(f"p{k}") for k in range(4)]
        n = 10000
        got: dict[str, list[int]] = {p.name: [] for p in producers}

        def produce(endpoint):
            for i in range(n):
                endpoint.send("sink", i.to_bytes(4, "little"))

        def consume():
            deadline = time.monotonic() + 30.0
            while sum(map(len, got.values())) < 4 * n:
                if time.monotonic() > deadline:
                    return
                item = sink.recv(timeout=0.01)
                items = [item] + sink.drain() if item is not None else []
                for source, payload in items:
                    got[source].append(int.from_bytes(payload, "little"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=consume)] + [
                threading.Thread(target=produce, args=(p,)) for p in producers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=40.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(values == list(range(n)) for values in got.values())
        assert sink.recv() is None

    def test_a_waiting_recv_wakes_on_a_put_from_another_thread(self, net):
        a = net.endpoint("a")
        b = net.endpoint("b")
        got = []
        receiver = threading.Thread(
            target=lambda: got.append((b.recv(timeout=10.0), time.monotonic()))
        )
        receiver.start()
        time.sleep(0.1)  # the receiver is waiting by now
        assert not got
        sent_at = time.monotonic()
        a.send("b", b"wake")
        receiver.join(timeout=10.0)
        assert not receiver.is_alive()
        (item, woke_at), = got
        assert item == ("a", b"wake")
        assert woke_at - sent_at < 2.0  # woken by the put, not the timeout


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

"""Transport tests: framing, in-proc and TCP networks."""

import random
import socket
import struct
import time
from functools import partial

import pytest

from repro.netio import (
    FrameError,
    InProcNetwork,
    NetworkError,
    TcpNetwork,
    read_frame,
    write_frame,
)
from repro.netio.bus import RECV_AHEAD, recv_exact


class TestFraming:
    def test_roundtrip(self):
        frame = write_frame("ric", b"\x01\x02payload")
        buf = bytearray(frame)

        def recv_exact(n):
            out = bytes(buf[:n])
            del buf[:n]
            return out

        source, payload = read_frame(recv_exact)
        assert source == "ric"
        assert payload == b"\x01\x02payload"

    def test_empty_payload(self):
        frame = write_frame("x", b"")
        buf = bytearray(frame)

        def recv_exact(n):
            out = bytes(buf[:n])
            del buf[:n]
            return out

        assert read_frame(recv_exact) == ("x", b"")

    def test_oversized_rejected(self):
        with pytest.raises(FrameError):
            write_frame("x", b"\x00" * (17 << 20))


class TestInProcNetwork:
    def test_send_recv(self):
        net = InProcNetwork()
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"hello")
        assert b.recv() == ("a", b"hello")

    def test_recv_empty_returns_none(self):
        net = InProcNetwork()
        a = net.endpoint("a")
        assert a.recv() is None

    def test_unknown_dest(self):
        net = InProcNetwork()
        a = net.endpoint("a")
        with pytest.raises(NetworkError):
            a.send("ghost", b"x")

    def test_duplicate_name(self):
        net = InProcNetwork()
        net.endpoint("a")
        with pytest.raises(NetworkError):
            net.endpoint("a")

    def test_ordering_preserved(self):
        net = InProcNetwork()
        a = net.endpoint("a")
        b = net.endpoint("b")
        for i in range(10):
            a.send("b", bytes([i]))
        assert [p[0] for _, p in b.drain()] == list(range(10))

    def test_bidirectional(self):
        net = InProcNetwork()
        a = net.endpoint("a")
        b = net.endpoint("b")
        a.send("b", b"ping")
        src, _ = b.recv()
        b.send(src, b"pong")
        assert a.recv() == ("b", b"pong")


class TestTcpNetwork:
    def test_send_recv_over_sockets(self):
        net = TcpNetwork()
        try:
            a = net.endpoint("a")
            b = net.endpoint("b")
            a.send("b", b"over tcp")
            assert b.recv(timeout=5.0) == ("a", b"over tcp")
        finally:
            net.close()

    def test_many_messages(self):
        net = TcpNetwork()
        try:
            a = net.endpoint("a")
            b = net.endpoint("b")
            for i in range(50):
                a.send("b", i.to_bytes(4, "little"))
            got = []
            while len(got) < 50:
                item = b.recv(timeout=5.0)
                assert item is not None
                got.append(int.from_bytes(item[1], "little"))
            assert got == list(range(50))
        finally:
            net.close()

    def test_binary_safety(self):
        net = TcpNetwork()
        try:
            a = net.endpoint("a")
            b = net.endpoint("b")
            payload = bytes(range(256)) * 10
            a.send("b", payload)
            assert b.recv(timeout=5.0) == ("a", payload)
        finally:
            net.close()

    def test_no_frame_waits_for_a_delayed_ack(self):
        """One-way traffic on one connection, frames of mixed sizes like
        the uplink's range frames: past the kernel's quick-ACK allowance
        ACKs are delayed, and with Nagle on a frame waits ~40 ms for one."""
        import random
        import time

        rng = random.Random(1)
        sizes = [rng.choice((40, 300, 2783, 6000, 12000)) for _ in range(64)]
        with TcpNetwork() as net:
            a = net.endpoint("a")
            b = net.endpoint("b")
            slow = []
            for i, size in enumerate(sizes):
                start = time.perf_counter()
                a.send("b", bytes(size))
                assert b.recv(timeout=5.0) == ("a", bytes(size))
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                if elapsed_ms >= 10.0:
                    slow.append((i, size, round(elapsed_ms, 1)))
            assert slow == []

    def test_unknown_dest(self):
        net = TcpNetwork()
        try:
            a = net.endpoint("a")
            with pytest.raises(NetworkError):
                a.send("ghost", b"x")
        finally:
            net.close()

    def test_an_8_mib_frame_arrives_byte_identical(self):
        """A frame far larger than one ``recv``: read into one buffer."""
        payload = random.Random(8).randbytes(8 << 20)
        with TcpNetwork() as net:
            a = net.endpoint("a")
            b = net.endpoint("b")
            a.send("b", payload)
            source, got = b.recv(timeout=30.0)
            assert source == "a" and type(got) is bytes and got == payload

    def test_a_peer_closing_mid_frame_ends_the_reader(self):
        """The header promises 100 bytes, 3 arrive, then EOF."""
        partial_frame = struct.pack("<I", 100) + b"\x01\x00x"
        left, right = socket.socketpair()
        with right:
            with left:
                left.sendall(partial_frame)
            with pytest.raises(ConnectionError):
                read_frame(partial(recv_exact, right))
        with TcpNetwork() as net:
            b = net.endpoint("b")
            with socket.create_connection(("127.0.0.1", b.port)) as raw:
                raw.sendall(partial_frame)
            a = net.endpoint("a")
            a.send("b", b"after")  # accepted after the torn connection
            assert b.recv(timeout=5.0) == ("a", b"after")
            deadline = time.monotonic() + 5.0
            while len(b._conns) > 1:  # the torn one's reader drops it
                assert time.monotonic() < deadline, "a reader outlived its peer"
                time.sleep(0.01)

    def test_the_buffer_grows_with_the_bytes_received(self):
        """A header that declares 16 MiB buys no more than ``RECV_AHEAD``
        of buffer until the bytes arrive."""
        payload = random.Random(3).randbytes(3 * RECV_AHEAD + 5)
        offered = []

        class Trickle:  # a peer that sends at most 64 KiB per recv
            sent = 0

            def recv_into(self, view):
                offered.append(len(view))
                k = min(len(view), 1 << 16, len(payload) - self.sent)
                view[:k] = payload[self.sent : self.sent + k]
                self.sent += k
                return k

        assert recv_exact(Trickle(), len(payload)) == payload
        assert max(offered) == RECV_AHEAD
        offered.clear()
        with pytest.raises(ConnectionError):
            recv_exact(Trickle(), 16 << 20)
        assert max(offered) == RECV_AHEAD


def _open_fds() -> int:
    import os

    return len(os.listdir("/proc/self/fd"))


class TestTcpLifecycle:
    def test_network_context_manager(self):
        with TcpNetwork() as net:
            a = net.endpoint("a")
            b = net.endpoint("b")
            a.send("b", b"ctx")
            assert b.recv(timeout=5.0) == ("a", b"ctx")
        # everything closed: sends now fail outright
        with pytest.raises((NetworkError, OSError)):
            a.send("b", b"after close")

    def test_endpoint_context_manager(self):
        with TcpNetwork() as net:
            with net.endpoint("a") as a:
                with net.endpoint("b") as b:
                    a.send("b", b"x")
                    assert b.recv(timeout=5.0) == ("a", b"x")

    def test_no_leaked_fds(self):
        import time

        before = _open_fds()
        for _ in range(3):
            with TcpNetwork() as net:
                a = net.endpoint("a")
                b = net.endpoint("b")
                for i in range(5):
                    a.send("b", bytes([i]))
                got = 0
                while got < 5:
                    assert b.recv(timeout=5.0) is not None
                    got += 1
        time.sleep(0.1)  # reader threads observe their closed sockets
        assert _open_fds() <= before

    def test_stop_then_restart_on_same_port(self):
        with TcpNetwork() as net:
            server = net.endpoint("svc")
            port = server.port
            client = net.endpoint("client")
            client.send("svc", b"first")
            assert server.recv(timeout=5.0) == ("client", b"first")

            server.close()  # forgets the name, closes listener + conns
            reborn = net.endpoint("svc", port=port)
            assert reborn.port == port
            client.send("svc", b"second")  # reconnects transparently
            assert reborn.recv(timeout=5.0) == ("client", b"second")

    def test_register_peer_conflict_rejected(self):
        with TcpNetwork() as net:
            a = net.endpoint("a")
            net.register_peer("remote", 54321)
            net.register_peer("remote", 54321)  # idempotent
            with pytest.raises(NetworkError):
                net.register_peer("remote", 54322)
            with pytest.raises(NetworkError):
                net.register_peer("a", a.port + 1)  # type: ignore[operator]

    def test_cross_network_peer(self):
        """Two registries, as two processes would have, linked by port."""
        with TcpNetwork() as net1, TcpNetwork() as net2:
            server = net1.endpoint("coord")
            net2.register_peer("coord", server.port)  # type: ignore[attr-defined]
            worker = net2.endpoint("worker0")
            worker.send("coord", b"hello")
            assert server.recv(timeout=5.0) == ("worker0", b"hello")

    def test_endpoint_close_idempotent(self):
        with TcpNetwork() as net:
            a = net.endpoint("a")
            a.close()
            a.close()  # second close is a no-op, not an error

"""In-process and TCP-loopback message networks.

The TCP endpoint is instrumented for latency attribution: every
``send`` is timed into the ``waran_net_send_us`` histogram and (when
tracing is live) wrapped in a ``net.send`` span, so socket time shows up
as its own segment in the per-slot breakdown instead of hiding inside
whatever span happened to be open.  The reader threads count inbound
frames/bytes as metrics only - they never open spans, because a daemon
reader thread has no meaningful parent on its thread-local span stack.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from functools import partial

from repro.netio.framing import read_frame, write_frame
from repro.obs import OBS, BoundMetrics, MetricsRegistry


class NetworkError(RuntimeError):
    """Endpoint resolution or delivery failure."""


#: How far a frame's buffer grows past the bytes already received: a peer
#: that sends a header and stalls holds this much, not the declared length.
RECV_AHEAD = 1 << 20


def recv_exact(conn: socket.socket, n: int) -> bytearray:
    """The next ``n`` bytes of ``conn``, received with ``recv_into`` into one
    buffer grown :data:`RECV_AHEAD` bytes at a time (linear in ``n``);
    ``ConnectionError`` if the peer closes first."""
    buf, got = bytearray(), 0
    while got < n:
        if got == len(buf):
            buf += bytes(min(n - got, RECV_AHEAD))
        with memoryview(buf) as view:
            k = conn.recv_into(view[got:])
        if not k:
            raise ConnectionError("peer closed")
        got += k
    return buf


class Endpoint(ABC):
    """A named mailbox that can send to other named mailboxes."""

    def __init__(self, name: str):
        self.name = name

    @abstractmethod
    def send(self, dest: str, payload: bytes) -> None: ...

    @abstractmethod
    def recv(self, timeout: float | None = 0.0) -> tuple[str, bytes] | None:
        """Next ``(source, payload)`` or ``None`` if none within ``timeout``."""

    def close(self) -> None:
        """Release any transport resources; in-proc endpoints have none."""

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def drain(self) -> list[tuple[str, bytes]]:
        """All currently queued messages."""
        out = []
        while True:
            item = self.recv(timeout=0.0)
            if item is None:
                return out
            out.append(item)


# ---------------------------------------------------------------------------


class _QueuedEndpoint(Endpoint):
    """An endpoint whose inbound messages wait in a local queue: in-proc
    senders put into it directly, a TCP endpoint's reader threads do."""

    def __init__(self, name: str):
        super().__init__(name)
        self._queue: queue.Queue = queue.Queue()

    def recv(self, timeout: float | None = 0.0) -> tuple[str, bytes] | None:
        try:
            if timeout == 0.0:
                return self._queue.get_nowait()
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None


class _InProcEndpoint(_QueuedEndpoint):
    def __init__(self, network: "InProcNetwork", name: str):
        super().__init__(name)
        self._network = network

    def send(self, dest: str, payload: bytes) -> None:
        target = self._network._endpoints.get(dest)
        if target is None:
            raise NetworkError(f"no endpoint named {dest!r}")
        target._queue.put((self.name, bytes(payload)))

    def close(self) -> None:
        """Unregister, so peers get ``NetworkError`` like on TCP."""
        self._network._forget(self.name)


class InProcNetwork:
    """Queue-backed network: deterministic and dependency-free."""

    def __init__(self) -> None:
        self._endpoints: dict[str, _InProcEndpoint] = {}

    def endpoint(self, name: str) -> Endpoint:
        if name in self._endpoints:
            raise NetworkError(f"endpoint {name!r} already exists")
        ep = _InProcEndpoint(self, name)
        self._endpoints[name] = ep
        return ep

    def _forget(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def close(self) -> None:
        for ep in list(self._endpoints.values()):
            ep.close()

    def __enter__(self) -> "InProcNetwork":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------


def _bind_recv(reg: MetricsRegistry):
    return (
        reg.counter("waran_net_recv_frames_total", "frames received").labels(),
        reg.counter("waran_net_recv_bytes_total", "payload bytes received").labels(),
    )


def _bind_send(reg: MetricsRegistry):
    return reg.histogram("waran_net_send_us", "TCP frame send time (us)").labels()


class _TcpEndpoint(_QueuedEndpoint):
    """One TCP listener per endpoint; outgoing connections cached."""

    def __init__(self, network: "TcpNetwork", name: str, port: int = 0):
        super().__init__(name)
        self._network = network
        self._server = socket.create_server(("127.0.0.1", port))
        self.port = self._server.getsockname()[1]
        self._out: dict[str, socket.socket] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: accepted inbound connections, so close() can drop every FD even
        #: while the remote side keeps its end open
        self._conns: set[socket.socket] = set()
        self._recv_series = BoundMetrics(_bind_recv)
        self._send_series = BoundMetrics(_bind_send)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # ----- receive side ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True
            ).start()

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            while True:
                source, payload = read_frame(partial(recv_exact, conn))
                if OBS.enabled:
                    frames, nbytes = self._recv_series.get(OBS.registry)
                    frames.inc()
                    nbytes.inc(len(payload))
                self._queue.put((source, payload))
        except (ConnectionError, OSError, ValueError):
            conn.close()
        finally:
            with self._lock:
                self._conns.discard(conn)

    # ----- send side --------------------------------------------------------

    @staticmethod
    def _peer_closed(sock: socket.socket) -> bool:
        """True when the remote end already sent FIN (or the socket died).

        Cached outgoing connections are send-only, so any readable event
        can only be EOF; ``sendall`` into such a socket "succeeds" into
        the buffer and the frame is silently lost, which is why the check
        happens *before* reuse rather than relying on a send error.
        """
        try:
            sock.setblocking(False)
            try:
                return sock.recv(1, socket.MSG_PEEK) == b""
            finally:
                sock.setblocking(True)
        except BlockingIOError:
            return False  # nothing readable: peer still there
        except OSError:
            return True

    @staticmethod
    def _connect(port: int) -> socket.socket:
        """An outgoing connection with Nagle off.  The receiver only reads,
        so once the kernel stops acking at once each ACK is delayed, and
        Nagle would hold the next small frame until it arrives (~40 ms)."""
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def send(self, dest: str, payload: bytes) -> None:
        port = self._network._ports.get(dest)
        if port is None:
            raise NetworkError(f"no endpoint named {dest!r}")
        frame = write_frame(self.name, payload)
        with OBS.tracer.span("net.send", dest=dest, bytes=len(frame)):
            start_ns = time.perf_counter_ns() if OBS.enabled else 0
            with self._lock:
                sock = self._out.get(dest)
                if sock is not None and self._peer_closed(sock):
                    sock.close()
                    sock = None
                if sock is None:
                    sock = self._out[dest] = self._connect(port)
                try:
                    sock.sendall(frame)
                except OSError:
                    # reconnect once (peer may have restarted)
                    sock.close()
                    sock = self._out[dest] = self._connect(port)
                    sock.sendall(frame)
            if OBS.enabled:
                self._send_series.get(OBS.registry).observe(
                    (time.perf_counter_ns() - start_ns) / 1000.0
                )

    def close(self) -> None:
        """Close the listener, every accepted connection, and every cached
        outgoing connection - no FD survives, so repeated cluster runs can
        rebind the same ports without leaking sockets.

        ``shutdown`` before ``close`` matters on both paths: a thread
        blocked in ``accept``/``recv`` holds a kernel reference that keeps
        the socket alive (and the port in LISTEN) past ``close``;
        ``shutdown`` wakes it so the FD is actually released."""
        self._closed = True
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed, or never connected (platform-dependent)
        self._server.close()
        self._accept_thread.join(timeout=2)
        with self._lock:
            out = list(self._out.values())
            self._out.clear()
            conns = list(self._conns)
            self._conns.clear()
        for sock in out:
            sock.close()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - peer already gone
                pass
            conn.close()
        self._network._forget(self.name)


class TcpNetwork:
    """Localhost TCP network with the same interface as :class:`InProcNetwork`.

    Also usable as a context manager, and across *processes*: a worker
    process creates its own ``TcpNetwork`` and learns the coordinator's
    port via :meth:`register_peer` instead of sharing the registry.
    """

    def __init__(self) -> None:
        self._ports: dict[str, int] = {}
        self._endpoints: dict[str, _TcpEndpoint] = {}

    def endpoint(self, name: str, port: int = 0) -> Endpoint:
        """Create a listening endpoint (``port=0`` picks a free one).

        Passing an explicit ``port`` supports stop/restart on the same
        address - ``SO_REUSEADDR`` is set, so a just-closed port rebinds.
        """
        if name in self._ports:
            raise NetworkError(f"endpoint {name!r} already exists")
        ep = _TcpEndpoint(self, name, port=port)
        self._ports[name] = ep.port
        self._endpoints[name] = ep
        return ep

    def register_peer(self, name: str, port: int) -> None:
        """Make a remote endpoint (e.g. in another process) addressable."""
        existing = self._ports.get(name)
        if existing is not None and existing != port:
            raise NetworkError(f"endpoint {name!r} already bound to {existing}")
        self._ports[name] = port

    def _forget(self, name: str) -> None:
        self._ports.pop(name, None)
        self._endpoints.pop(name, None)

    def close(self) -> None:
        for ep in list(self._endpoints.values()):
            ep.close()

    def __enter__(self) -> "TcpNetwork":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Topic-based publish/subscribe over the endpoint fabric.

§4B lets operators pick the messaging paradigm - request/reply sockets or
a broker (the paper names ZeroMQ and Kafka).  This module provides the
broker flavour: a :class:`Broker` endpoint that fans published messages
out to topic subscribers, with optional bounded retention so late
subscribers can catch up (Kafka-ish), all over the same in-proc or TCP
endpoints as everything else.

Wire format (JSON header + raw payload, length-prefixed inside the frame):

- subscribe:  ``{"op": "sub", "topic": t}``
- publish:    ``{"op": "pub", "topic": t}`` + payload
- delivery to subscribers: ``{"op": "msg", "topic": t, "seq": n}`` + payload
"""

from __future__ import annotations

import json
import struct
from collections import deque
from typing import Any

from repro.netio.bus import Endpoint, NetworkError


class PubSubError(RuntimeError):
    pass


def _pack(header: dict[str, Any], payload: bytes = b"") -> bytes:
    raw = json.dumps(header, separators=(",", ":")).encode()
    return struct.pack("<I", len(raw)) + raw + payload


def _unpack(data: bytes) -> tuple[dict[str, Any], bytes]:
    if len(data) < 4:
        raise PubSubError("short pub/sub frame")
    (hlen,) = struct.unpack_from("<I", data, 0)
    if 4 + hlen > len(data):
        raise PubSubError("pub/sub header overruns frame")
    header = json.loads(data[4 : 4 + hlen].decode())
    return header, data[4 + hlen :]


class Broker:
    """The broker process: subscriptions, fan-out, bounded retention."""

    def __init__(self, endpoint: Endpoint, retain: int = 0):
        self.endpoint = endpoint
        self.retain = retain
        self._subscribers: dict[str, set[str]] = {}  # topic -> endpoint names
        self._retained: dict[str, deque] = {}  # topic -> deque[(seq, payload)]
        self._seq = 0
        self.published = 0
        self.delivered = 0
        #: deliveries abandoned because the subscriber endpoint was gone;
        #: the subscriber is evicted from every topic so one dead peer
        #: can never starve the remaining subscribers
        self.dead_subscribers = 0

    @property
    def name(self) -> str:
        return self.endpoint.name

    def _deliver(self, subscriber: str, frame: bytes) -> bool:
        try:
            self.endpoint.send(subscriber, frame)
        except (NetworkError, OSError):
            self.dead_subscribers += 1
            for members in self._subscribers.values():
                members.discard(subscriber)
            return False
        self.delivered += 1
        return True

    def step(self) -> None:
        """Process all queued broker traffic."""
        for source, data in self.endpoint.drain():
            try:
                header, payload = _unpack(data)
            except (PubSubError, json.JSONDecodeError):
                continue
            op = header.get("op")
            topic = str(header.get("topic", ""))
            if op == "sub":
                self._subscribers.setdefault(topic, set()).add(source)
                for seq, retained in self._retained.get(topic, ()):
                    self._deliver(
                        source,
                        _pack({"op": "msg", "topic": topic, "seq": seq}, retained),
                    )
            elif op == "pub":
                self._seq += 1
                self.published += 1
                if self.retain:
                    queue = self._retained.setdefault(topic, deque(maxlen=self.retain))
                    queue.append((self._seq, payload))
                frame = _pack({"op": "msg", "topic": topic, "seq": self._seq}, payload)
                for subscriber in sorted(self._subscribers.get(topic, ())):
                    self._deliver(subscriber, frame)


class PubSubClient:
    """A publisher/subscriber talking to one broker."""

    def __init__(self, endpoint: Endpoint, broker_name: str):
        self.endpoint = endpoint
        self.broker_name = broker_name

    def subscribe(self, topic: str) -> None:
        self.endpoint.send(self.broker_name, _pack({"op": "sub", "topic": topic}))

    def publish(self, topic: str, payload: bytes) -> None:
        self.endpoint.send(
            self.broker_name, _pack({"op": "pub", "topic": topic}, payload)
        )

    def poll(self) -> list[tuple[str, int, bytes]]:
        """Deliveries as ``(topic, seq, payload)``."""
        out = []
        for _source, data in self.endpoint.drain():
            try:
                header, payload = _unpack(data)
            except (PubSubError, json.JSONDecodeError):
                continue
            if header.get("op") == "msg":
                out.append((str(header["topic"]), int(header["seq"]), payload))
        return out

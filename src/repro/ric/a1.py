"""A1-lite: the non-RT RIC -> near-RT RIC policy interface.

In the O-RAN architecture (paper Fig. 2) the non-RT RIC - part of the
SMO, hosting rApps - manages non-time-critical optimization and feeds
*policies* to the near-RT RIC over A1.  The slice-SLA-assurance loop needs
exactly one policy type: "this slice's SLA is X b/s".  The near-RT RIC
merges A1 policies into the KPM records it hands its xApps, closing the
SMO -> RIC -> xApp -> E2 -> gNB chain.

Messages are JSON dicts (A1 is REST/JSON in the real architecture):

- ``a1_policy_create``: policy_id, policy_type, payload
- ``a1_policy_delete``: policy_id
- ``a1_policy_ack``: policy_id, accepted
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.codecs import JsonCodec
from repro.netio.bus import Endpoint

POLICY_SLICE_SLA = "slice_sla"
POLICY_STEERING = "traffic_steering"

_SUPPORTED_TYPES = {POLICY_SLICE_SLA, POLICY_STEERING}


class A1Error(ValueError):
    """Malformed or unsupported A1 message."""


@dataclass
class A1Policy:
    policy_id: int
    policy_type: str
    payload: dict[str, Any]


class A1Endpoint:
    """JSON message plumbing shared by both ends of A1."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self._codec = JsonCodec()

    def send(self, dest: str, message: dict[str, Any]) -> None:
        self.endpoint.send(dest, self._codec.encode(message))

    def poll(self) -> list[tuple[str, dict[str, Any]]]:
        out = []
        for source, payload in self.endpoint.drain():
            out.append((source, self._codec.decode(payload)))
        return out


class NonRtRic:
    """The non-RT RIC side: rApps create/delete policies toward near-RT RICs."""

    def __init__(self, endpoint: Endpoint):
        self.a1 = A1Endpoint(endpoint)
        self._policy_ids = itertools.count(1)
        self.policies: dict[int, A1Policy] = {}
        self.acks: list[dict[str, Any]] = []

    def create_policy(
        self, dest: str, policy_type: str, payload: dict[str, Any]
    ) -> int:
        if policy_type not in _SUPPORTED_TYPES:
            raise A1Error(f"unsupported policy type {policy_type!r}")
        policy_id = next(self._policy_ids)
        self.policies[policy_id] = A1Policy(policy_id, policy_type, payload)
        self.a1.send(
            dest,
            {
                "msg": "a1_policy_create",
                "policy_id": policy_id,
                "policy_type": policy_type,
                "payload": payload,
            },
        )
        return policy_id

    def poll_acks(self) -> None:
        for _source, message in self.a1.poll():
            if message.get("msg") == "a1_policy_ack":
                self.acks.append(message)


@dataclass
class A1PolicyStore:
    """The near-RT RIC side: active policies, indexed for the xApp path."""

    policies: dict[int, A1Policy] = field(default_factory=dict)

    def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Apply one A1 message; returns the ack to send back."""
        msg_type = message.get("msg")
        if msg_type == "a1_policy_create":
            policy_type = message.get("policy_type")
            accepted = policy_type in _SUPPORTED_TYPES
            if accepted:
                policy = A1Policy(
                    int(message["policy_id"]), policy_type, dict(message["payload"])
                )
                self.policies[policy.policy_id] = policy
            return {
                "msg": "a1_policy_ack",
                "policy_id": message.get("policy_id"),
                "accepted": accepted,
            }
        if msg_type == "a1_policy_delete":
            self.policies.pop(int(message["policy_id"]), None)
            return {
                "msg": "a1_policy_ack",
                "policy_id": message.get("policy_id"),
                "accepted": True,
            }
        raise A1Error(f"unknown A1 message {msg_type!r}")

    def slice_sla_bps(self, slice_id: int) -> float | None:
        """Effective SLA for a slice, newest policy wins."""
        result = None
        for policy in self.policies.values():
            if policy.policy_type != POLICY_SLICE_SLA:
                continue
            if int(policy.payload.get("slice_id", -1)) == slice_id:
                result = float(policy.payload["sla_bps"])
        return result

    def steering_hysteresis(self) -> int | None:
        result = None
        for policy in self.policies.values():  # newest (last-created) wins
            if policy.policy_type == POLICY_STEERING:
                result = int(policy.payload.get("hysteresis", 2))
        return result

"""E2AP-flavoured message schema.

Messages are plain dicts with a ``msg`` discriminator, built by the helper
constructors here and checked by :func:`validate_message`.  Serialization
is the vendor profile's business (:mod:`repro.e2.vendors`); these builders
define the *semantic* layer both sides must agree on.
"""

from __future__ import annotations

from collections import deque
from typing import Any

MSG_SETUP_REQUEST = "e2_setup_request"
MSG_SETUP_RESPONSE = "e2_setup_response"
MSG_SUBSCRIPTION_REQUEST = "ric_subscription_request"
MSG_SUBSCRIPTION_RESPONSE = "ric_subscription_response"
MSG_INDICATION = "ric_indication"
MSG_CONTROL_REQUEST = "ric_control_request"
MSG_CONTROL_ACK = "ric_control_ack"

#: service model identifiers (KPM-like reporting, RC-like control)
SM_KPM = "kpm-lite"
SM_RC = "rc-lite"

#: control action names the RC-lite service model defines
ACTION_SET_SLICE_QUOTA = "set_slice_quota"
ACTION_SET_TX_POWER = "set_tx_power"
ACTION_HANDOVER = "handover"
ACTION_SET_CQI_TABLE = "set_cqi_table"

_ALL_TYPES = {
    MSG_SETUP_REQUEST,
    MSG_SETUP_RESPONSE,
    MSG_SUBSCRIPTION_REQUEST,
    MSG_SUBSCRIPTION_RESPONSE,
    MSG_INDICATION,
    MSG_CONTROL_REQUEST,
    MSG_CONTROL_ACK,
}

_ALL_ACTIONS = {
    ACTION_SET_SLICE_QUOTA,
    ACTION_SET_TX_POWER,
    ACTION_HANDOVER,
    ACTION_SET_CQI_TABLE,
}


class MessageLog(deque):
    """The newest 256 messages appended, for inspection, and ``total``:
    how many were ever appended."""

    def __init__(self) -> None:
        super().__init__(maxlen=256)
        self.total = 0

    def append(self, message: dict[str, Any]) -> None:
        self.total += 1
        super().append(message)


class E2MessageError(ValueError):
    """Semantically invalid E2-lite message."""


def setup_request(node_id: str, served_slices: list[int]) -> dict[str, Any]:
    return {
        "msg": MSG_SETUP_REQUEST,
        "node_id": node_id,
        "served_slices": list(served_slices),
        "service_models": [SM_KPM, SM_RC],
    }


def setup_response(node_id: str, accepted: bool = True) -> dict[str, Any]:
    return {"msg": MSG_SETUP_RESPONSE, "node_id": node_id, "accepted": accepted}


def subscription_request(
    subscription_id: int, service_model: str = SM_KPM, period_slots: int = 100
) -> dict[str, Any]:
    if period_slots <= 0:
        raise E2MessageError("report period must be positive")
    return {
        "msg": MSG_SUBSCRIPTION_REQUEST,
        "subscription_id": subscription_id,
        "service_model": service_model,
        "period_slots": period_slots,
    }


def subscription_response(subscription_id: int, accepted: bool = True) -> dict[str, Any]:
    return {
        "msg": MSG_SUBSCRIPTION_RESPONSE,
        "subscription_id": subscription_id,
        "accepted": accepted,
    }


def indication(
    subscription_id: int,
    slot: int,
    ue_reports: list[dict[str, Any]],
    slice_reports: list[dict[str, Any]],
) -> dict[str, Any]:
    """A KPM-lite report.

    ``ue_reports`` entries: ue_id, slice_id, cqi, neighbor_cell,
    neighbor_cqi, avg_tput_bps, buffer_bytes.
    ``slice_reports`` entries: slice_id, measured_bps, target_bps.
    """
    return {
        "msg": MSG_INDICATION,
        "subscription_id": subscription_id,
        "slot": slot,
        "ue_reports": ue_reports,
        "slice_reports": slice_reports,
    }


def control_request(
    request_id: int, action: str, target: int, value: int
) -> dict[str, Any]:
    if action not in _ALL_ACTIONS:
        raise E2MessageError(f"unknown control action {action!r}")
    return {
        "msg": MSG_CONTROL_REQUEST,
        "request_id": request_id,
        "action": action,
        "target": target,
        "value": value,
    }


def control_ack(request_id: int, success: bool, detail: str = "") -> dict[str, Any]:
    return {
        "msg": MSG_CONTROL_ACK,
        "request_id": request_id,
        "success": success,
        "detail": detail,
    }


_REQUIRED_FIELDS = {
    MSG_SETUP_REQUEST: {"node_id", "served_slices", "service_models"},
    MSG_SETUP_RESPONSE: {"node_id", "accepted"},
    MSG_SUBSCRIPTION_REQUEST: {"subscription_id", "service_model", "period_slots"},
    MSG_SUBSCRIPTION_RESPONSE: {"subscription_id", "accepted"},
    MSG_INDICATION: {"subscription_id", "slot", "ue_reports", "slice_reports"},
    MSG_CONTROL_REQUEST: {"request_id", "action", "target", "value"},
    MSG_CONTROL_ACK: {"request_id", "success"},
}


def validate_message(message: dict[str, Any]) -> str:
    """Check the discriminator and required fields; returns the type."""
    msg_type = message.get("msg")
    if msg_type not in _ALL_TYPES:
        raise E2MessageError(f"unknown message type {msg_type!r}")
    missing = _REQUIRED_FIELDS[msg_type] - set(message)
    if missing:
        raise E2MessageError(f"{msg_type} missing fields {sorted(missing)}")
    if msg_type == MSG_CONTROL_REQUEST and message["action"] not in _ALL_ACTIONS:
        raise E2MessageError(f"unknown control action {message['action']!r}")
    return msg_type

"""The E2-node agent embedded in a gNB.

Answers setup/subscription requests, streams KPM-lite indications on the
subscribed period, and executes RC-lite control actions through the
narrow set of gNB controls the host chooses to expose - the "host
functions which provide access to specific control processes" of §4B,
here at the E2-node level: slice quota changes, CQI table selection,
transmit power, and handover execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chaos.supervisor import Supervisor
from repro.e2 import messages
from repro.e2.comm import CommChannel
from repro.gnb.host import GnbHost
from repro.obs import OBS
from repro.sched.inter import TargetRateInterSlice


@dataclass
class _Subscription:
    subscription_id: int
    subscriber: str
    service_model: str
    period_slots: int
    last_report_slot: int = -1


class E2NodeAgent:
    """One gNB's E2 agent, speaking some vendor dialect over a channel."""

    def __init__(
        self,
        gnb: GnbHost,
        channel: CommChannel,
        node_id: str,
        supervisor: Supervisor | None = None,
    ):
        self.gnb = gnb
        self.channel = channel
        self.node_id = node_id
        #: optional supervisor: outbound sends (responses, acks, KPM
        #: indications) get retry+backoff and a per-RIC circuit breaker
        self.supervisor = supervisor
        self.sends_abandoned = 0
        self.subscriptions: dict[int, _Subscription] = {}
        self.tx_power: int | None = None
        self.cqi_table: int = 1
        self.controls_applied: list[dict[str, Any]] = []
        self._last_slice_bytes: dict[int, int] = {}

    def _send(self, dest: str, message: dict[str, Any]) -> bool:
        """Supervised send: a dead RIC link must not crash the node agent."""
        if self.supervisor is None:
            self.channel.send(dest, message)
            return True
        if self.supervisor.send(f"ric:{dest}", self.channel, dest, message):
            return True
        self.sends_abandoned += 1
        if OBS.enabled:
            OBS.registry.counter(
                "waran_e2node_sends_abandoned_total",
                "E2-node sends dropped after retries were exhausted or "
                "the RIC breaker was open",
            ).inc(node=self.node_id, dest=dest)
        return False

    def local_subscribe(
        self,
        subscription_id: int,
        subscriber: str,
        period_slots: int,
    ) -> None:
        """Install a KPM subscription without the wire handshake.

        Cluster shards are pre-subscribed by their spec: the coordinator
        knows every cell's reporting period up front, so the worker skips
        the setup/subscription round-trip (the uplink is one-directional)
        and starts streaming indications toward ``subscriber`` directly.
        """
        if period_slots <= 0:
            raise messages.E2MessageError("report period must be positive")
        self.subscriptions[subscription_id] = _Subscription(
            subscription_id, subscriber, messages.SM_KPM, period_slots
        )

    # ----- control-plane message handling ------------------------------------

    def handle_messages(self) -> None:
        for source, message in self.channel.poll():
            msg_type = message["msg"]
            if msg_type == messages.MSG_SETUP_REQUEST:
                self._send(
                    source, messages.setup_response(self.node_id, accepted=True)
                )
            elif msg_type == messages.MSG_SUBSCRIPTION_REQUEST:
                sub = _Subscription(
                    message["subscription_id"],
                    source,
                    message["service_model"],
                    message["period_slots"],
                )
                self.subscriptions[sub.subscription_id] = sub
                self._send(
                    source,
                    messages.subscription_response(sub.subscription_id, True),
                )
            elif msg_type == messages.MSG_CONTROL_REQUEST:
                success, detail = self._apply_control(message)
                self._send(
                    source,
                    messages.control_ack(message["request_id"], success, detail),
                )

    def _apply_control(self, message: dict[str, Any]) -> tuple[bool, str]:
        action = message["action"]
        target = message["target"]
        value = message["value"]
        try:
            if action == messages.ACTION_SET_SLICE_QUOTA:
                inter = self.gnb.inter_slice
                if not isinstance(inter, TargetRateInterSlice):
                    return False, "inter-slice scheduler has no rate targets"
                if target not in inter.targets_bps:
                    return False, f"unknown slice {target}"
                inter.targets_bps[target] = float(value)
            elif action == messages.ACTION_SET_TX_POWER:
                self.tx_power = value
            elif action == messages.ACTION_SET_CQI_TABLE:
                from repro.phy.mcs import CQI_TABLES

                if value not in CQI_TABLES:
                    return False, f"unsupported CQI table {value}"
                self.cqi_table = value
            elif action == messages.ACTION_HANDOVER:
                if target not in self.gnb.ues:
                    return False, f"unknown UE {target}"
                self.gnb.detach_ue(target)
            else:  # pragma: no cover - validate_message rejects these
                return False, f"unsupported action {action}"
        except Exception as exc:  # defensive: controls must never kill the node
            return False, f"control failed: {exc}"
        self.controls_applied.append(dict(message))
        return True, ""

    # ----- KPM-lite reporting ----------------------------------------------------

    def step(self) -> None:
        """Run once per slot, after the gNB's own step."""
        if self.supervisor is not None:
            self.supervisor.tick()
        self.handle_messages()
        slot = self.gnb.slot
        for sub in self.subscriptions.values():
            due = (
                sub.last_report_slot < 0
                or slot - sub.last_report_slot >= sub.period_slots
            )
            if due:
                sub.last_report_slot = slot
                self._send(sub.subscriber, self._build_indication(sub, slot))

    def _build_indication(self, sub: _Subscription, slot: int) -> dict[str, Any]:
        ue_reports = []
        for ue in self.gnb.ues.values():
            ue_reports.append(
                {
                    "ue_id": ue.ue_id,
                    "slice_id": ue.slice_id,
                    "cqi": ue.current_cqi,
                    "neighbor_cell": ue.neighbor_cell,
                    "neighbor_cqi": ue.neighbor_cqi(slot),
                    "avg_tput_bps": ue.avg_tput_bps,
                    "buffer_bytes": ue.buffer.occupancy_bytes,
                }
            )
        slice_reports = []
        period_s = sub.period_slots * self.gnb.carrier.slot_duration_s
        for sid, runtime in self.gnb.slices.items():
            total = runtime.meter.total_bytes
            delta = total - self._last_slice_bytes.get(sid, 0)
            self._last_slice_bytes[sid] = total
            target = 0.0
            inter = self.gnb.inter_slice
            if isinstance(inter, TargetRateInterSlice):
                target = inter.targets_bps.get(sid, 0.0)
            slice_reports.append(
                {
                    "slice_id": sid,
                    "measured_bps": delta * 8 / period_s if period_s > 0 else 0.0,
                    "target_bps": target,
                }
            )
        return messages.indication(
            sub.subscription_id, slot, ue_reports, slice_reports
        )

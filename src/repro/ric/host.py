"""The near-RT RIC host: xApp plugin hosting plus E2 session management."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.abi.host import HostLimits, PluginError, PluginHost
from repro.chaos.supervisor import CircuitOpenError, Supervisor
from repro.e2 import messages
from repro.obs import OBS, BoundMetrics, MetricsRegistry
from repro.e2.comm import CommChannel
from repro.ric import wire
from repro.wasm.instance import HostFunc
from repro.wasm.wtypes import FuncType, ValType

I32, I64 = ValType.I32, ValType.I64

#: host functions an xApp may import (checked by the sanitizer at load)
XAPP_ALLOWED_IMPORTS = frozenset(
    {"log", "publish", "poll_msg", "get_param", "now_slot"}
)

#: parameter ids for the ``get_param`` host function
PARAM_STEERING_HYSTERESIS = 1

#: fuel budget of one xApp call
XAPP_FUEL = 5_000_000

XAPP_REQUIRED_EXPORTS = {
    "alloc": ((I32,), (I32,)),
    "on_indication": ((I32, I32), (I32,)),
}


def _bind_xapp_calls(reg: MetricsRegistry, xapp: str):
    return reg.counter(
        "waran_ric_xapp_calls_total", "successful xApp dispatches"
    ).labels(xapp=xapp)


def _bind_xapp_actions(reg: MetricsRegistry, xapp: str):
    return reg.counter(
        "waran_ric_xapp_actions_total", "actions emitted by xApps"
    ).labels(xapp=xapp)


def _bind_indications(reg: MetricsRegistry):
    return reg.counter(
        "waran_ric_indications_total",
        "KPM indications received, by originating node",
    ).labels_by("node")


@dataclass
class XappRuntime:
    """One hosted xApp: the plugin, its subscriptions, and stats."""

    name: str
    host: PluginHost
    msg_types: tuple[int, ...]  # which record kinds it wants
    calls: int = 0
    faults: int = 0
    actions_emitted: int = 0
    # bound separately: the actions series opens on the first action
    _calls_series: BoundMetrics = field(
        default_factory=lambda: BoundMetrics(_bind_xapp_calls),
        repr=False, compare=False,
    )
    _actions_series: BoundMetrics = field(
        default_factory=lambda: BoundMetrics(_bind_xapp_actions),
        repr=False, compare=False,
    )


class NearRtRic:
    """Hosts xApps and drives one (or more) E2 nodes."""

    def __init__(
        self,
        channel: CommChannel,
        name: str = "ric",
        a1_endpoint=None,
        kpi_publisher=None,
        supervisor: Supervisor | None = None,
    ):
        from repro.ric.a1 import A1Endpoint, A1PolicyStore

        self.channel = channel
        self.name = name
        self.a1 = A1Endpoint(a1_endpoint) if a1_endpoint is not None else None
        self.a1_policies = A1PolicyStore()
        #: optional PubSubClient; slice KPIs are published for the SMO/rApps
        self.kpi_publisher = kpi_publisher
        #: optional :class:`repro.chaos.supervisor.Supervisor`: E2 sends get
        #: retry+backoff, every xApp gets a circuit breaker, and a flaky
        #: transport or plugin can no longer wedge the control loop
        self.supervisor = supervisor
        self.sends_abandoned = 0
        self.xapp_dispatches_skipped = 0
        self.xapps: dict[str, XappRuntime] = {}
        self._topics: dict[int, deque[int]] = {}
        self._request_ids = itertools.count(1)
        self._subscription_ids = itertools.count(1)
        self.nodes: dict[str, dict[str, Any]] = {}  # node endpoint -> state
        self.indications_seen = 0
        #: per-node indication totals - the multi-node aggregation view a
        #: cluster coordinator reads after fan-in from many gNB shards
        self.indications_by_node: dict[str, int] = {}
        self.controls_sent: list[dict[str, Any]] = []
        self.acks: list[dict[str, Any]] = []
        self.xapp_log: list[tuple[str, int, int]] = []
        self._indications_series = BoundMetrics(_bind_indications)

    # ----- xApp hosting -----------------------------------------------------

    def _make_hostfuncs(self, xapp_name: str) -> dict[str, HostFunc]:
        def publish(caller, topic: int, value: int) -> None:
            self._topics.setdefault(topic, deque(maxlen=1024)).append(value)

        def poll_msg(caller, topic: int) -> int:
            queue = self._topics.get(topic)
            if not queue:
                return -1
            return queue.popleft()

        def get_param(caller, param_id: int) -> int:
            """Expose A1-policy-derived parameters to xApps (-1 = unset)."""
            if param_id == PARAM_STEERING_HYSTERESIS:
                value = self.a1_policies.steering_hysteresis()
                return -1 if value is None else value
            return -1

        return {
            "publish": HostFunc(FuncType((I32, I64), ()), publish, "publish"),
            "poll_msg": HostFunc(FuncType((I32,), (I64,)), poll_msg, "poll_msg"),
            "get_param": HostFunc(FuncType((I32,), (I64,)), get_param, "get_param"),
        }

    def load_xapp(
        self,
        name: str,
        wasm_bytes: bytes,
        msg_types: tuple[int, ...],
        engine: str | None = None,
        chaos=None,
    ) -> XappRuntime:
        """Deploy an xApp plugin (sanitized against the xApp policy)."""
        if name in self.xapps:
            raise ValueError(f"xApp {name!r} already loaded")

        def log_sink(code: int, value: int) -> None:
            self.xapp_log.append((name, code, value))

        host = PluginHost(
            wasm_bytes,
            name=name,
            limits=HostLimits(fuel=XAPP_FUEL),
            output_record_bytes=wire.XAPP_ACTION_BYTES,
            allowed_imports=XAPP_ALLOWED_IMPORTS,
            required_exports=XAPP_REQUIRED_EXPORTS,
            extra_hostfuncs=self._make_hostfuncs(name),
            log_sink=log_sink,
            engine=engine,
            chaos=chaos,
        )
        runtime = XappRuntime(name, host, tuple(msg_types))
        self.xapps[name] = runtime
        return runtime

    def swap_xapp(self, name: str, wasm_bytes: bytes) -> int:
        """Hot-swap an xApp binary without touching the RIC or E2 sessions."""
        runtime = self.xapps.get(name)
        if runtime is None:
            raise ValueError(f"no xApp named {name!r}")
        return runtime.host.swap(wasm_bytes)

    # ----- E2 session management -----------------------------------------------

    def _send(self, dest: str, message: dict[str, Any]) -> bool:
        """Send toward ``dest``, supervised when a supervisor is attached.

        Returns False (instead of raising) when the peer's breaker is open
        or every retry failed: losing one control message must not take the
        whole RIC loop down with it.
        """
        if self.supervisor is None:
            self.channel.send(dest, message)
            return True
        if self.supervisor.send(f"e2:{dest}", self.channel, dest, message):
            return True
        self.sends_abandoned += 1
        if OBS.enabled:
            OBS.registry.counter(
                "waran_ric_sends_abandoned_total",
                "E2 sends dropped after retries were exhausted or the "
                "peer breaker was open",
            ).inc(dest=dest)
        return False

    def connect(self, node_dest: str, period_slots: int = 100) -> int:
        """E2 setup + KPM subscription toward one node endpoint."""
        self._send(node_dest, messages.setup_request(self.name, []))
        subscription_id = next(self._subscription_ids)
        self._send(
            node_dest,
            messages.subscription_request(
                subscription_id, messages.SM_KPM, period_slots
            ),
        )
        self.nodes[node_dest] = {"subscription_id": subscription_id, "ready": False}
        return subscription_id

    def register_node(
        self, node_dest: str, subscription_id: int | None = None
    ) -> None:
        """Adopt an already-subscribed node without the E2 handshake.

        Cluster shards are pre-subscribed by their worker spec (see
        :meth:`repro.e2.node.E2NodeAgent.local_subscribe`); the
        coordinator registers each of them here so the RIC tracks and
        aggregates per-node state exactly as for handshaken nodes.
        """
        self.nodes[node_dest] = {"subscription_id": subscription_id, "ready": True}

    # ----- the control loop --------------------------------------------------------

    def step(self) -> list[wire.XappAction]:
        """Process incoming messages; returns all xApp actions executed."""
        executed: list[wire.XappAction] = []
        if self.supervisor is not None:
            self.supervisor.tick()
        if self.a1 is not None:
            for source, message in self.a1.poll():
                ack = self.a1_policies.handle(message)
                self.a1.send(source, ack)
        for source, message in self.channel.poll():
            msg_type = message["msg"]
            if msg_type == messages.MSG_SETUP_RESPONSE:
                if source in self.nodes:
                    self.nodes[source]["ready"] = bool(message["accepted"])
            elif msg_type == messages.MSG_SUBSCRIPTION_RESPONSE:
                pass  # accepted subscriptions simply start producing
            elif msg_type == messages.MSG_CONTROL_ACK:
                self.acks.append(message)
            elif msg_type == messages.MSG_INDICATION:
                self.indications_seen += 1
                self.indications_by_node[source] = (
                    self.indications_by_node.get(source, 0) + 1
                )
                if OBS.enabled:
                    self._indications_series.get(OBS.registry)[source].inc()
                executed.extend(self._handle_indication(source, message))
        return executed

    def _handle_indication(
        self, source: str, message: dict[str, Any]
    ) -> list[wire.XappAction]:
        if self.kpi_publisher is not None:
            from repro.ric.rapps import publish_slice_kpis

            publish_slice_kpis(self.kpi_publisher, message["slice_reports"])
        # only the record kinds some hosted xApp subscribes to are built
        wanted = {t for runtime in self.xapps.values() for t in runtime.msg_types}
        inputs = {}
        if wire.MSG_UE_MEAS in wanted:
            inputs[wire.MSG_UE_MEAS] = wire.ue_meas_records(message["ue_reports"])
        if wire.MSG_SLICE_KPI in wanted:
            # A1 policies override the node-reported target with the SLA the
            # operator actually configured (the SMO is authoritative, §Fig. 2)
            adjusted = []
            for record in wire.slice_kpi_records(message["slice_reports"]):
                sla = self.a1_policies.slice_sla_bps(record[0])
                if sla is not None:
                    record = record[:5] + (sla,)
                adjusted.append(record)
            inputs[wire.MSG_SLICE_KPI] = adjusted
        executed: list[wire.XappAction] = []
        for runtime in self.xapps.values():
            for msg_type in runtime.msg_types:
                records = inputs.get(msg_type, [])
                payload = wire.pack_xapp_input(msg_type, records)

                def dispatch(
                    _host=runtime.host, _payload=payload
                ) -> list[wire.XappAction]:
                    result = _host.call(_payload, entry="on_indication")
                    return wire.unpack_xapp_actions(result.output)

                with OBS.tracer.span(
                    "ric.xapp.dispatch", xapp=runtime.name, msg_type=msg_type
                ):
                    try:
                        if self.supervisor is not None:
                            actions = self.supervisor.call(
                                f"xapp:{runtime.name}",
                                dispatch,
                                retry_on=(PluginError, wire.XappWireError),
                            )
                        else:
                            actions = dispatch()
                    except CircuitOpenError:
                        # the xApp's breaker is open: skip it until the
                        # supervisor lets a half-open probe through
                        self.xapp_dispatches_skipped += 1
                        if OBS.enabled:
                            OBS.registry.counter(
                                "waran_ric_xapp_skipped_total",
                                "xApp dispatches skipped by an open breaker",
                            ).inc(xapp=runtime.name)
                        continue
                    except (PluginError, wire.XappWireError) as exc:
                        runtime.faults += 1
                        if OBS.enabled:
                            OBS.registry.counter(
                                "waran_ric_xapp_faults_total",
                                "xApp dispatches that faulted",
                            ).inc(xapp=runtime.name)
                            OBS.events.emit(
                                "ric.xapp_fault",
                                source=runtime.name,
                                msg_type=msg_type,
                                detail=str(exc),
                            )
                        continue
                runtime.calls += 1
                runtime.actions_emitted += len(actions)
                if OBS.enabled:
                    reg = OBS.registry
                    runtime._calls_series.get(reg, runtime.name).inc()
                    if actions:
                        runtime._actions_series.get(reg, runtime.name).inc(
                            len(actions)
                        )
                for action in actions:
                    self._execute_action(source, action)
                    executed.append(action)
        return executed

    def _execute_action(self, node_dest: str, action: wire.XappAction) -> None:
        if action.kind == wire.ACTION_HANDOVER:
            control = messages.control_request(
                next(self._request_ids),
                messages.ACTION_HANDOVER,
                action.target,
                action.value,
            )
        elif action.kind == wire.ACTION_SET_SLICE_QUOTA:
            control = messages.control_request(
                next(self._request_ids),
                messages.ACTION_SET_SLICE_QUOTA,
                action.target,
                action.value,
            )
        else:
            return  # unknown action kinds are dropped (defensive)
        if self._send(node_dest, control):
            self.controls_sent.append(control)

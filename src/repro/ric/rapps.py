"""rApps: non-time-critical optimization on the non-RT RIC (paper Fig. 2).

The near-RT RIC publishes per-indication slice KPI summaries onto a
pub/sub topic (the SMO data-collection path); an rApp consumes them at
leisure and emits *policies* over A1.  :class:`SlaPlannerRApp` implements
the canonical example: watch each slice's long-term utilization of its
SLA and re-plan the SLA - the slow loop above the SLA-assurance xApp's
fast loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.netio.pubsub import PubSubClient
from repro.ric.a1 import NonRtRic, POLICY_SLICE_SLA

#: pub/sub topic the near-RT RIC publishes slice KPIs on
KPI_TOPIC = "kpi.slice"

#: smoothed utilization (measured / SLA) at or above which the SLA grows
UPSCALE_AT = 0.9
#: ... and at or below which it shrinks
DOWNSCALE_AT = 0.4
#: factor one re-plan multiplies (or divides) the SLA by
SLA_STEP = 1.25
#: the SLA a downscale never goes below
MIN_SLA_BPS = 1e6


@dataclass
class _SliceStats:
    sla_bps: float
    utilization_ewma: float = 0.0
    samples: int = 0


@dataclass
class SlaPlannerRApp:
    """Adaptive SLA planning from long-term utilization.

    Policy: if a slice's smoothed utilization (measured / SLA) stays above
    ``UPSCALE_AT``, raise the SLA by ``SLA_STEP`` (up to ``max_sla_bps``);
    if it stays below ``DOWNSCALE_AT``, lower it - reclaiming capacity
    from idle tenants.  Re-planning happens at most every ``min_samples`` KPI
    reports, keeping this loop an order of magnitude slower than the
    near-RT one.
    """

    nonrt: NonRtRic
    subscriber: PubSubClient
    ric_a1_dest: str
    max_sla_bps: float = 25e6
    min_samples: int = 3
    alpha: float = 0.5
    slices: dict[int, _SliceStats] = field(default_factory=dict)
    policies_sent: list[tuple[int, float]] = field(default_factory=list)

    def set_initial_sla(self, slice_id: int, sla_bps: float) -> None:
        self.slices[slice_id] = _SliceStats(sla_bps=sla_bps)
        self._push(slice_id, sla_bps)

    def step_once(self) -> None:
        """Consume queued KPI reports and re-plan where warranted."""
        for topic, _seq, payload in self.subscriber.poll():
            if topic != KPI_TOPIC:
                continue
            try:
                report = json.loads(payload.decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            self._ingest(report)
        self.nonrt.poll_acks()

    def _ingest(self, report: dict) -> None:
        slice_id = int(report.get("slice_id", -1))
        stats = self.slices.get(slice_id)
        if stats is None or stats.sla_bps <= 0:
            return
        measured = float(report.get("measured_bps", 0.0))
        utilization = measured / stats.sla_bps
        stats.utilization_ewma = (
            (1 - self.alpha) * stats.utilization_ewma + self.alpha * utilization
        )
        stats.samples += 1
        if stats.samples < self.min_samples:
            return
        if stats.utilization_ewma >= UPSCALE_AT:
            new_sla = min(stats.sla_bps * SLA_STEP, self.max_sla_bps)
        elif stats.utilization_ewma <= DOWNSCALE_AT:
            new_sla = max(stats.sla_bps / SLA_STEP, MIN_SLA_BPS)
        else:
            return
        if abs(new_sla - stats.sla_bps) / stats.sla_bps < 0.01:
            return  # pinned at a bound
        stats.sla_bps = new_sla
        stats.samples = 0
        self._push(slice_id, new_sla)

    def _push(self, slice_id: int, sla_bps: float) -> None:
        self.nonrt.create_policy(
            self.ric_a1_dest,
            POLICY_SLICE_SLA,
            {"slice_id": slice_id, "sla_bps": sla_bps},
        )
        self.policies_sent.append((slice_id, sla_bps))


def publish_slice_kpis(publisher: PubSubClient, slice_reports: list[dict]) -> None:
    """Helper the near-RT RIC uses to feed the SMO data pipeline."""
    for report in slice_reports:
        publisher.publish(
            KPI_TOPIC, json.dumps(report, separators=(",", ":")).encode()
        )

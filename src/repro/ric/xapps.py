"""Native reference implementations of the shipped xApps.

These mirror the WACC plugins (``xapp_ts.wc``, ``xapp_sla.wc``) logic for
differential testing, and double as the "what a RIC vendor would have
built in" baselines.
"""

from __future__ import annotations

from repro.ric.wire import (
    ACTION_HANDOVER,
    ACTION_SET_SLICE_QUOTA,
    XappAction,
)

#: A3 hysteresis in CQI steps (``xapp_ts.wc``'s default)
TS_HYSTERESIS = 2

#: ``xapp_sla.wc``'s thresholds: boost a slice's quota to ``SLA_BOOST`` x
#: its SLA below ``SLA_LOW`` x SLA, reset it to the SLA above ``SLA_HIGH`` x
SLA_LOW = 0.9
SLA_HIGH = 1.1
SLA_BOOST = 1.2


def native_traffic_steering(
    records: list[tuple[int, int, int, int, float, float]],
) -> list[XappAction]:
    """A3-style handover decisions over ``MSG_UE_MEAS`` records."""
    actions = []
    for ue_id, serving_cqi, neighbor, neighbor_cqi, _avg, _buf in records:
        if neighbor > 0 and neighbor_cqi >= serving_cqi + TS_HYSTERESIS:
            actions.append(XappAction(ACTION_HANDOVER, ue_id, neighbor))
    return actions


def native_sla_assurance(
    records: list[tuple[int, int, int, int, float, float]],
) -> list[XappAction]:
    """Quota adjustments over ``MSG_SLICE_KPI`` records."""
    actions = []
    for slice_id, _b, _c, _d, measured, sla in records:
        if sla <= 0.0:
            continue
        if measured < sla * SLA_LOW:
            actions.append(
                XappAction(ACTION_SET_SLICE_QUOTA, slice_id, int(sla * SLA_BOOST))
            )
        elif measured > sla * SLA_HIGH:
            actions.append(XappAction(ACTION_SET_SLICE_QUOTA, slice_id, int(sla)))
    return actions

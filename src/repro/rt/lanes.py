"""Priority lanes: how one slot's fuel budget is split across plugins.

A *lane* is a priority class for plugin dispatch.  Every slice runtime is
assigned to a lane (``sla`` for SLA-critical schedulers, ``be`` for
best-effort, ``normal`` between them); when the slot's fuel budget is
scarce, higher-priority lanes are planned first and non-sheddable lanes
are never the ones dropped.

The planner (:class:`LaneTable`) is a pure function of its arguments -
no clocks, no RNG - so lane decisions are deterministic functions of
(spec, seed, slot) as the cluster digest invariance requires.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LaneSpec:
    """One priority class.

    ``share`` is the lane's guaranteed fraction of the slot fuel budget
    (normalised over all lanes); budget unused by higher-priority lanes
    rolls down.  ``sheddable=False`` lanes are never shed by the planner:
    when their equal split is below ``min_call_fuel`` they still dispatch
    (and may fuel-cut), because dropping an SLA plugin silently is worse
    than degrading it visibly.
    """

    name: str
    priority: int  # lower dispatches first
    share: float
    sheddable: bool = True


#: the default three-class portfolio: half the budget guaranteed to the
#: SLA lane, the rest split between normal and best-effort
DEFAULT_LANES: tuple[LaneSpec, ...] = (
    LaneSpec("sla", 0, 0.5, sheddable=False),
    LaneSpec("normal", 1, 0.3),
    LaneSpec("be", 2, 0.2),
)

LANE_SLA = "sla"
LANE_NORMAL = "normal"
LANE_BE = "be"


def parse_lanes(text: str) -> tuple[LaneSpec, ...]:
    """Parse ``"sla:50;normal:30;be:20"`` into lane specs.

    Entries are ``name:share`` (share in percent, any positive scale),
    priority follows listing order, and a lane named ``sla`` - or marked
    with a trailing ``!`` (``"gold!:60;be:40"``) - is non-sheddable.
    """
    lanes: list[LaneSpec] = []
    for prio, entry in enumerate(p for p in text.replace(",", ";").split(";") if p):
        name, _, share_text = entry.partition(":")
        name = name.strip()
        pinned = name.endswith("!")
        if pinned:
            name = name[:-1]
        if not name:
            raise ValueError(f"empty lane name in {text!r}")
        try:
            share = float(share_text) if share_text else 1.0
        except ValueError as exc:
            raise ValueError(f"bad lane share in {entry!r}") from exc
        if share <= 0:
            raise ValueError(f"lane {name!r} share must be positive")
        lanes.append(
            LaneSpec(name, prio, share, sheddable=not (pinned or name == LANE_SLA))
        )
    if not lanes:
        raise ValueError(f"no lanes in {text!r}")
    names = [lane.name for lane in lanes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate lane names in {text!r}")
    return tuple(lanes)


def format_lanes(lanes: tuple[LaneSpec, ...]) -> str:
    """The inverse of :func:`parse_lanes` (share rendered as percent)."""
    total = sum(lane.share for lane in lanes)
    parts = []
    for lane in sorted(lanes, key=lambda l: l.priority):
        mark = "" if lane.sheddable or lane.name == LANE_SLA else "!"
        parts.append(f"{lane.name}{mark}:{100.0 * lane.share / total:g}")
    return ";".join(parts)


class LaneTable:
    """The lane plan of one dispatcher, built once from the slot's fuel
    budget, its lanes and ``min_call_fuel``; per slot it only splits.

    ``lanes`` are in dispatch order (priority, then name) and ``quotas``
    are their guaranteed shares of the budget.  :meth:`index` maps a lane
    name to its position; an unknown name goes to the floor lane, the
    last to dispatch.
    """

    def __init__(
        self, budget_fuel: int, lanes: tuple[LaneSpec, ...], min_call_fuel: int
    ):
        self.budget_fuel = budget_fuel
        self.min_call_fuel = min_call_fuel
        self.lanes = sorted(lanes, key=lambda l: (l.priority, l.name))
        total_share = sum(lane.share for lane in lanes) or 1.0
        self.quotas = [
            int(budget_fuel * lane.share / total_share) for lane in self.lanes
        ]
        self.floor = self.lanes.index(
            min(lanes, key=lambda l: (-l.priority, l.name))
        )
        #: lanes share a priority: dispatch order is not table order alone
        self.tied = len({lane.priority for lane in lanes}) < len(lanes)
        self._index = {lane.name: i for i, lane in enumerate(self.lanes)}

    def index(self, name: str) -> int:
        return self._index.get(name, self.floor)

    def split(self, counts: list[int]) -> list[tuple[int, int]]:
        """Split the budget over ``counts[i]`` requests in lane ``i``.

        Returns ``(fuel, admitted)`` per lane: the lane's first
        ``admitted`` requests get ``fuel`` each and the rest are shed.
        Each lane gets its quota plus whatever higher-priority lanes left
        unused, split equally.  When a sheddable lane's equal split falls
        below ``min_call_fuel`` the lane admits as many requests as still
        get ``min_call_fuel`` and sheds the rest.
        """
        min_fuel = self.min_call_fuel
        plan = []
        remaining = max(0, self.budget_fuel)
        unused = 0  # budget released by higher-priority lanes
        for lane, quota, n in zip(self.lanes, self.quotas, counts):
            avail = min(remaining, quota + unused)
            if not n:
                plan.append((0, 0))
                unused = avail
                continue
            fuel = avail // n
            admitted = n
            if fuel < min_fuel and lane.sheddable:
                fuel = min_fuel
                if min_fuel > 0:
                    admitted = max(0, min(n, avail // min_fuel))
            plan.append((fuel, admitted))
            used = fuel * admitted
            unused = avail - used
            remaining -= used
        return plan

"""Multi-cell mobility: executing the traffic-steering xApp's handovers.

The xApp decides *that* a UE should move (an A3-style event on reported
neighbour CQI); something has to execute the move.  In a real deployment
that is the gNBs' Xn handover procedure; here :class:`TwoCellTopology`
provides that substrate for tests and examples - two gNBs, each with an
E2-node agent talking to one near-RT RIC, plus the UE-context transfer
when a handover control arrives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.e2 import CommChannel, E2NodeAgent, messages
from repro.gnb.host import GnbHost, UeContext
from repro.netio.bus import InProcNetwork
from repro.ric.host import NearRtRic


@dataclass
class HandoverEvent:
    slot: int
    ue_id: int
    source_cell: int
    target_cell: int


class TwoCellTopology:
    """Two gNBs + one RIC, with working handover execution.

    Cells are numbered 1 and 2.  The RIC's handover controls are executed
    by moving the :class:`UeContext` between gNBs and swapping its
    serving/neighbour channels (after the move, the old serving cell *is*
    the neighbour).
    """

    def __init__(self, gnb1: GnbHost, gnb2: GnbHost, vendor_profile):
        self.network = InProcNetwork()
        self.cells: dict[int, GnbHost] = {1: gnb1, 2: gnb2}
        self.nodes: dict[int, E2NodeAgent] = {}
        for cell_id, gnb in self.cells.items():
            channel = CommChannel(self.network.endpoint(f"gnb{cell_id}"), vendor_profile)
            self.nodes[cell_id] = E2NodeAgent(gnb, channel, f"gnb{cell_id}")
        self.ric = NearRtRic(
            CommChannel(self.network.endpoint("ric"), vendor_profile), name="ric"
        )
        self.handovers: list[HandoverEvent] = []
        self._detached: dict[int, UeContext] = {}
        # The node agent detaches UEs on ACTION_HANDOVER; capture the
        # context first so it survives the move to the target cell.
        for node in self.nodes.values():
            self._hook_capture(node)

    def _hook_capture(self, node: E2NodeAgent) -> None:
        original_apply = node._apply_control

        def apply_with_capture(message):
            if message["action"] == messages.ACTION_HANDOVER:
                ue = node.gnb.ues.get(message["target"])
                if ue is not None:
                    self._detached[ue.ue_id] = ue
            return original_apply(message)

        node._apply_control = apply_with_capture

    def connect(self, period_slots: int = 100) -> None:
        for cell_id in self.cells:
            self.ric.connect(f"gnb{cell_id}", period_slots=period_slots)

    def attach(self, ue: UeContext, cell_id: int) -> None:
        self.cells[cell_id].attach_ue(ue)

    def step(self) -> None:
        """One slot everywhere, then RIC processing and handover execution."""
        for gnb in self.cells.values():
            gnb.step()
        for node in self.nodes.values():
            node.step()
        self.ric.step()
        self._execute_handovers()

    def run(self, n_slots: int) -> None:
        for _ in range(n_slots):
            self.step()

    def _execute_handovers(self) -> None:
        """Move UEs whose handover controls were applied by a node agent."""
        for cell_id, node in self.nodes.items():
            applied = node.controls_applied
            executed = [
                c for c in applied if c["action"] == messages.ACTION_HANDOVER
            ]
            for control in executed:
                applied.remove(control)
            for control in executed:
                ue_id = control["target"]
                target_cell = control["value"]
                if target_cell not in self.cells:
                    continue
                self._transfer(ue_id, cell_id, target_cell)

    def _transfer(self, ue_id: int, source_cell: int, target_cell: int) -> None:
        # the node agent already detached the UE from the source gNB; we
        # kept a reference through the control's metadata, so rebuild it
        source = self.cells[source_cell]
        target = self.cells[target_cell]
        ue = self._detached.pop(ue_id, None)
        if ue is None:
            return
        # after handover the old serving channel becomes the neighbour
        ue.channel, ue.neighbor_channel = (
            ue.neighbor_channel or ue.channel,
            ue.channel,
        )
        ue.neighbor_cell = source_cell
        ue.slice_id = ue.slice_id if ue.slice_id in target.slices else (
            next(iter(target.slices))
        )
        target.attach_ue(ue)
        self.handovers.append(
            HandoverEvent(source.slot, ue_id, source_cell, target_cell)
        )

"""AMF-lite: UE registration, slice admission, PDU session bookkeeping."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class AdmissionError(Exception):
    """Registration or session establishment rejected."""


@dataclass(frozen=True)
class Snssai:
    """Single Network Slice Selection Assistance Information.

    ``sst`` is the slice/service type (1 = eMBB, 2 = URLLC, 3 = MIoT);
    ``sd`` the slice differentiator distinguishing tenants (MVNOs).
    """

    sst: int
    sd: int = 0

    def __post_init__(self):
        if not 0 <= self.sst <= 255:
            raise ValueError(f"sst must fit one byte, got {self.sst}")
        if not 0 <= self.sd <= 0xFFFFFF:
            raise ValueError(f"sd must fit three bytes, got {self.sd}")


@dataclass
class UeRecord:
    ue_id: int
    imsi: str
    snssai: Snssai


@dataclass
class PduSession:
    session_id: int
    ue_id: int
    snssai: Snssai
    qos_5qi: int = 9  # default non-GBR best effort


@dataclass
class _SliceAdmission:
    snssai: Snssai
    max_ues: int
    ue_ids: set[int] = field(default_factory=set)


class Amf:
    """Registration + admission control for the simulated network."""

    def __init__(self) -> None:
        self._slices: dict[Snssai, _SliceAdmission] = {}
        self._ues: dict[int, UeRecord] = {}
        self._by_imsi: dict[str, int] = {}
        self._sessions: dict[int, PduSession] = {}
        self._ue_ids = itertools.count(1)
        self._session_ids = itertools.count(1)

    def configure_slice(self, snssai: Snssai, max_ues: int = 64) -> None:
        if max_ues <= 0:
            raise ValueError("max_ues must be positive")
        self._slices[snssai] = _SliceAdmission(snssai, max_ues)

    def register(self, imsi: str, snssai: Snssai) -> UeRecord:
        """Register a UE into a slice; raises :class:`AdmissionError` if the
        slice is unknown, full, or the IMSI is already registered."""
        if imsi in self._by_imsi:
            raise AdmissionError(f"IMSI {imsi} already registered")
        admission = self._slices.get(snssai)
        if admission is None:
            raise AdmissionError(f"slice {snssai} not configured")
        if len(admission.ue_ids) >= admission.max_ues:
            raise AdmissionError(f"slice {snssai} full ({admission.max_ues} UEs)")
        ue_id = next(self._ue_ids)
        record = UeRecord(ue_id, imsi, snssai)
        self._ues[ue_id] = record
        self._by_imsi[imsi] = ue_id
        admission.ue_ids.add(ue_id)
        return record

    def establish_session(self, ue_id: int, qos_5qi: int = 9) -> PduSession:
        record = self._ues.get(ue_id)
        if record is None:
            raise AdmissionError(f"unknown UE {ue_id}")
        session = PduSession(next(self._session_ids), ue_id, record.snssai, qos_5qi)
        self._sessions[session.session_id] = session
        return session

    def ue(self, ue_id: int) -> UeRecord:
        try:
            return self._ues[ue_id]
        except KeyError:
            raise AdmissionError(f"unknown UE {ue_id}") from None

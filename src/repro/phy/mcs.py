"""MCS and CQI tables (3GPP 38.214 §5.1.3.1 and §5.2.2.1).

``MCS_TABLE_1`` is PDSCH MCS index table 1 (Table 5.1.3.1-1), 64QAM-max,
which is what a 10 MHz srsRAN deployment uses by default.  ``CQI_TABLE_1``
is CQI table 1 (Table 5.2.2.1-2).  ``cqi_to_mcs`` picks the highest MCS
whose spectral efficiency does not exceed the CQI's - the standard link
adaptation rule.  ``sinr_db_to_cqi`` is the link abstraction: SINR
thresholds at ~10% BLER from common link-level curves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class McsEntry:
    index: int
    qm: int  # modulation order: bits per symbol
    rate_x1024: float  # target code rate * 1024

    @property
    def code_rate(self) -> float:
        return self.rate_x1024 / 1024.0

    @property
    def spectral_efficiency(self) -> float:
        return self.qm * self.code_rate


@dataclass(frozen=True)
class CqiEntry:
    index: int
    qm: int
    rate_x1024: float

    @property
    def spectral_efficiency(self) -> float:
        return self.qm * self.rate_x1024 / 1024.0


#: 38.214 Table 5.1.3.1-1 (MCS index table 1 for PDSCH)
MCS_TABLE_1: list[McsEntry] = [
    McsEntry(0, 2, 120),
    McsEntry(1, 2, 157),
    McsEntry(2, 2, 193),
    McsEntry(3, 2, 251),
    McsEntry(4, 2, 308),
    McsEntry(5, 2, 379),
    McsEntry(6, 2, 449),
    McsEntry(7, 2, 526),
    McsEntry(8, 2, 602),
    McsEntry(9, 2, 679),
    McsEntry(10, 4, 340),
    McsEntry(11, 4, 378),
    McsEntry(12, 4, 434),
    McsEntry(13, 4, 490),
    McsEntry(14, 4, 553),
    McsEntry(15, 4, 616),
    McsEntry(16, 4, 658),
    McsEntry(17, 6, 438),
    McsEntry(18, 6, 466),
    McsEntry(19, 6, 517),
    McsEntry(20, 6, 567),
    McsEntry(21, 6, 616),
    McsEntry(22, 6, 666),
    McsEntry(23, 6, 719),
    McsEntry(24, 6, 772),
    McsEntry(25, 6, 822),
    McsEntry(26, 6, 873),
    McsEntry(27, 6, 910),
    McsEntry(28, 6, 948),
]

#: 38.214 Table 5.2.2.1-2 (CQI table 1); index 0 means out of range.
CQI_TABLE_1: list[CqiEntry] = [
    CqiEntry(1, 2, 78),
    CqiEntry(2, 2, 120),
    CqiEntry(3, 2, 193),
    CqiEntry(4, 2, 308),
    CqiEntry(5, 2, 449),
    CqiEntry(6, 2, 602),
    CqiEntry(7, 4, 378),
    CqiEntry(8, 4, 490),
    CqiEntry(9, 4, 616),
    CqiEntry(10, 6, 466),
    CqiEntry(11, 6, 567),
    CqiEntry(12, 6, 666),
    CqiEntry(13, 6, 772),
    CqiEntry(14, 6, 873),
    CqiEntry(15, 6, 948),
]

#: 38.214 Table 5.1.3.1-2 (MCS index table 2, 256QAM)
MCS_TABLE_2: list[McsEntry] = [
    McsEntry(0, 2, 120),
    McsEntry(1, 2, 193),
    McsEntry(2, 2, 308),
    McsEntry(3, 2, 449),
    McsEntry(4, 2, 602),
    McsEntry(5, 4, 378),
    McsEntry(6, 4, 434),
    McsEntry(7, 4, 490),
    McsEntry(8, 4, 553),
    McsEntry(9, 4, 616),
    McsEntry(10, 4, 658),
    McsEntry(11, 6, 466),
    McsEntry(12, 6, 517),
    McsEntry(13, 6, 567),
    McsEntry(14, 6, 616),
    McsEntry(15, 6, 666),
    McsEntry(16, 6, 719),
    McsEntry(17, 6, 772),
    McsEntry(18, 6, 822),
    McsEntry(19, 6, 873),
    McsEntry(20, 8, 682.5),
    McsEntry(21, 8, 711),
    McsEntry(22, 8, 754),
    McsEntry(23, 8, 797),
    McsEntry(24, 8, 841),
    McsEntry(25, 8, 885),
    McsEntry(26, 8, 916.5),
    McsEntry(27, 8, 948),
]

#: 38.214 Table 5.2.2.1-3 (CQI table 2, 256QAM)
CQI_TABLE_2: list[CqiEntry] = [
    CqiEntry(1, 2, 78),
    CqiEntry(2, 2, 193),
    CqiEntry(3, 2, 449),
    CqiEntry(4, 4, 378),
    CqiEntry(5, 4, 490),
    CqiEntry(6, 4, 616),
    CqiEntry(7, 6, 466),
    CqiEntry(8, 6, 567),
    CqiEntry(9, 6, 666),
    CqiEntry(10, 6, 772),
    CqiEntry(11, 6, 873),
    CqiEntry(12, 8, 711),
    CqiEntry(13, 8, 797),
    CqiEntry(14, 8, 885),
    CqiEntry(15, 8, 948),
]

MCS_TABLES = {1: MCS_TABLE_1, 2: MCS_TABLE_2}
CQI_TABLES = {1: CQI_TABLE_1, 2: CQI_TABLE_2}

#: SINR (dB) thresholds for CQI 1..15 at ~10% BLER (link abstraction).
SINR_THRESHOLDS_DB = [
    -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1, 10.3, 11.7, 14.1, 16.3,
    18.7, 21.0, 22.7,
]


def sinr_db_to_cqi(sinr_db: float) -> int:
    """Map SINR to CQI 0..15 (0 = below the lowest usable threshold)."""
    return bisect_right(SINR_THRESHOLDS_DB, sinr_db)


def _highest_mcs(cqi: int, table: int) -> int:
    """The link-adaptation rule itself, for one (table, CQI 1..15)."""
    target = CQI_TABLES[table][cqi - 1].spectral_efficiency
    best = 0
    for entry in MCS_TABLES[table]:
        if entry.spectral_efficiency <= target + 1e-9:
            best = entry.index
    return best


#: the rule evaluated once per (table, CQI 0..15): a scheduler looks this
#: up per UE per slot, and the tables never change after import
_CQI_TO_MCS: dict[int, tuple[int, ...]] = {
    table: (0,) + tuple(_highest_mcs(cqi, table) for cqi in range(1, 16))
    for table in MCS_TABLES
}


def cqi_to_mcs(cqi: int, table: int = 1) -> int:
    """Highest MCS index whose spectral efficiency <= the CQI's.

    ``table`` selects the MCS/CQI table pair (1 = 64QAM, 2 = 256QAM -
    switchable at run time via the RC-lite ``set_cqi_table`` control).
    CQI 0 (out of range) maps to MCS 0; the UE shouldn't really be
    scheduled, which is the scheduler's decision, not the table's.
    """
    if not 0 <= cqi <= 15:
        raise ValueError(f"CQI must be 0..15, got {cqi}")
    if table not in _CQI_TO_MCS:
        raise ValueError(f"unknown MCS/CQI table {table}")
    return _CQI_TO_MCS[table][cqi]


def mcs_entry(index: int, table: int = 1) -> McsEntry:
    """Lookup with range checking."""
    entries = MCS_TABLES.get(table)
    if entries is None:
        raise ValueError(f"unknown MCS table {table}")
    if not 0 <= index < len(entries):
        raise ValueError(
            f"MCS index must be 0..{len(entries) - 1} for table {table}, "
            f"got {index}"
        )
    return entries[index]

"""NR numerology and carrier configuration (38.211 §4, 38.101 §5.3).

NR numerology mu scales the subcarrier spacing as ``15 * 2**mu`` kHz and
the slot duration as ``1 / 2**mu`` ms.  The paper's testbed uses mu = 0
(15 kHz SCS, 1 ms slot) in FDD band n3 with 10 MHz bandwidth, which gives
52 usable PRBs (38.101-1 Table 5.3.2-1).
"""

from __future__ import annotations

from dataclasses import dataclass

#: 38.101-1 Table 5.3.2-1 - max transmission bandwidth N_RB for FR1,
#: keyed by (scs_khz, bandwidth_mhz).
N_RB_TABLE: dict[tuple[int, int], int] = {
    (15, 5): 25,
    (15, 10): 52,
    (15, 15): 79,
    (15, 20): 106,
    (15, 25): 133,
    (15, 30): 160,
    (15, 40): 216,
    (15, 50): 270,
    (30, 5): 11,
    (30, 10): 24,
    (30, 15): 38,
    (30, 20): 51,
    (30, 25): 65,
    (30, 30): 78,
    (30, 40): 106,
    (30, 50): 133,
    (30, 60): 162,
    (30, 80): 217,
    (30, 100): 273,
    (60, 10): 11,
    (60, 15): 18,
    (60, 20): 24,
    (60, 40): 51,
    (60, 60): 79,
    (60, 80): 107,
    (60, 100): 135,
}

#: subcarriers per PRB (38.211)
SUBCARRIERS_PER_PRB = 12


@dataclass(frozen=True)
class Numerology:
    """NR numerology mu in 0..4."""

    mu: int = 0

    def __post_init__(self):
        if not 0 <= self.mu <= 4:
            raise ValueError(f"numerology mu must be 0..4, got {self.mu}")

    @property
    def scs_khz(self) -> int:
        return 15 * (1 << self.mu)

    @property
    def slot_duration_s(self) -> float:
        return 1e-3 / (1 << self.mu)

    @property
    def slot_duration_us(self) -> float:
        return 1000.0 / (1 << self.mu)


@dataclass(frozen=True)
class CarrierConfig:
    """One FDD downlink carrier: bandwidth and numerology.

    Defaults reproduce the paper's testbed carrier in band n3: 10 MHz,
    15 kHz SCS.
    """

    bandwidth_mhz: int = 10
    numerology: Numerology = Numerology(0)

    def __post_init__(self):
        key = (self.numerology.scs_khz, self.bandwidth_mhz)
        if key not in N_RB_TABLE:
            raise ValueError(
                f"unsupported (scs, bandwidth) combination {key}; "
                f"valid: {sorted(N_RB_TABLE)}"
            )

    @property
    def n_prb(self) -> int:
        """Usable PRBs for this bandwidth/SCS (38.101-1 Table 5.3.2-1)."""
        return N_RB_TABLE[(self.numerology.scs_khz, self.bandwidth_mhz)]

    @property
    def slot_duration_s(self) -> float:
        return self.numerology.slot_duration_s


#: the paper's testbed carrier
PAPER_CARRIER = CarrierConfig()

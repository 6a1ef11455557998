"""5G NR PHY-layer abstractions (3GPP 38.211/38.214 subset).

This is the substrate under the MVNO slice-scheduler experiments: the
testbed in the paper runs srsRAN in FDD band n3 with 15 kHz subcarrier
spacing and 10 MHz bandwidth (-> 52 PRBs, 1 ms slots).  What the scheduler
experiments actually consume from the PHY is:

- slot timing (:class:`Numerology`, :class:`CarrierConfig`);
- the MCS table (modulation order + code rate per index, 38.214 Table
  5.1.3.1-1) and CQI table 1 with the CQI->MCS mapping;
- transport-block-size computation (38.214 §5.1.3.2), which converts
  "this UE got N PRBs at MCS m" into deliverable bytes per slot.

All three are implemented from the 3GPP procedures, so scheduler behaviour
(rates per MCS, crossovers) matches the shape a real gNB produces.
"""

from repro.phy.numerology import CarrierConfig, Numerology
from repro.phy.mcs import (
    CQI_TABLE_1,
    MCS_TABLE_1,
    CqiEntry,
    McsEntry,
    cqi_to_mcs,
)
from repro.phy.tbs import transport_block_size_bits

__all__ = [
    "Numerology",
    "CarrierConfig",
    "MCS_TABLE_1",
    "CQI_TABLE_1",
    "McsEntry",
    "CqiEntry",
    "cqi_to_mcs",
    "transport_block_size_bits",
]

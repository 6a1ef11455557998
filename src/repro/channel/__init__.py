"""Per-UE radio channel models.

Each model produces a CQI per slot; link adaptation (CQI -> MCS) happens in
the MAC.  Two models cover the experiments:

- :class:`FixedMcsChannel` - pins the UE at one MCS, as the live-swap
  experiment (Fig. 5b) does with its MCS-20/24/28 UEs;
- :class:`MarkovCqiChannel` - a bounded random walk over CQI, the standard
  lightweight fading abstraction.
"""

from repro.channel.models import ChannelModel, FixedMcsChannel, MarkovCqiChannel

__all__ = [
    "ChannelModel",
    "FixedMcsChannel",
    "MarkovCqiChannel",
]

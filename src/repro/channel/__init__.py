"""Per-UE radio channel models.

Each model reports a CQI per slot together with its link-adapted MCS
(:meth:`ChannelModel.report`, one call per UE per slot).  Two models cover
the experiments:

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

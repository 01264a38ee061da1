"""Mobile-client access protocols and energy accounting.

Clients pay *tuning time* (bytes listened to in active mode, the paper's
energy proxy) for: the initial probe, index packets, second-tier offset
packets and document packets.  Three protocols are implemented, one
class each:

* :mod:`repro.client.onetier` -- the baseline protocol over the one-tier
  PCI (paper Section 3.1): an index search in **every** cycle until the
  result set is complete, because document pointers change each cycle;
* :mod:`repro.client.twotier` -- the improved protocol (Section 3.4):
  first-tier search **once** to record result document IDs, then only the
  small second-tier offset list of each following cycle (Equation 1).
  The one :class:`TwoTierClient` is a single tuner over however many
  data channels the cycle carries, and applies the loss-recovery ladder
  when given a lossy :class:`~repro.broadcast.loss.PacketLossModel`;
  channel count and channel quality are inputs, not separate clients;
* :mod:`repro.client.naive` -- no index at all: exhaustively download the
  data segment and filter locally (the Section 2.3 motivation).

All protocols consume :class:`~repro.broadcast.program.BroadcastCycle`
objects one at a time and accumulate :class:`~repro.client.metrics.ClientMetrics`.
"""

from repro.client.metrics import ClientMetrics
from repro.client.protocol import AccessProtocol, FirstTierRead, OffsetRead
from repro.client.onetier import OneTierClient
from repro.client.twotier import TwoTierClient
from repro.client.naive import NaiveClient

__all__ = [
    "ClientMetrics",
    "AccessProtocol",
    "FirstTierRead",
    "OffsetRead",
    "OneTierClient",
    "TwoTierClient",
    "NaiveClient",
]

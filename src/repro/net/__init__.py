"""Simulated network substrate.

Implements the physical-system model under the Section 8 analysis:

- each processor and each ordered pair of processors has a *failure
  status* in {good, bad, ugly} (Figure 4 of the paper);
- while a link (p, q) is good, every packet sent from p to q arrives
  within time ``delta``;
- while it is bad, no packet is delivered;
- while it is ugly, packets may or may not be delivered, with no timing
  guarantee;
- a good processor takes enabled steps immediately, a bad processor takes
  no steps, an ugly one runs at nondeterministic speed.

Failure-status changes over virtual time — in particular the
"stabilise to a consistently partitioned system" shape that the
conditional properties TO-property and VS-property quantify over — are
scripted by :class:`repro.faults.FaultSchedule` layouts.
"""

from repro.net.status import FailureStatus, FailureOracle, StatusEvent
from repro.net.channel import Channel, ChannelConfig
from repro.net.network import Network, NetworkNode

__all__ = [
    "FailureStatus",
    "FailureOracle",
    "StatusEvent",
    "Channel",
    "ChannelConfig",
    "Network",
    "NetworkNode",
]

"""Live asyncio runtime: the VS/TO stack over real sockets.

The simulator reproduces the paper's Section 8 implementation under a
deterministic clock; this package runs the *same protocol objects*
(:class:`~repro.membership.ring.RingMember`,
:class:`~repro.core.vstoto.runtime.VStoTORuntime`) across real OS
processes over TCP:

- :mod:`repro.rt.wire` — the wire: binary frames, an interning codec
  for every protocol message (tokens, membership rounds, client
  payloads, control ops) and batching;
- :mod:`repro.rt.framing` — the message registry and the tagged-JSON
  grammar the event logs are written in;
- :mod:`repro.rt.clock` — :class:`LiveScheduler`, a Simulator-shaped
  timer facade over the asyncio event loop (the one place protocol
  code touches the host clock; see the ``repro.rt`` carve-out in the
  DET002 lint rule);
- :mod:`repro.rt.transport` — :class:`LiveNetwork`, the
  :class:`~repro.net.network.Network` surface over persistent TCP
  streams, with firewall-style peer blocking for partition injection;
- :mod:`repro.rt.trace` — per-node JSONL event capture and the offline
  merge + verification path (the captured trace is checked with the
  *same* :class:`~repro.core.monitor.OnlineVSMonitor` and TO-machine
  trace membership used for simulated runs);
- :mod:`repro.rt.faults` — live partition windows, reusing
  :class:`~repro.faults.schedule.FaultSchedule` timing;
- :mod:`repro.rt.node` — ``python -m repro.rt.node``, one ring member
  per hosted VS group (``--shards``, default one) as a daemon process;
- :mod:`repro.rt.cluster` — ``python -m repro.rt.cluster``, the driver
  that spawns nodes, drives keyed client load, partitions/heals/kills,
  and verifies each group's captured trace.

Determinism contract: live runs are *not* replayable from a seed (real
scheduling and real sockets); what is preserved is checkability — every
external event is captured and the capture must lie in the trace sets
of the VS and TO specifications.
"""

from __future__ import annotations

from repro.rt.clock import LiveScheduler
from repro.rt.framing import FrameError, MAX_FRAME
from repro.rt.transport import Ctl, Hello, LiveNetwork
from repro.rt.trace import EventLog, VerifyReport, load_event_logs, verify_events

__all__ = [
    "Ctl",
    "EventLog",
    "FrameError",
    "Hello",
    "LiveNetwork",
    "LiveScheduler",
    "MAX_FRAME",
    "VerifyReport",
    "load_event_logs",
    "verify_events",
]

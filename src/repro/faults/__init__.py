"""Nemesis-style fault injection for the token-ring stack.

The paper's theorems are conditional on *every* execution — including
those with packet loss, duplication, reordering, crash-restart and
timer skew, none of which the scenario-level good/bad/ugly oracle can
express at packet granularity.  This package supplies:

- :mod:`~repro.faults.injectors` — composable, deterministically seeded
  fault injectors built on the packet-interception middleware of
  :class:`repro.net.channel.Channel` and on membership-layer hooks
  (crash-restart, timer skew);
- :mod:`~repro.faults.schedule` — :class:`FaultSchedule`, timed windows
  of injector activity and time-ordered partition layouts, plus a
  seeded random adversarial generator;
- :mod:`~repro.faults.chaos` — :class:`ChaosRunner`, which runs the
  full VStoTO-over-token-ring stack under a schedule with the online VS
  monitor and TO trace checker attached, and reports safety violations
  (must be zero), recovery time and drop diagnostics.
"""

from repro.faults.chaos import (
    ChaosReport,
    ChaosRunner,
    run_chaos,
    run_chaos_many,
    run_chaos_sweep,
)
from repro.faults.injectors import (
    ChaosContext,
    CrashRestartInjector,
    FaultInjector,
    ForcedViolationInjector,
    PacketDelayInjector,
    PacketDuplicateInjector,
    PacketInjector,
    PacketLossInjector,
    PacketReorderInjector,
    PartitionInjector,
    TimerSkewInjector,
    TokenLossInjector,
    majority_split,
)
from repro.faults.schedule import (
    ALL_FAULT_KINDS,
    SPEC_KINDS,
    FaultSchedule,
    FaultWindow,
    Layout,
    injector_from_spec,
    injector_to_spec,
)
from repro.faults.triggers import (
    ProtocolEvent,
    ProtocolEventHub,
    TriggeredFault,
    TriggerSpec,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "SPEC_KINDS",
    "ChaosContext",
    "ChaosReport",
    "ChaosRunner",
    "CrashRestartInjector",
    "FaultInjector",
    "FaultSchedule",
    "FaultWindow",
    "ForcedViolationInjector",
    "Layout",
    "PacketDelayInjector",
    "PacketDuplicateInjector",
    "PacketInjector",
    "PacketLossInjector",
    "PacketReorderInjector",
    "PartitionInjector",
    "ProtocolEvent",
    "ProtocolEventHub",
    "TimerSkewInjector",
    "TokenLossInjector",
    "TriggerSpec",
    "TriggeredFault",
    "injector_from_spec",
    "injector_to_spec",
    "majority_split",
    "run_chaos",
    "run_chaos_many",
    "run_chaos_sweep",
]

"""The live interpreter of a fault schedule's partition subset.

The simulator's nemesis (:mod:`repro.faults`) perturbs packets inside
the process; live nodes are separate OS processes, so the lever is the
socket-layer firewall on :class:`~repro.rt.transport.LiveNetwork`.  Of
a :class:`~repro.faults.schedule.FaultSchedule` a live cluster can
enact exactly the timed :class:`~repro.faults.injectors.PartitionInjector`
windows: the cluster driver turns each into ``block``/``unblock``
control messages, so that during the window each node drops frames to
and from everything outside its own component
(:meth:`PartitionInjector.blocked_for`).  Everything else is refused
with :class:`UnenactableFault`.

This closes half of the live→sim loop: the same scenario file that
reproduces a failure in the simulator drives the firewall on a real
cluster (``python -m repro.rt.cluster --scenario``).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from repro.faults.injectors import PartitionInjector, majority_split
from repro.faults.schedule import FaultSchedule, FaultWindow


class UnenactableFault(ValueError):
    """A schedule entry the live firewall cannot enact."""


def live_windows(
    schedule: FaultSchedule,
    sim_processors: Sequence[Hashable],
    live_processors: Sequence[str],
    time_scale: float = 1.0,
) -> tuple[FaultWindow, ...]:
    """The schedule's partition windows on a live cluster, in time order.

    Each simulated processor id maps onto a live node id by sorted
    position (``sorted(..., key=str)``, a deterministic bijection), and
    ``time_scale`` converts virtual time units into wall seconds (a
    schedule built for δ=1 drives a cluster running δ=0.05 s with
    ``time_scale=0.05``).
    """
    if len(set(sim_processors)) != len(live_processors):
        raise ValueError(
            f"scenario has {len(set(sim_processors))} processors, "
            f"cluster has {len(live_processors)}"
        )
    if schedule.triggered:
        raise UnenactableFault(
            f"triggered window {schedule.triggered[0].injector.name!r}: "
            f"the live firewall has no protocol-event hook"
        )
    if schedule.layouts:
        raise UnenactableFault(
            f"layout at t={schedule.layouts[0].time:g}: the live firewall "
            f"cannot set processor or ugly statuses"
        )
    mapping = dict(zip(sorted(sim_processors, key=str), live_processors))
    windows: list[FaultWindow] = []
    for window in sorted(schedule.windows, key=lambda w: (w.start, w.stop)):
        injector = window.injector
        if not isinstance(injector, PartitionInjector):
            raise UnenactableFault(
                f"window {injector.name!r} ({injector.SPEC_KIND}): the live "
                f"firewall enacts only partition windows"
            )
        groups = [[mapping[p] for p in group] for group in injector.groups]
        windows.append(
            FaultWindow(
                window.start * time_scale,
                window.stop * time_scale,
                PartitionInjector(injector.name, groups),
            )
        )
    return tuple(windows)


def single_partition_window(
    processors: Iterable[str], start: float, stop: float
) -> PartitionInjector:
    """The default cluster-driver episode: one majority/minority split.

    The cluster driver times the episode itself; ``start`` and ``stop``
    are not read.
    """
    return PartitionInjector("partition", majority_split(processors))

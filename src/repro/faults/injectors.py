"""Composable, deterministically-seeded fault injectors (the nemesis).

Each injector perturbs one aspect of the executing system — per-link
packet loss / duplication / delay-jitter / reordering holds, targeted
token loss, process crash + restart-with-rejoin, and per-process timer
skew.  Injectors are *passive between windows*: a
:class:`~repro.faults.schedule.FaultSchedule` binds them to a running
:class:`~repro.membership.service.TokenRingVS` and opens/closes their
active windows at scheduled virtual times.

Determinism: every injector draws its randomness from its own named
stream of the service's :class:`~repro.sim.rng.RngRegistry`
(``fault:<name>``), so attaching a nemesis never perturbs the channel
delay or workload draws of an existing seed — a run with a zero-rate
nemesis is event-for-event identical to a run with none (see
``tests/faults/test_rng_isolation.py``).

Packet injectors ride on the interception middleware of
:class:`repro.net.channel.Channel`; they only ever see packets that
survived the failure oracle's own verdict, so injected faults compose
with the modelled good/bad/ugly statuses instead of replacing them.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING

from typing import Any

from repro.membership.messages import Sequenced, Token
from repro.net.channel import Packet, PacketFate
from repro.net.status import FailureStatus, disjoint_groups

if TYPE_CHECKING:
    from repro.membership.service import TokenRingVS

ProcId = Hashable

#: Optional link restriction for packet injectors (None = every link).
Links = Iterable[tuple[ProcId, ProcId]] | None


def _links_param(links: tuple[tuple[ProcId, ProcId], ...] | None) -> Any:
    return None if links is None else [list(pair) for pair in links]


def coerce_links(raw: Any) -> Links:
    """JSON-decoded link lists back to the tuple-of-pairs shape."""
    if raw is None:
        return None
    return tuple((pair[0], pair[1]) for pair in raw)


class ChaosContext:
    """What an injector gets to work with: one running service stack."""

    def __init__(self, service: TokenRingVS) -> None:
        self.service = service
        self.network = service.network
        self.simulator = service.simulator
        self.oracle = service.network.oracle
        self.rngs = service.rngs
        #: messages appended by :class:`ForcedViolationInjector` windows;
        #: :class:`~repro.faults.chaos.ChaosRunner` folds them into the
        #: report's violation list (the shrinker's demo oracle).
        self.forced_violations: list[str] = []

    @property
    def processors(self) -> tuple[ProcId, ...]:
        return self.network.processors

    def rng(self, name: str) -> random.Random:
        """The injector's private seeded stream (isolated from channel
        delays and every other stochastic concern)."""
        return self.rngs.stream(f"fault:{name}")


class FaultInjector:
    """Base class: bind once, then open/close active windows."""

    #: short serialization kind (the vocabulary of schedule files); every
    #: concrete injector overrides it and registers in
    #: :data:`repro.faults.schedule.SPEC_KINDS`.
    SPEC_KIND = "abstract"

    def __init__(self, name: str) -> None:
        self.name = name
        self.active = False
        self.activations = 0
        self._ctx: ChaosContext | None = None
        self._rng: random.Random | None = None

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def ctx(self) -> ChaosContext:
        if self._ctx is None:
            raise RuntimeError(f"injector {self.name!r} is not bound")
        return self._ctx

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            raise RuntimeError(f"injector {self.name!r} is not bound")
        return self._rng

    def bind(self, ctx: ChaosContext) -> None:
        """Attach to a service (idempotent; called once per schedule)."""
        if self._ctx is not None:
            return
        self._ctx = ctx
        self._rng = ctx.rng(self.name)
        self._bind(ctx)

    def start(self, stop_time: float) -> None:
        """Open an active window ending (at the latest) at ``stop_time``."""
        if self._ctx is None:
            raise RuntimeError(f"injector {self.name!r} is not bound")
        self.active = True
        self.activations += 1
        self._start(stop_time)

    def stop(self) -> None:
        self.active = False
        self._stop()

    # Serialization -----------------------------------------------------
    def params(self) -> dict[str, Any]:
        """JSON-able constructor parameters (everything but ``name``).

        Together with :meth:`from_params` this must round-trip exactly:
        ``type(i).from_params(i.name, json.loads(json.dumps(i.params())))``
        rebuilds an injector with identical behaviour.  Tested by
        ``tests/faults/test_schedule_serialization.py``.
        """
        return {}

    @classmethod
    def from_params(cls, name: str, params: dict[str, Any]) -> FaultInjector:
        """Rebuild an injector from JSON-decoded :meth:`params` output."""
        return cls(name, **params)

    # Subclass hooks ----------------------------------------------------
    def _bind(self, ctx: ChaosContext) -> None:
        pass

    def _start(self, stop_time: float) -> None:
        pass

    def _stop(self) -> None:
        pass


def _payload(message: object) -> object:
    """The protocol body of a wire message (unwrap the seq stamp)."""
    return message.body if isinstance(message, Sequenced) else message


class PacketInjector(FaultInjector):
    """Base for injectors that perturb individual packets in flight."""

    def __init__(self, name: str, links: Links = None) -> None:
        super().__init__(name)
        self.links = tuple(links) if links is not None else None
        self.packets_touched = 0

    def _bind(self, ctx: ChaosContext) -> None:
        ctx.network.add_interceptor(self._intercept, links=self.links)

    def _intercept(
        self, packet: Packet, fate: PacketFate
    ) -> PacketFate | None:
        if not self.active or fate.dropped or not self._applies(packet):
            return None
        perturbed = self._perturb(packet, fate)
        if perturbed is not None:
            self.packets_touched += 1
        return perturbed

    def _applies(self, packet: Packet) -> bool:
        return True

    def _perturb(
        self, packet: Packet, fate: PacketFate
    ) -> PacketFate | None:
        raise NotImplementedError

    @classmethod
    def from_params(cls, name: str, params: dict[str, Any]) -> FaultInjector:
        params = dict(params)
        params["links"] = coerce_links(params.get("links"))
        return cls(name, **params)


class PacketLossInjector(PacketInjector):
    """Drop each passing packet with probability ``rate``."""

    SPEC_KIND = "loss"

    def __init__(self, name: str, rate: float, links: Links = None) -> None:
        super().__init__(name, links)
        self.rate = rate

    def params(self) -> dict[str, Any]:
        return {"rate": self.rate, "links": _links_param(self.links)}

    def _perturb(self, packet: Packet, fate: PacketFate) -> PacketFate | None:
        if self.rng.random() < self.rate:
            return PacketFate((), drop_reason="injected")
        return None


class PacketDuplicateInjector(PacketInjector):
    """Deliver an extra copy of a packet with probability ``rate``; the
    copy arrives up to ``extra_delay`` later than the original (so the
    duplicate may also be reordered past later traffic)."""

    SPEC_KIND = "duplicate"

    def __init__(
        self,
        name: str,
        rate: float,
        extra_delay: float = 5.0,
        links: Links = None,
    ) -> None:
        super().__init__(name, links)
        self.rate = rate
        self.extra_delay = extra_delay

    def params(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "extra_delay": self.extra_delay,
            "links": _links_param(self.links),
        }

    def _perturb(self, packet: Packet, fate: PacketFate) -> PacketFate | None:
        if self.rng.random() < self.rate:
            echo = fate.delays[0] + self.rng.uniform(0.0, self.extra_delay)
            return PacketFate(fate.delays + (echo,), fate.drop_reason)
        return None


class PacketDelayInjector(PacketInjector):
    """Add uniform jitter up to ``jitter`` to each passing packet —
    breaking the good-link δ bound and, because the jitter is
    per-packet, reordering traffic on the link."""

    SPEC_KIND = "delay"

    def __init__(
        self, name: str, rate: float, jitter: float = 5.0, links: Links = None
    ) -> None:
        super().__init__(name, links)
        self.rate = rate
        self.jitter = jitter

    def params(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "jitter": self.jitter,
            "links": _links_param(self.links),
        }

    def _perturb(self, packet: Packet, fate: PacketFate) -> PacketFate | None:
        if self.rng.random() >= self.rate:
            return None
        bump = self.rng.uniform(0.0, self.jitter)
        return PacketFate(
            tuple(d + bump for d in fate.delays), fate.drop_reason
        )


class PacketReorderInjector(PacketInjector):
    """Hold a packet back for at least ``hold_min`` (up to ``hold_max``)
    so that packets sent after it overtake it — a guaranteed reorder
    whenever the hold exceeds the link's δ and there is later traffic."""

    SPEC_KIND = "reorder"

    def __init__(
        self,
        name: str,
        rate: float,
        hold_min: float = 2.0,
        hold_max: float = 8.0,
        links: Links = None,
    ) -> None:
        super().__init__(name, links)
        self.rate = rate
        self.hold_min = hold_min
        self.hold_max = hold_max

    def params(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "hold_min": self.hold_min,
            "hold_max": self.hold_max,
            "links": _links_param(self.links),
        }

    def _perturb(self, packet: Packet, fate: PacketFate) -> PacketFate | None:
        if self.rng.random() >= self.rate:
            return None
        hold = self.rng.uniform(self.hold_min, self.hold_max)
        return PacketFate(
            tuple(d + hold for d in fate.delays), fate.drop_reason
        )


class TokenLossInjector(PacketInjector):
    """Drop circulating :class:`~repro.membership.messages.Token`
    packets with probability ``rate`` — the targeted attack on the
    ring's liveness core, answered by the token-regeneration watchdog."""

    SPEC_KIND = "token_loss"

    def __init__(self, name: str, rate: float, links: Links = None) -> None:
        super().__init__(name, links)
        self.rate = rate

    def params(self) -> dict[str, Any]:
        return {"rate": self.rate, "links": _links_param(self.links)}

    def _applies(self, packet: Packet) -> bool:
        return isinstance(_payload(packet.message), Token)

    def _perturb(self, packet: Packet, fate: PacketFate) -> PacketFate | None:
        if self.rng.random() < self.rate:
            return PacketFate((), drop_reason="injected")
        return None


class TimerSkewInjector(FaultInjector):
    """Run selected members' local timers at a random rate in
    [``skew_min``, ``skew_max``] for the window, then restore nominal
    speed.  Fast clocks (<1) fire watchdogs early and force spurious
    view formations; slow clocks (>1) delay loss detection."""

    SPEC_KIND = "timer_skew"

    def __init__(
        self,
        name: str,
        skew_min: float = 0.7,
        skew_max: float = 1.5,
        targets: Sequence[ProcId] | None = None,
    ) -> None:
        super().__init__(name)
        if skew_min <= 0 or skew_max < skew_min:
            raise ValueError("need 0 < skew_min <= skew_max")
        self.skew_min = skew_min
        self.skew_max = skew_max
        self.targets = tuple(targets) if targets is not None else None
        self._skewed: list[ProcId] = []

    def params(self) -> dict[str, Any]:
        return {
            "skew_min": self.skew_min,
            "skew_max": self.skew_max,
            "targets": None if self.targets is None else list(self.targets),
        }

    @classmethod
    def from_params(cls, name: str, params: dict[str, Any]) -> FaultInjector:
        params = dict(params)
        targets = params.get("targets")
        params["targets"] = None if targets is None else tuple(targets)
        return cls(name, **params)

    def _start(self, stop_time: float) -> None:
        candidates = self.targets or self.ctx.processors
        for p in candidates:
            member = self.ctx.service.members[p]
            member.set_timer_skew(
                self.rng.uniform(self.skew_min, self.skew_max)
            )
            self._skewed.append(p)

    def _stop(self) -> None:
        for p in self._skewed:
            self.ctx.service.members[p].set_timer_skew(1.0)
        self._skewed = []


class CrashRestartInjector(FaultInjector):
    """Crash one processor (failure status *bad* — it takes no steps and
    receives nothing) and restart it before the window closes: the ring
    member comes back with fresh volatile state
    (:meth:`~repro.membership.ring.RingMember.restart`) and rejoins
    through the merge-probe path.

    The victim is drawn from ``targets`` (default: every processor),
    avoiding processors this injector still has down.  The outage length
    is uniform in [``min_down``, ``max_down``], clipped to the window.
    """

    SPEC_KIND = "crash_restart"

    def __init__(
        self,
        name: str,
        min_down: float = 20.0,
        max_down: float = 60.0,
        targets: Sequence[ProcId] | None = None,
    ) -> None:
        super().__init__(name)
        if min_down <= 0 or max_down < min_down:
            raise ValueError("need 0 < min_down <= max_down")
        self.min_down = min_down
        self.max_down = max_down
        self.targets = tuple(targets) if targets is not None else None
        self.crashes = 0
        self._down: set[ProcId] = set()

    def params(self) -> dict[str, Any]:
        return {
            "min_down": self.min_down,
            "max_down": self.max_down,
            "targets": None if self.targets is None else list(self.targets),
        }

    @classmethod
    def from_params(cls, name: str, params: dict[str, Any]) -> FaultInjector:
        params = dict(params)
        targets = params.get("targets")
        params["targets"] = None if targets is None else tuple(targets)
        return cls(name, **params)

    def _start(self, stop_time: float) -> None:
        sim = self.ctx.simulator
        candidates = [
            p
            for p in (self.targets or self.ctx.processors)
            if p not in self._down
        ]
        if not candidates:
            return
        victim = candidates[self.rng.randrange(len(candidates))]
        down_for = self.rng.uniform(self.min_down, self.max_down)
        restart_at = min(sim.now + down_for, stop_time)
        self.crashes += 1
        self._down.add(victim)
        self.ctx.oracle.set_processor(victim, FailureStatus.BAD, time=sim.now)

        def recover() -> None:
            self._down.discard(victim)
            self.ctx.service.restart_processor(victim)
            self.ctx.oracle.set_processor(
                victim, FailureStatus.GOOD, time=sim.now
            )

        sim.schedule_at(restart_at, recover)


class PartitionInjector(FaultInjector):
    """Cut the network into connectivity components for the window.

    While active, every ordered link between two different ``groups``
    members is *bad* (consistent-partition semantics at the link level);
    closing the window restores those links to *good*.  Processor
    statuses are untouched, so a concurrent :class:`CrashRestartInjector`
    composes instead of being overwritten.  Processors not mentioned in
    any group keep their current connectivity.

    Unlike an oracle-wide layout (:meth:`repro.faults.schedule.
    FaultSchedule.add_layout`) it is windowed and shrinkable, and it is
    the one kind a live cluster can enact (:func:`repro.rt.faults.
    live_windows`).
    """

    SPEC_KIND = "partition"

    def __init__(
        self, name: str, groups: Sequence[Sequence[ProcId]]
    ) -> None:
        super().__init__(name)
        self.groups = disjoint_groups(groups)
        self._cut: list[tuple[ProcId, ProcId]] = []

    def params(self) -> dict[str, Any]:
        return {"groups": [list(g) for g in self.groups]}

    @classmethod
    def from_params(cls, name: str, params: dict[str, Any]) -> FaultInjector:
        return cls(name, groups=tuple(tuple(g) for g in params["groups"]))

    def _component_of(self, p: ProcId) -> int:
        for index, group in enumerate(self.groups):
            if p in group:
                return index
        return -1

    def blocked_for(self, p: ProcId) -> tuple[ProcId, ...]:
        """Everyone outside ``p``'s component (what a live node ``p``
        firewalls while the window is open)."""
        index = self._component_of(p)
        own = self.groups[index] if index >= 0 else ()
        outside = (q for group in self.groups for q in group if q not in own and q != p)
        return tuple(sorted(outside, key=str))

    def _start(self, stop_time: float) -> None:
        now = self.ctx.simulator.now
        mentioned = [p for group in self.groups for p in group]
        for p in mentioned:
            for q in mentioned:
                if p == q or self._component_of(p) == self._component_of(q):
                    continue
                self.ctx.oracle.set_link(p, q, FailureStatus.BAD, time=now)
                self._cut.append((p, q))

    def _stop(self) -> None:
        now = self.ctx.simulator.now
        for p, q in self._cut:
            self.ctx.oracle.set_link(p, q, FailureStatus.GOOD, time=now)
        self._cut = []


def majority_split(processors: Iterable[Any]) -> tuple[tuple[Any, ...], ...]:
    """The canonical two-component split: the ⌊n/2⌋+1 lowest ids against
    the rest (the majority side keeps a primary quorum, so TO delivery
    continues there through the partition)."""
    ordered = tuple(sorted(processors))
    cut = len(ordered) // 2 + 1
    return (ordered[:cut], ordered[cut:])


class ForcedViolationInjector(FaultInjector):
    """A deliberately planted failure: each window opening appends a
    marked violation to the run's report (via
    :attr:`ChaosContext.forced_violations`).

    It exists for the shrinker's acceptance loop: a schedule seeded with
    one forced window among many innocuous ones gives a *deterministic*
    violating run whose minimal reproduction is known by construction,
    so delta-debugging can be tested end-to-end without waiting for a
    real protocol bug.
    """

    SPEC_KIND = "forced_violation"

    def _start(self, stop_time: float) -> None:
        self.ctx.forced_violations.append(
            f"forced violation: injector {self.name!r} active at "
            f"t={self.ctx.simulator.now:g}"
        )

"""The per-processor membership/token protocol (Section 8).

Each processor runs a :class:`RingMember`.  A view is held together by a
token circulating a logical ring (members in sorted order); the token
carries the view's message order and per-member delivery counts.  View
formation is the 3-round Cristian–Schmuck exchange:

1. an initiator broadcasts a call-for-participation (:class:`NewGroup`)
   carrying a fresh view identifier larger than any it has seen;
2. processors reply with :class:`Accept` unless already committed to a
   higher identifier;
3. after ``2δ`` the initiator fixes the membership as the responders and
   announces it with :class:`Join`; members install the view unless
   committed higher.

Formation triggers: token loss (watchdog timeout), a missing
:class:`Join` after accepting (join watchdog), and contact from outside
the current membership (merge probes, sent every ``μ``).

Failure-status interaction: the network refuses sends from and deliveries
to *bad* processors; every timer callback here additionally checks the
oracle, so a bad processor takes no locally controlled steps — state is
preserved across the bad period exactly as the paper models crashes.

Token install: to tolerate channel reordering (the model bounds delay
but does not order packets), the token carries the view membership, and
a processor that accepted a view but missed the Join installs the view
directly from the first token it sees for it.

Hardening beyond the model (exercised by :mod:`repro.faults`): every
outgoing packet is wrapped in :class:`Sequenced` and duplicates are
suppressed per sender (injected duplication of a token would otherwise
put two live tokens in the ring and fork the view's order); the
membership-round messages can be blindly retransmitted a bounded number
of times with exponential backoff (``RingConfig.retransmit_attempts``);
:meth:`RingMember.restart` implements crash-restart with fresh volatile
state (only the durable epoch/seq counters survive), the rejoin going
through the ordinary merge-probe path; and :meth:`set_timer_skew` lets
a nemesis run one member's timers fast or slow.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable
from typing import TYPE_CHECKING, Any, Protocol

from repro.core.types import View
from repro.membership.messages import (
    Accept,
    Join,
    NewGroup,
    Probe,
    RingViewId,
    Sequenced,
    Token,
)
from repro.net.network import Network, NetworkNode
from repro.sim.timers import PeriodicTimer, WatchdogTimer

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.obs.metrics import Counter, Histogram

ProcId = Hashable

#: How many (sender, seq) pairs a member remembers per peer before
#: pruning; packets at or below the pruned floor are rejected outright.
DEDUP_WINDOW = 1024


class RingConfig:
    """Timing parameters of the protocol.

    ``delta`` must match the network's good-link bound; ``pi`` is the
    token launch spacing (must exceed n·δ); ``mu`` the merge-probe
    spacing.  Derived waits follow the Section 8 sketch: the initiator
    collects accepts for 2δ; a processor that accepted expects the Join
    within 4δ more; the token watchdog allows a launch interval plus a
    full circulation plus slack.
    """

    def __init__(
        self,
        delta: float = 1.0,
        pi: float = 10.0,
        mu: float = 30.0,
        work_conserving: bool = False,
        deliver_when_safe: bool = False,
        one_round: bool = False,
        retransmit_attempts: int = 1,
        retransmit_backoff: float | None = None,
    ) -> None:
        if delta <= 0 or pi <= 0 or mu <= 0:
            raise ValueError("delta, pi and mu must be positive")
        if retransmit_attempts < 1:
            raise ValueError("retransmit_attempts must be at least 1")
        if retransmit_backoff is not None and retransmit_backoff <= 0:
            raise ValueError("retransmit_backoff must be positive")
        self.delta = delta
        self.pi = pi
        self.mu = mu
        #: When True, the leader keeps the token circulating while any
        #: entry is not yet safe at every member, instead of holding it
        #: until the next π tick.  Trades token traffic for latency; the
        #: periodic mode is the literal Section 8 protocol.
        self.work_conserving = work_conserving
        #: Totem/Transis-style "safe delivery" (§1 discussion point 5):
        #: delay gprcv until every member's lower layer has the message
        #: (has seen it on a token pass).  The paper's design (False)
        #: delivers immediately and raises a separate safe notification
        #: later; the ablation benchmark measures the delivery-latency
        #: cost of the alternative.
        self.deliver_when_safe = deliver_when_safe
        #: Footnote 7 of Section 8: the one-round membership protocol.
        #: The initiator skips the call-for-participation round and
        #: announces a view made of the processors it has *recently
        #: heard from* — cheaper, but membership is a guess from stale
        #: connectivity information, so stabilisation after a partition
        #: takes longer (the paper: "this would stabilize less
        #: quickly"), which the ablation benchmark measures.
        self.one_round = one_round
        #: Total transmissions of each membership-round message
        #: (NewGroup / Accept / Join).  1 is the literal Section 8
        #: protocol (the watchdogs alone mask losses); >1 adds bounded
        #: blind retransmission with exponential backoff, which keeps
        #: view formation converging under injected per-packet loss.
        #: Retransmissions stop early once the message is irrelevant
        #: (the formation was superseded or the view replaced).
        self.retransmit_attempts = retransmit_attempts
        self._retransmit_backoff = retransmit_backoff

    @property
    def alive_window(self) -> float:
        """How recently a processor must have been heard from to count
        as connected in a one-round view announcement."""
        return 1.5 * self.mu

    @property
    def retransmit_backoff(self) -> float:
        """Initial retransmission backoff (doubles per attempt)."""
        if self._retransmit_backoff is not None:
            return self._retransmit_backoff
        return 2 * self.delta

    @property
    def accept_wait(self) -> float:
        return 2 * self.delta

    @property
    def join_wait(self) -> float:
        return 4 * self.delta

    def token_timeout(self, n: int) -> float:
        return self.pi + (n + 3) * self.delta


class RingService(Protocol):
    """What a :class:`RingMember` needs from its host service."""

    network: Network

    def emit_newview(self, view: View, p: ProcId) -> None: ...

    def emit_gprcv(self, payload: Any, src: ProcId, dst: ProcId) -> None: ...

    def emit_safe(self, payload: Any, src: ProcId, dst: ProcId) -> None: ...

    def record_view_event(self, name: str, *args: Any) -> None:
        """Record a view-lifecycle event that is no VS output
        (``formation``, ``createview``, ``established``)."""


class RingMember(NetworkNode):
    """The protocol endpoint for one processor."""

    def __init__(
        self,
        proc_id: ProcId,
        service: RingService,
        config: RingConfig,
        initial_view: View | None,
    ) -> None:
        super().__init__(proc_id)
        self.service = service
        self.config = config
        self._sim = service.network.simulator
        self._oracle = service.network.oracle

        # Membership state.
        self.view: View | None = initial_view
        self.max_epoch: int = initial_view.id[0] if initial_view else 0
        self.committed: RingViewId | None = (
            initial_view.id if initial_view else None
        )
        self._forming_viewid: RingViewId | None = None
        self._forming_accepts: set[ProcId] = set()
        self._forming_deadline = None  # EventHandle

        # Per-view message state.
        self.buffered: list[tuple[RingViewId, Any]] = []
        self.delivered_idx: int = 0
        self.safe_idx: int = 0
        self.held_token: Token | None = None
        #: Local replica of the current view's full message order.  With
        #: delta-encoded tokens each hop carries only a window of the
        #: sequence; the replica is what deliveries read from and what a
        #: forwarder re-expands windows from.  Invariant: after this
        #: member processes a token it is not behind on, ``log`` equals
        #: the full logical order known to that token.
        self.log: list = []

        # Connectivity estimate for the one-round protocol.
        self.last_heard: dict[ProcId, float] = {}

        # Highest view id this processor ever installed.  Survives a
        # crash-restart (together with max_epoch/committed it is the one
        # durable word of "stable storage") so a restarted processor can
        # never re-announce or re-install a view from before its crash —
        # which would break per-location view-id monotonicity.
        self._max_installed: RingViewId | None = (
            initial_view.id if initial_view else None
        )

        # Local clock-rate skew (1.0 = nominal).  Multiplies every
        # one-shot deadline this member arms; the nemesis layer uses it
        # to drive watchdogs early/late.  See :meth:`set_timer_skew`.
        self.timer_skew: float = 1.0

        # Per-sender packet sequencing and duplicate suppression.  The
        # send counter is strictly increasing across the whole run (it
        # deliberately survives restart(): peers remember our old
        # numbers, so reusing them would make our fresh packets look
        # like duplicates).
        self._send_seq = itertools.count(1)
        self._seen_seq: dict[ProcId, set[int]] = {}
        self._seen_floor: dict[ProcId, int] = {}

        # Pending bounded retransmissions (cancellable on restart).
        self._retransmit_handles: list = []

        # Statistics.
        self.formations_initiated = 0
        self.tokens_processed = 0
        self.duplicates_suppressed = 0
        self.retransmissions = 0
        self.restarts = 0
        self.token_forwards = 0
        self.token_entries_sent = 0
        self.token_entries_max = 0
        self.token_resyncs = 0
        # Client-send batching: how many buffered gpsnd payloads each
        # token visit appended (all queued sends ride one circulation).
        self.token_entries_appended = 0
        self.token_append_batches = 0
        self.token_append_max = 0

        # Observability slots (bound by attach_obs; `is None` guarded).
        self._m_tokens: Counter | None = None
        self._m_rotations: Counter | None = None
        self._m_round_hist: Histogram | None = None
        self._m_dedup: Counter | None = None
        self._m_retrans: Counter | None = None
        self._m_formations: Counter | None = None
        self._round_started: float | None = None

        # Timers.
        self._watchdog = WatchdogTimer(self._sim, self._on_token_timeout)
        self._join_watchdog = WatchdogTimer(self._sim, self._on_join_timeout)
        self._launch_timer = PeriodicTimer(self._sim, config.pi, self._on_launch_tick)
        self._probe_timer = PeriodicTimer(self._sim, config.mu, self._on_probe_tick)

    # ------------------------------------------------------------------
    def attach_obs(self, obs: Observability | None) -> None:
        """Bind per-processor ring metrics (token flow, round durations,
        dedup, retransmissions, formations)."""
        if obs is None:
            return
        metrics = obs.metrics
        proc = str(self.proc_id)
        self._m_tokens = metrics.counter(
            "ring_tokens_processed_total", "token visits per member",
            labels=("proc",),
        ).labels(proc)
        self._m_rotations = metrics.counter(
            "ring_rotations_total",
            "full token circulations observed by the leader",
            labels=("proc",),
        ).labels(proc)
        self._m_round_hist = metrics.histogram(
            "ring_round_duration",
            "virtual-time length of one token circulation",
            labels=("proc",),
        ).labels(proc)
        self._m_dedup = metrics.counter(
            "ring_duplicates_suppressed_total",
            "packets rejected by per-sender dedup",
            labels=("proc",),
        ).labels(proc)
        self._m_retrans = metrics.counter(
            "ring_retransmissions_total",
            "blind retransmissions actually sent",
            labels=("proc",),
        ).labels(proc)
        self._m_formations = metrics.counter(
            "ring_formations_initiated_total",
            "view formations this member started",
            labels=("proc",),
        ).labels(proc)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm timers; the initial leader creates the first token."""
        self._probe_timer.start()
        if self.view is None:
            return
        if self.is_leader:
            self.held_token = Token(
                viewid=self.view.id,
                members=self._ring_order(),
            )
            self._launch_timer.start()
            self._sim.call_soon(self._on_launch_tick)
        else:
            self._arm_watchdog()

    @property
    def is_leader(self) -> bool:
        return self.view is not None and self._ring_order()[0] == self.proc_id

    def _ring_order(self) -> tuple[ProcId, ...]:
        assert self.view is not None
        return tuple(sorted(self.view.set))

    def _successor(self) -> ProcId:
        ring = self._ring_order()
        index = ring.index(self.proc_id)
        return ring[(index + 1) % len(ring)]

    def _alive(self) -> bool:
        """Bad processors take no locally controlled steps."""
        return not self._oracle.processor_bad(self.proc_id)

    # ------------------------------------------------------------------
    # Hardened transport: sequencing, dedup, bounded retransmission
    # ------------------------------------------------------------------
    def _send(self, dst: ProcId, body: Any) -> None:
        """Unicast a protocol message stamped with a fresh packet seq."""
        self.service.network.send(
            self.proc_id, dst, Sequenced(next(self._send_seq), body)
        )

    def _broadcast(self, body: Any) -> None:
        """Broadcast a protocol message under one fresh packet seq (each
        destination sees the seq once, so per-sender dedup still works)."""
        self.service.network.broadcast(
            self.proc_id, Sequenced(next(self._send_seq), body)
        )

    def _schedule_retransmits(
        self, transmit: Callable[[], None], relevant: Callable[[], bool]
    ) -> None:
        """Schedule the configured extra transmissions with exponential
        backoff; each fires only while the message is still relevant."""
        attempts = self.config.retransmit_attempts
        if attempts <= 1:
            return
        now = self._sim.now
        self._retransmit_handles = [
            h for h in self._retransmit_handles if h.time > now
        ]

        def fire() -> None:
            if self._alive() and relevant():
                self.retransmissions += 1
                if self._m_retrans is not None:
                    self._m_retrans.inc()
                transmit()

        offset = 0.0
        backoff = self.config.retransmit_backoff
        for _ in range(attempts - 1):
            offset += backoff
            self._retransmit_handles.append(
                self._sim.schedule(self.timer_skew * offset, fire)
            )
            backoff *= 2

    def _send_reliable(
        self, dst: ProcId, body: Any, relevant: Callable[[], bool]
    ) -> None:
        self._send(dst, body)
        self._schedule_retransmits(lambda: self._send(dst, body), relevant)

    def _broadcast_reliable(
        self, body: Any, relevant: Callable[[], bool]
    ) -> None:
        self._broadcast(body)
        self._schedule_retransmits(lambda: self._broadcast(body), relevant)

    def _accept_packet(self, src: ProcId, seq: int) -> bool:
        """Record (src, seq); False when it is a duplicate (or below the
        pruned floor, where we can no longer tell and reject for safety
        — any packet delayed past DEDUP_WINDOW successors is stale)."""
        if seq <= self._seen_floor.get(src, 0):
            return False
        seen = self._seen_seq.setdefault(src, set())
        if seq in seen:
            return False
        seen.add(seq)
        if len(seen) > 2 * DEDUP_WINDOW:
            floor = max(seen) - DEDUP_WINDOW
            self._seen_floor[src] = max(self._seen_floor.get(src, 0), floor)
            self._seen_seq[src] = {s for s in seen if s > floor}
        return True

    # ------------------------------------------------------------------
    # Fault-injection hooks (timer skew, crash-restart)
    # ------------------------------------------------------------------
    def set_timer_skew(self, factor: float) -> None:
        """Run this member's local timers at ``factor`` times nominal
        duration (>1 = slow clock: deadlines late; <1 = fast clock:
        watchdogs fire early and force spurious formations)."""
        if factor <= 0:
            raise ValueError("timer skew factor must be positive")
        self.timer_skew = factor
        self._launch_timer.period = self.config.pi * factor
        self._probe_timer.period = self.config.mu * factor

    def restart(self) -> None:
        """Crash-restart: come back with fresh protocol state.

        Everything volatile is reset — current view, buffered and
        delivered message state, the held token, connectivity estimates,
        dedup memory, pending retransmissions and armed deadlines.  Only
        the epoch knowledge (``max_epoch``/``committed``/highest
        installed view id) and the packet send counter survive, the two
        durable counters a real implementation would keep in stable
        storage; without them a restarted processor could announce a
        view id below one it already used, violating per-location view
        monotonicity.  The restarted processor rejoins through the
        normal merge path: it holds no view, so its probes (and the
        probes of others) trigger a formation that includes it.
        """
        self.restarts += 1
        self._cancel_formation()
        for handle in self._retransmit_handles:
            handle.cancel()
        self._retransmit_handles = []
        self._watchdog.disarm()
        self._join_watchdog.disarm()
        self._launch_timer.stop()
        self.view = None
        self.buffered = []
        self.delivered_idx = 0
        self.safe_idx = 0
        self.held_token = None
        self.log = []
        self.last_heard = {}
        self._seen_seq = {}
        self._seen_floor = {}
        if not self._probe_timer.running:
            self._probe_timer.start()

    # ------------------------------------------------------------------
    # View-lifecycle events, and optional instrumentation (the WeakVS
    # shadow machine listens here; see repro.membership.shadow)
    # ------------------------------------------------------------------
    def _notify_createview(
        self, viewid: RingViewId, members: tuple[ProcId, ...]
    ) -> None:
        """The membership of ``viewid`` is fixed here, at its initiator."""
        self.service.record_view_event(
            "createview", viewid, members, self.proc_id
        )
        hook = getattr(self.service, "notify_createview", None)
        if hook is not None:
            hook(View(viewid, frozenset(members)))

    def _notify_order(self, payload: Any, viewid: RingViewId) -> None:
        hook = getattr(self.service, "notify_order", None)
        if hook is not None:
            hook(payload, self.proc_id, viewid)

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def gpsnd(self, payload: Any) -> None:
        """Submit a client message; associated with the current view.
        Messages sent with no current view are ignored (never delivered),
        exactly as in VS-machine."""
        if self.view is None:
            return
        self.buffered.append((self.view.id, payload))
        if (
            self.config.work_conserving
            and self.held_token is not None
            and self._alive()
        ):
            # Wake the circulation immediately instead of waiting for
            # the next π tick.
            self._sim.call_soon(self._on_launch_tick)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: ProcId, message: Any) -> None:
        if isinstance(message, Sequenced):
            if not self._accept_packet(src, message.seq):
                self.duplicates_suppressed += 1
                if self._m_dedup is not None:
                    self._m_dedup.inc()
                return
            message = message.body
        self.last_heard[src] = self._sim.now
        if isinstance(message, NewGroup):
            self._on_newgroup(message)
        elif isinstance(message, Accept):
            self._on_accept(message)
        elif isinstance(message, Join):
            self._on_join(message)
        elif isinstance(message, Token):
            self._on_token(message)
        elif isinstance(message, Probe):
            self._on_probe(message)

    # ------------------------------------------------------------------
    # View formation
    # ------------------------------------------------------------------
    def initiate_formation(self) -> None:
        """Start formation: round 1 of the 3-round protocol, or the
        direct announcement of the one-round variant (footnote 7)."""
        if not self._alive():
            return
        if self._forming_viewid is not None:
            return
        self.max_epoch += 1
        viewid: RingViewId = (self.max_epoch, self.proc_id)
        self.committed = viewid
        self.formations_initiated += 1
        if self._m_formations is not None:
            self._m_formations.inc()
        self.service.record_view_event("formation", viewid, self.proc_id)
        self._join_watchdog.disarm()
        if self.config.one_round:
            members = self._connectivity_estimate()
            self._notify_createview(viewid, members)
            join = Join(viewid=viewid, members=members)
            for member in members:
                if member != self.proc_id:
                    self._send_reliable(
                        member,
                        join,
                        lambda: self.view is not None
                        and self.view.id == viewid,
                    )
            self._install(viewid, members)
            return
        self._forming_viewid = viewid
        self._forming_accepts = {self.proc_id}
        self._broadcast_reliable(
            NewGroup(viewid=viewid, initiator=self.proc_id),
            lambda: self._forming_viewid == viewid,
        )
        self._forming_deadline = self._sim.schedule(
            self.timer_skew * self.config.accept_wait,
            self._on_formation_deadline,
        )

    def _connectivity_estimate(self) -> tuple[ProcId, ...]:
        """Who the one-round initiator believes is connected: everyone
        heard from within the alive window (stale by construction)."""
        now = self._sim.now
        alive = {
            p
            for p, heard_at in self.last_heard.items()
            if now - heard_at <= self.config.alive_window
        }
        alive.add(self.proc_id)
        return tuple(sorted(alive))

    def _on_newgroup(self, message: NewGroup) -> None:
        self.max_epoch = max(self.max_epoch, message.viewid[0])
        if self.committed is not None and message.viewid <= self.committed:
            return
        self.committed = message.viewid
        # A higher call supersedes our own in-progress formation.
        if (
            self._forming_viewid is not None
            and self._forming_viewid < message.viewid
        ):
            self._cancel_formation()
        if message.initiator == self.proc_id:
            return
        viewid = message.viewid
        self._send_reliable(
            message.initiator,
            Accept(viewid=viewid, member=self.proc_id),
            lambda: self.committed == viewid,
        )
        self._join_watchdog.arm(self.timer_skew * self.config.join_wait)

    def _on_accept(self, message: Accept) -> None:
        if self._forming_viewid == message.viewid:
            self._forming_accepts.add(message.member)

    def _on_formation_deadline(self) -> None:
        if not self._alive():
            self._cancel_formation()
            return
        viewid = self._forming_viewid
        if viewid is None:
            return
        members = tuple(sorted(self._forming_accepts))
        self._cancel_formation()
        if self.committed is not None and self.committed > viewid:
            return  # superseded while collecting
        self._notify_createview(viewid, members)
        join = Join(viewid=viewid, members=members)
        for member in members:
            if member != self.proc_id:
                self._send_reliable(
                    member,
                    join,
                    lambda: self.view is not None and self.view.id == viewid,
                )
        self._install(viewid, members)

    def _cancel_formation(self) -> None:
        self._forming_viewid = None
        self._forming_accepts = set()
        if self._forming_deadline is not None:
            self._forming_deadline.cancel()
            self._forming_deadline = None

    def _on_join(self, message: Join) -> None:
        self.max_epoch = max(self.max_epoch, message.viewid[0])
        if self.proc_id not in message.members:
            return
        if self.committed is not None and message.viewid < self.committed:
            return
        if self.view is not None and message.viewid <= self.view.id:
            return
        self._install(message.viewid, message.members)

    def _install(self, viewid: RingViewId, members: tuple[ProcId, ...]) -> None:
        """Install a new view: reset per-view state, announce newview,
        and (as leader) launch the first token."""
        # Local monotonicity: never go backwards.  The high-water mark
        # (not self.view, which a restart clears) is what prevents a
        # restarted processor from re-installing its pre-crash view from
        # a stale in-flight Join or token.
        if self._max_installed is not None and viewid <= self._max_installed:
            return
        self._max_installed = viewid
        # Every install is epoch knowledge — without this, a member that
        # learned a view only from the token (missed Join) could later
        # initiate with a stale epoch and announce a *lower* view id.
        self.max_epoch = max(self.max_epoch, viewid[0])
        self._join_watchdog.disarm()
        self.view = View(viewid, frozenset(members))
        self.committed = max(self.committed, viewid) if self.committed else viewid
        self.buffered = [
            entry for entry in self.buffered if entry[0] == viewid
        ]
        self.delivered_idx = 0
        self.safe_idx = 0
        self.held_token = None
        self.log = []
        self.service.emit_newview(self.view, self.proc_id)
        self._launch_timer.stop()
        if self.is_leader:
            self.held_token = Token(viewid=viewid, members=self._ring_order())
            self._launch_timer.start()
            self._sim.call_soon(self._on_launch_tick)
        else:
            self._arm_watchdog()

    # ------------------------------------------------------------------
    # Token circulation
    # ------------------------------------------------------------------
    def _arm_watchdog(self) -> None:
        if self.view is not None:
            self._watchdog.arm(
                self.timer_skew * self.config.token_timeout(len(self.view.set))
            )

    def _on_token(self, token: Token) -> None:
        if self.view is None or token.viewid != self.view.id:
            # Maybe the Join was lost/overtaken: install from the token.
            if (
                self.proc_id in token.members
                and (self.view is None or token.viewid > self.view.id)
                and (self.committed is None or token.viewid >= self.committed)
            ):
                self._install(token.viewid, token.members)
            else:
                return  # stale token dies here
        if self.view is None or token.viewid != self.view.id:
            return
        self._arm_watchdog()
        self._process_token(token)
        if self.is_leader:
            # The token is home: one full circulation completed.
            if self._m_rotations is not None:
                self._m_rotations.inc()
                if self._round_started is not None:
                    self._m_round_hist.observe(
                        self._sim.now - self._round_started
                    )
            if self.config.work_conserving and self._token_has_work(token):
                self._round_started = self._sim.now
                self._forward(token)
            else:
                # The token is home; hold it until the next launch tick.
                self._round_started = None
                self.held_token = token
        else:
            self._forward(token)

    def _on_launch_tick(self) -> None:
        if not self._alive():
            return
        if self.held_token is None or self.view is None:
            return
        if self.held_token.viewid != self.view.id:
            self.held_token = None
            return
        token = self.held_token
        self.held_token = None
        token.trail = []  # fresh liveness trail for this circulation
        self._arm_watchdog()
        self._process_token(token)
        if len(token.members) == 1:
            self.held_token = token  # singleton ring: token never leaves
        else:
            self._round_started = self._sim.now
            self._forward(token)

    def _process_token(self, token: Token) -> None:
        """Deliver new entries, append buffered sends, update counts and
        emit safe notifications.

        The token carries a *window* of the view's order starting at
        logical position ``token.base``; this member's ``log`` replica
        holds the prefix it has already absorbed.  Normally (and always
        with legacy full-copy tokens, where base is 0) the window
        overlaps the log, the log is extended with the new suffix and
        this member's buffered sends are appended to both.  When the
        window starts *beyond* the log — possible only for a member
        whose acknowledged position the trimmer did not know, e.g. after
        white-box state surgery; honest circulations always trim to the
        recipient's own ``seen`` entry — the member cannot interpret the
        window: it re-advertises its true position in ``token.seen`` and
        takes nothing, and the next circulation re-expands from there (a
        full-order resync for this member).
        """
        self.tokens_processed += 1
        if self._m_tokens is not None:
            self._m_tokens.inc()
        assert self.view is not None
        viewid = self.view.id
        # The trail is fresh liveness evidence for everyone it names.
        now = self._sim.now
        for member in token.trail:
            if member != self.proc_id:
                self.last_heard[member] = now
        token.trail.append(self.proc_id)
        # One lap is enough: the ring order is fixed within a view, so
        # the last n hops name every member any longer trail would, and
        # ``last_heard`` only reads the trail as a set.
        del token.trail[: -len(token.members)]
        if token.base > len(self.log):
            # Behind the window: request resync by advertising the true
            # position; no appends, no new deliveries this pass.
            self.token_resyncs += 1
        else:
            start = len(self.log) - token.base
            if start < len(token.order):
                self.log.extend(token.order[start:])
            if len(self.log) == token.total:
                # Fully caught up: append this member's buffered
                # messages for the current view — the concrete
                # counterpart of VS-machine's internal vs-order.
                appended = 0
                for entry_viewid, payload in self.buffered:
                    if entry_viewid == viewid:
                        entry = (payload, self.proc_id)
                        token.order.append(entry)
                        self.log.append(entry)
                        self._notify_order(payload, viewid)
                        appended += 1
                if appended:
                    # One token pass drains the whole buffer: every
                    # client send queued since the last visit rides this
                    # single circulation.
                    self.token_entries_appended += appended
                    self.token_append_batches += 1
                    if appended > self.token_append_max:
                        self.token_append_max = appended
                self.buffered = [e for e in self.buffered if e[0] != viewid]
        token.seen[self.proc_id] = len(self.log)
        if self.config.deliver_when_safe:
            # Totem-style: deliver only entries every member has seen.
            deliverable = token.seen_prefix_length(token.members)
        else:
            deliverable = token.total
        deliverable = min(deliverable, len(self.log))
        for payload, origin in self.log[self.delivered_idx : deliverable]:
            self.service.emit_gprcv(payload, origin, self.proc_id)
        self.delivered_idx = max(self.delivered_idx, deliverable)
        token.delivered[self.proc_id] = self.delivered_idx
        # Safe notifications for the prefix every member has delivered.
        safe_upto = min(token.safe_prefix_length(token.members), len(self.log))
        for payload, origin in self.log[self.safe_idx : safe_upto]:
            self.service.emit_safe(payload, origin, self.proc_id)
        self.safe_idx = max(self.safe_idx, safe_upto)
        token.safed[self.proc_id] = self.safe_idx
        token.hop += 1

    def _token_has_work(self, token: Token) -> bool:
        """Work-conserving mode: is any entry not yet known safe at
        every member?  While true the leader relaunches immediately."""
        total = token.total
        if total == 0:
            return False
        if token.safe_prefix_length(token.members) < total:
            return True
        return any(token.safed.get(m, 0) < total for m in token.members)

    def _forward(self, token: Token) -> None:
        successor = self._successor()
        if successor == self.proc_id:
            self.held_token = token
            return
        self._send(successor, self._encode_for(successor, token))

    def _encode_for(self, successor: ProcId, token: Token) -> Token:
        """The successor's copy of the token (its own lists and dicts,
        so an in-flight token never aliases member state).  The window
        is delta-encoded: a caught-up forwarder re-expands it from its
        own log, starting at the successor's acknowledged position
        (``token.seen``) — O(appends) per hop in the steady state
        instead of O(order).  A forwarder that is itself behind (so its
        log cannot produce arbitrary suffixes) passes the window through
        unchanged.  The full-order-every-hop encoding this is held to
        (the literal ``queue[g]``-on-the-token reading of Section 8)
        lives in ``tests/reference.py``."""
        if len(self.log) == token.total:
            base = min(max(token.seen.get(successor, 0), 0), len(self.log))
            order = self.log[base:]
        else:
            base, order = token.base, list(token.order)
        self.token_forwards += 1
        self.token_entries_sent += len(order)
        if len(order) > self.token_entries_max:
            self.token_entries_max = len(order)
        return Token(
            viewid=token.viewid,
            members=token.members,
            base=base,
            order=order,
            delivered=dict(token.delivered),
            safed=dict(token.safed),
            seen=dict(token.seen),
            trail=list(token.trail),
            hop=token.hop,
        )

    def _on_token_timeout(self) -> None:
        if not self._alive():
            # Stay vigilant: check again after recovery instead of
            # silently never noticing the lost token.
            self._arm_watchdog()
            return
        if self.view is None:
            return
        self.initiate_formation()

    def _on_join_timeout(self) -> None:
        if not self._alive():
            self._join_watchdog.arm(self.timer_skew * self.config.join_wait)
            return
        self.initiate_formation()

    # ------------------------------------------------------------------
    # Merge probing
    # ------------------------------------------------------------------
    def _on_probe_tick(self) -> None:
        if not self._alive():
            return
        members = self.view.set if self.view is not None else frozenset()
        viewid = self.view.id if self.view is not None else (0, self.proc_id)
        for target in self.service.network.processors:
            if target == self.proc_id or target in members:
                continue
            self._send(target, Probe(sender=self.proc_id, viewid=viewid))

    def _on_probe(self, message: Probe) -> None:
        # Outside contact: the prober is not in our view, or it is a
        # nominal member running a *different* view (a stale survivor
        # that missed our reconfigurations, or vice versa).
        same_view = (
            self.view is not None
            and message.sender in self.view.set
            and message.viewid == self.view.id
        )
        if same_view:
            return
        if self._forming_viewid is not None or self._join_watchdog.armed:
            return  # a formation that can include the prober is in flight
        self.initiate_formation()

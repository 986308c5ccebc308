"""The live-cluster driver: ``python -m repro.rt.cluster``.

Spawns one ``repro.rt.node`` OS process per ring member on localhost,
each hosting ``--shards`` VS groups (default one), drives keyed client
load over the control plane through the consistent-hash router
(:class:`LiveShardLoad`), optionally injects a partition (firewall
windows from :mod:`repro.rt.faults`), heals it, optionally SIGKILLs a
node, then collects every node's event logs and verifies each group's
merged capture with the VS monitor and TO-machine trace membership
(:mod:`repro.rt.trace`), and the per-key order across groups
(:func:`~repro.shard.verify.check_cross_shard_order`).  There is one
episode: a single group is the same code with one name in the ring.

The acceptance run::

    python -m repro.rt.cluster --nodes 3 --sends 50 --partition

sends half the values into the initial whole-group view, splits the
ring into a majority and a minority component, keeps sending into both
sides (the majority keeps a primary quorum, so its deliveries continue;
the minority's wait), heals, and waits until every value is delivered
at every node.  Exit status is 0 iff every group's captured trace is
violation-free, the cross-group key order holds *and* delivery
completed everywhere.

The driver captures and verifies; it neither measures nor judges.
Beside the event logs it writes the report's inputs, the driver marks
(``cluster.timeline.json``) and the nodes' stats stream
(``metrics.jsonl``).  Spans, latency against the Section 8 SLOs and the
cluster's wire totals come from ``python -m repro.obs report
<log-dir>``, throughput and the per-layer cost stack from ``python -m
benchmarks.perf``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from collections.abc import Awaitable, Callable, Mapping, Sequence
from typing import Any, TypeVar, cast

from repro.obs.live.snapshot import ClusterTimeline, MetricsSnapshot
from repro.faults.injectors import PartitionInjector
from repro.faults.schedule import FaultWindow
from repro.rt.faults import live_windows, single_partition_window
from repro.rt.framing import FrameError
from repro.rt.node import default_ring_config
from repro.rt.trace import (
    VerifyReport,
    initial_view_for,
    load_event_logs,
    verify_events,
)
from repro.rt.transport import DRIVER_ID, Ctl, Hello
from repro.rt.wire import WireReader, WireWriter, check_wire
from repro.shard.live import delivered_order, encode_live_op, shard_log_paths
from repro.shard.router import ShardRouter
from repro.shard.routing import HashRing, group_names, point_for_key
from repro.shard.verify import ShardOp, check_cross_shard_order

T = TypeVar("T")


class NodeStartError(RuntimeError):
    """A node process exited before the cluster was started.  ``node``
    names it, ``returncode`` is its exit status and ``log_tail`` the end
    of its ``stdout.log`` (where the traceback is)."""

    def __init__(self, node: str, returncode: int, log_tail: str) -> None:
        super().__init__(
            f"node {node} exited with status {returncode} before the "
            f"cluster started; its stdout.log ends:\n{log_tail}"
        )
        self.node = node
        self.returncode = returncode
        self.log_tail = log_tail


def free_port() -> int:
    """Ask the OS for an ephemeral localhost port."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class NodeClient:
    """One control-plane connection from the driver to a node.

    ``wire`` accepts only ``"binary"``, the one wire; ``flush_after``
    batches fire-and-forget sends — with a 0-second window, back-to-back
    client sends in one event-loop turn (an overloaded open-loop
    generator) coalesce into one frame.
    """

    def __init__(
        self,
        proc_id: str,
        host: str,
        port: int,
        wire: str = "binary",
        flush_after: float | None = None,
    ) -> None:
        check_wire(wire)
        self.proc_id = proc_id
        self.host = host
        self.port = port
        self._sender = WireWriter(flush_after=flush_after)
        self._wire = WireReader()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._replies: asyncio.Queue[Ctl] = asyncio.Queue()
        self._read_task: asyncio.Task[None] | None = None
        # One request in flight at a time: the stats poller shares
        # this connection with the episode script, and the node pairs
        # each reply with the most recent request — without the lock a
        # concurrent ``stats`` could steal a ``block`` acknowledgement.
        self._request_lock = asyncio.Lock()

    async def connect(self, timeout: float = 10.0) -> None:
        """Connect with retries (the node may still be booting), then
        prove who answers: the first frame back must be the node's own
        ``Hello(src=proc_id)``.  Any other closes the connection and
        raises :class:`ConnectionError` naming both."""
        deadline = asyncio.get_running_loop().time() + timeout
        last: OSError | None = None
        while asyncio.get_running_loop().time() < deadline:
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError as exc:
                last = exc
                await asyncio.sleep(0.05)
                continue
            if writer.get_extra_info("sockname") != writer.get_extra_info("peername"):
                self._reader, self._writer = reader, writer
                break
            # The kernel picked the node's port as our ephemeral one
            # before the node listened: a self-connect, which would also
            # hold the port the node is about to bind.
            writer.close()
            last = OSError(f"self-connect on port {self.port}")
            await asyncio.sleep(0.05)
        else:
            raise ConnectionError(
                f"cannot reach node {self.proc_id} at {self.host}:{self.port}: {last}"
            )
        loop = asyncio.get_running_loop()
        self._sender.set_schedule(
            lambda delay, callback: loop.call_later(delay, callback)
        )
        self._sender.attach(self._writer.write)
        self._sender.send_now(Hello(src=DRIVER_ID))
        answer = await self._first_message(deadline)
        if answer != Hello(src=self.proc_id):
            await self.close()
            who = (
                f"node {answer.src!r}" if isinstance(answer, Hello)
                else "nothing" if answer is None else repr(answer)
            )
            raise ConnectionError(
                f"expected node {self.proc_id!r} at {self.host}:{self.port}, "
                f"but {who} answered the driver's Hello"
            )
        self._read_task = loop.create_task(self._read_loop())

    async def _first_message(self, deadline: float) -> Any:
        """The first message the node sends (None if none came before
        ``deadline``); replies that came with it are queued."""
        assert self._reader is not None
        loop = asyncio.get_running_loop()
        try:
            while True:
                data = await asyncio.wait_for(
                    self._reader.read(65536), max(0.0, deadline - loop.time())
                )
                if not data:
                    return None
                messages = self._wire.feed(data)
                if messages:
                    self._queue_replies(messages[1:])
                    return messages[0]
        except (asyncio.TimeoutError, OSError, FrameError):
            return None

    def _queue_replies(self, messages: Sequence[Any]) -> None:
        for message in messages:
            if isinstance(message, Ctl):
                self._replies.put_nowait(message)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    break
                self._queue_replies(self._wire.feed(data))
        except asyncio.CancelledError:
            # close() cancels this task and awaits it; swallowing the
            # cancellation here would make that await hang forever.
            raise
        except OSError:
            pass

    def send_nowait(self, ctl: Ctl) -> None:
        """Fire-and-forget a control record (client traffic)."""
        assert self._writer is not None
        self._sender.send(ctl)

    async def request(self, ctl: Ctl, timeout: float = 15.0) -> Ctl:
        """Send a control record and await the next reply."""
        async with self._request_lock:
            self._sender.send_now(ctl)
            return await asyncio.wait_for(self._replies.get(), timeout)

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
        self._sender.detach()
        if self._writer is not None:
            self._writer.close()


class LiveCluster:
    """Spawn, drive and perturb a localhost ring.  ``wire`` accepts
    only ``"binary"``, the one wire."""

    def __init__(
        self,
        nodes: int,
        log_dir: str | Path,
        delta: float = 0.05,
        metrics_interval: float = 0.25,
        wire: str = "binary",
        shards: int = 1,
    ) -> None:
        check_wire(wire)
        if nodes < 2:
            raise ValueError("need at least 2 nodes")
        self.shards = max(1, shards)
        self.processors: tuple[str, ...] = tuple(
            f"p{i + 1}" for i in range(nodes)
        )
        self.log_dir = Path(log_dir)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.delta = delta
        self.metrics_interval = metrics_interval
        self.ports: dict[str, int] = {p: free_port() for p in self.processors}
        self.procs: dict[str, subprocess.Popen[bytes]] = {}
        self.clients: dict[str, NodeClient] = {}
        self.killed: set[str] = set()
        self.timeline: list[dict[str, Any]] = []
        #: every stats reply, one frame of its node's stats stream
        self.metrics = ClusterTimeline()
        #: handed the data of every stats reply (the load's completion
        #: feedback)
        self.on_stats: Callable[[Any], None] | None = None
        self._metrics_task: asyncio.Task[None] | None = None

    # ------------------------------------------------------------------
    def _mark(self, what: str, **extra: Any) -> None:
        self.timeline.append({"t": time.time(), "event": what, **extra})

    def mark_config(self) -> None:
        """Record the timing the nodes were launched with (``--delta``
        through :func:`default_ring_config`), so the post-run report
        instantiates the Section 8 bounds with the same δ/π/μ."""
        config = default_ring_config(self.delta)
        self._mark(
            "config",
            delta=config.delta,
            pi=config.pi,
            mu=config.mu,
            nodes=len(self.processors),
        )

    def peer_spec(self) -> str:
        return ",".join(
            f"{p}=127.0.0.1:{self.ports[p]}" for p in self.processors
        )

    async def spawn(self) -> None:
        """Launch every node process and connect control channels."""
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        for p in self.processors:
            # Spawn-time only (one short create per node, before any
            # traffic flows), so blocking the loop here is harmless.
            out = open(  # repro-lint: ignore[ASYNC003] -- spawn-time create, loop idle
                self.log_dir / f"{p}.stdout.log", "wb"
            )
            popen = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.rt.node",
                    "--id",
                    p,
                    "--peers",
                    self.peer_spec(),
                    "--log-dir",
                    str(self.log_dir),
                    "--delta",
                    str(self.delta),
                    "--shards",
                    str(self.shards),
                ],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=env,
            )
            # Popen dup'd the descriptor into the child; keeping ours
            # open leaks one fd per node per run.
            out.close()
            self.procs[p] = popen
        self._mark("spawned", nodes=len(self.processors))
        self.mark_config()
        for p in self.processors:
            client = NodeClient(p, "127.0.0.1", self.ports[p], flush_after=0.0)
            await self._while_running(p, client.connect())
            self.clients[p] = client

    async def go(self) -> None:
        """Start every ring member; followers first, leader last, so the
        leader's first token finds armed watchdogs everywhere."""
        leader = min(self.processors)
        order = [p for p in self.processors if p != leader] + [leader]
        for p in order:
            await self._while_running(p, self.clients[p].request(Ctl("go")))
        self._mark("started")
        # One launch spacing so the first circulation completes.  Every
        # member's μ probe timer starts at its ``go``, so this settle
        # sets the probe phase a fixed-offset heal meets; it stays until
        # the harness averages over probe phase (ROADMAP 11).
        await asyncio.sleep(8 * self.delta)

    async def _while_running(self, p: str, work: Awaitable[T]) -> T:
        """Await one start-up step of node ``p``.  If ``p``'s process
        exits first, every node is killed and :class:`NodeStartError`
        is raised at once instead of after the step's own timeout."""
        task = asyncio.ensure_future(work)
        try:
            while True:
                done, _ = await asyncio.wait({task}, timeout=0.05)
                if done:
                    return task.result()
                returncode = self.procs[p].poll()
                if returncode is not None:
                    break
        finally:
            task.cancel()
        for q in self.alive():
            await self.kill(q)
        log = (self.log_dir / f"{p}.stdout.log").read_bytes()
        raise NodeStartError(p, returncode, log[-4096:].decode("utf-8", "replace"))

    # ------------------------------------------------------------------
    # Stats polling
    # ------------------------------------------------------------------
    async def poll_stats(self) -> dict[str, dict[str, Any]]:
        """One ``Ctl("stats")`` round over the survivors.  Every
        reply lands in :attr:`metrics` as one snapshot and goes to
        :attr:`on_stats`; a node mid-kill or napping is left out of
        the returned ``{node: data}``."""
        replies: dict[str, dict[str, Any]] = {}
        for p in self.alive():
            try:
                reply = await self.clients[p].request(Ctl("stats"), timeout=5.0)
            except (asyncio.TimeoutError, OSError, AssertionError):
                continue
            if not isinstance(reply.data, dict):
                continue
            replies[p] = reply.data
            try:
                self.metrics.add(MetricsSnapshot.from_stats(reply.data))
            except (KeyError, TypeError, ValueError):
                pass  # malformed frame: drop, never fail the run
            if self.on_stats is not None:
                self.on_stats(reply.data)
        return replies

    async def _poll_metrics_loop(self) -> None:
        # Not `while True`: on Python 3.11 `asyncio.wait_for` (inside
        # `request`) swallows a cancellation that lands together with
        # the reply, and `stop_metrics_stream` would await this task
        # forever.  It clears the slot before cancelling.
        while self._metrics_task is not None:
            await self.poll_stats()
            await asyncio.sleep(self.metrics_interval)

    def start_metrics_stream(self) -> None:
        """Begin periodic stats polling; every reply lands in
        :attr:`metrics`."""
        if self._metrics_task is None:
            self._metrics_task = asyncio.get_running_loop().create_task(
                self._poll_metrics_loop()
            )
            self._mark("metrics_stream", interval=self.metrics_interval)

    async def stop_metrics_stream(self) -> None:
        # Take the handle before suspending: clearing the slot first
        # makes concurrent stop calls idempotent instead of racing to
        # cancel/await the same task after the interleaved await.
        task = self._metrics_task
        if task is None:
            return
        self._metrics_task = None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    def alive(self) -> tuple[str, ...]:
        return tuple(p for p in self.processors if p not in self.killed)

    # ------------------------------------------------------------------
    async def apply_partition(self, partition: PartitionInjector) -> None:
        """Install the firewall on every side of the split."""
        for p in self.alive():
            blocked = list(partition.blocked_for(p))
            await self.clients[p].request(Ctl("block", blocked))
        self._mark("partition", groups=[list(g) for g in partition.groups])

    async def heal(self) -> None:
        for p in self.alive():
            await self.clients[p].request(Ctl("unblock"))
        self._mark("heal")

    async def kill(self, p: str) -> None:
        """SIGKILL a node (crash without cleanup; its log is a prefix)."""
        self.procs[p].send_signal(signal.SIGKILL)
        # Reap off the loop: wait() blocks until the kernel delivers
        # the exit status, and the other nodes' traffic keeps flowing.
        await asyncio.get_running_loop().run_in_executor(
            None, self.procs[p].wait
        )
        self.killed.add(p)
        if p in self.clients:
            await self.clients[p].close()
        self._mark("kill", node=p)

    # ------------------------------------------------------------------
    async def await_delivered(
        self, expected: Mapping[str, int], timeout: float = 30.0
    ) -> bool:
        """Poll node stats until every survivor delivered each group's
        ``expected`` count (or the timeout passes)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            replies = await self.poll_stats()
            if len(replies) == len(self.alive()) and all(
                data.get("groups", {}).get(group, {}).get("delivered", 0) >= want
                for data in replies.values()
                for group, want in expected.items()
            ):
                self._mark("delivery_complete", per_group=dict(expected))
                return True
            await asyncio.sleep(5 * self.delta)
        self._mark("delivery_timeout")
        return False

    async def stop(self) -> None:
        """Graceful shutdown: flush logs, reap processes."""
        await self.stop_metrics_stream()
        # Final counters: one last stats frame per survivor, so even
        # a run with streaming off gets a complete timeline.
        await self.poll_stats()
        for p in self.alive():
            try:
                await self.clients[p].request(Ctl("stop"), timeout=5.0)
            except asyncio.TimeoutError:
                pass
            await self.clients[p].close()
        loop = asyncio.get_running_loop()
        for p, proc in self.procs.items():
            if p in self.killed:
                continue
            try:
                # Reap in an executor: a straggler that takes the full
                # 5s would otherwise freeze every other connection's
                # teardown (and the metrics flush) with it.
                await loop.run_in_executor(
                    None, functools.partial(proc.wait, timeout=5.0)
                )
            except subprocess.TimeoutExpired:
                proc.kill()
                await loop.run_in_executor(None, proc.wait)
        self._mark("stopped")

    def write_capture(self) -> None:
        """Write the report's inputs beside the event logs: the driver
        marks (``cluster.timeline.json``, the stitcher's fault and
        config source) and every streamed stats frame
        (``metrics.jsonl``)."""
        (self.log_dir / "cluster.timeline.json").write_text(
            json.dumps(self.timeline, indent=2), encoding="utf-8"
        )
        self.metrics.write_jsonl(self.log_dir / "metrics.jsonl")


async def replay_scenario_windows(
    cluster: LiveCluster, windows: Sequence[FaultWindow]
) -> None:
    """Apply a scenario's partition episodes at their (scaled) offsets.

    Episodes run sequentially — the live firewall holds one blocked set
    per node, so each window is applied, held to its stop offset, and
    healed before the next; offsets are relative to replay start, and a
    window whose start has already passed applies immediately.
    """
    loop = asyncio.get_running_loop()
    origin = loop.time()
    for window in windows:
        now = loop.time() - origin
        if window.start > now:
            await asyncio.sleep(window.start - now)
        # live_windows admits partition windows only.
        await cluster.apply_partition(cast(PartitionInjector, window.injector))
        now = loop.time() - origin
        if window.stop > now:
            await asyncio.sleep(window.stop - now)
        await cluster.heal()


def scenario_windows_for(
    scenario: str | Path, processors: Sequence[str], time_scale: float
) -> tuple[FaultWindow, ...]:
    """Load a scenario file and map its partition windows onto a live
    processor set (see :func:`repro.rt.faults.live_windows`)."""
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.load(scenario)
    return live_windows(
        spec.build_schedule(),
        spec.proc_ids,
        tuple(processors),
        time_scale=time_scale,
    )


class _LiveShardBackend:
    """Router backend for one group: fire a control-plane send at the
    key's session node."""

    def __init__(self, group: str, load: LiveShardLoad) -> None:
        self._group = group
        self._load = load

    @property
    def group(self) -> str:
        return self._group

    def submit(self, key: str, value: Any) -> None:
        self._load.dispatch(key, self._group, value)


class LiveShardLoad:
    """Driver-side keyed client load.

    The same :class:`~repro.shard.router.ShardRouter` that fronts the
    simulated service fronts the live cluster here: keys route through
    the consistent-hash ring, each group holds a bounded in-flight
    window, and completions are inferred from polled per-group
    delivered counts (the most-advanced node's count for a group is the
    number of operations that group has totally ordered and delivered).
    Of its cluster it uses ``processors``, ``alive()`` and ``clients``.
    """

    def __init__(
        self, cluster: LiveCluster, ring: HashRing, window: int | None = 64
    ) -> None:
        self.cluster = cluster
        self.ring = ring
        self.router = ShardRouter(ring, window=window)
        self.submitted: dict[str, list[ShardOp]] = {}
        self._completed: dict[str, int] = {g: 0 for g in ring.groups}
        for group in ring.groups:
            self.router.add_backend(group, _LiveShardBackend(group, self))

    # -- router-facing --------------------------------------------------
    def session_node(self, key: str) -> str:
        """The node every operation on ``key`` enters the cluster at,
        fixed for the whole episode whoever dies: one sender per key,
        so TO's per-sender FIFO makes the key's delivered order equal
        its submission order even across partitions (the cross-shard
        checker's premise)."""
        processors = self.cluster.processors
        return processors[point_for_key(key) % len(processors)]

    def live_keys(self, keys: Sequence[str]) -> list[str]:
        """Those of ``keys`` a client can still submit on: the ones
        whose session node is alive."""
        alive = self.cluster.alive()
        return [key for key in keys if self.session_node(key) in alive]

    def dispatch(self, key: str, group: str, value: Any) -> None:
        """Send one routed operation to the key's session node (a dead
        node's closed connection drops it, as a crashed server would)."""
        self.cluster.clients[self.session_node(key)].send_nowait(
            Ctl("send", {"g": group, "v": value})
        )

    # -- client-facing --------------------------------------------------
    def submit(self, key: str, op_seq: int, payload: str) -> str:
        """Route one operation; returns the owning group.  A full
        window queues it in the router (dispatched on completion)."""
        value = encode_live_op(key, op_seq, payload)
        self.submitted.setdefault(key, []).append((key, op_seq, payload))
        return self.router.submit(key, value)

    def expected_per_group(self) -> dict[str, int]:
        """How many operations each group owns (the completeness bar)."""
        counts = {g: 0 for g in self.ring.groups}
        for key, ops in self.submitted.items():
            counts[self.ring.owner_of(key)] += len(ops)
        return counts

    # -- completion feedback --------------------------------------------
    def absorb_stats(self, data: Any) -> None:
        """Feed one node's stats reply into the completion loop."""
        groups = data.get("groups") if isinstance(data, dict) else None
        if not isinstance(groups, dict):
            return
        for group, gstats in groups.items():
            if group not in self._completed or not isinstance(gstats, dict):
                continue
            delivered = int(gstats.get("delivered", 0))
            if delivered > self._completed[group]:
                free = min(
                    delivered - self._completed[group],
                    self.router.inflight(group),
                )
                if free > 0:
                    self.router.complete(group, free)
                self._completed[group] = delivered


def verify_sharded(
    log_dir: str | Path,
    processors: Sequence[str],
    groups: Sequence[str],
    submitted: dict[str, list[ShardOp]],
    ring: HashRing,
    expect_at: Sequence[str],
) -> dict[str, Any]:
    """Per-group live verification plus the cross-shard invariant.

    Each group's event logs are a complete single-group capture, so the
    standard live checkers run once per group; the delivered orders
    recovered from the same decoded events then feed
    :func:`~repro.shard.verify.check_cross_shard_order`.  The top level
    of the result is one :class:`~repro.rt.trace.VerifyReport` over all
    groups (counts add, verdicts must all hold; for one group it is
    that group's report) with ``ok`` also requiring the cross-shard
    check; each group's own report is under ``"groups"``.
    """
    initial_view = initial_view_for(tuple(processors))
    per_group: dict[str, VerifyReport] = {}
    orders: dict[str, list[ShardOp]] = {}
    for group in groups:
        events = load_event_logs(shard_log_paths(log_dir, group))
        per_group[group] = verify_events(
            events, processors, initial_view, expect_at=expect_at
        )
        orders[group] = delivered_order(events)
    cross = check_cross_shard_order(submitted, orders, ring)
    reports = per_group.values()
    total = VerifyReport(
        processors=tuple(sorted(processors)),
        events=sum(r.events for r in reports),
        violations=[
            f"{g}: {v}" for g in groups for v in per_group[g].violations
        ],
        to_ok=all(r.to_ok for r in reports),
        to_reason="; ".join(
            f"{g}: {per_group[g].to_reason}"
            for g in groups
            if not per_group[g].to_ok
        ),
        sends=sum(r.sends for r in reports),
        deliveries=sum(r.deliveries for r in reports),
        views_installed=sum(r.views_installed for r in reports),
        delivered_complete=all(r.delivered_complete for r in reports),
    )
    return {
        **total.to_dict(),
        "ok": total.ok and cross.ok,
        "groups": {g: per_group[g].to_dict() for g in groups},
        "cross_shard": cross.to_dict(),
    }


async def run_cluster(
    nodes: int,
    sends: int,
    partition: bool = False,
    kill: bool = False,
    log_dir: str | Path | None = None,
    delta: float = 0.05,
    send_interval: float = 0.02,
    partition_hold: float | None = None,
    settle: float | None = None,
    scenario: str | Path | None = None,
    time_scale: float = 0.05,
    seed: int = 0,
    metrics_interval: float = 0.25,
    shards: int = 1,
    window: int | None = 64,
) -> dict[str, Any]:
    """One full scripted episode; returns the verification report dict.

    ``nodes`` processes each host ``shards`` group runtimes.  Client
    load is open-loop Poisson (seeded, mean rate ``1/send_interval``:
    arrival times are honoured against the wall clock, so a send the
    cluster absorbs slowly does not delay later arrivals) over a fixed
    key set, routed by :class:`LiveShardLoad` with a per-group
    ``window``; each key enters at its session node, and keys whose
    session node was killed are no longer drawn.  One stats poller,
    every ``metrics_interval`` seconds, streams the nodes' stats
    and feeds the router its completions.  ``metrics.jsonl`` and
    ``cluster.timeline.json`` are written into the log directory (see
    :meth:`LiveCluster.write_capture`), where ``python -m repro.obs
    report`` reads them.
    """
    if send_interval <= 0:
        raise ValueError(f"send_interval must be positive: {send_interval}")
    if log_dir is None:
        log_dir = tempfile.mkdtemp(prefix="repro-rt-")
    cluster = LiveCluster(
        nodes,
        log_dir,
        delta=delta,
        metrics_interval=metrics_interval,
        shards=shards,
    )
    names = group_names(cluster.shards)
    ring = HashRing(names, seed=seed)
    load = LiveShardLoad(cluster, ring, window=window)
    cluster.on_stats = load.absorb_stats
    scenario_windows: tuple[FaultWindow, ...] = ()
    if scenario is not None:
        scenario_windows = scenario_windows_for(
            scenario, cluster.processors, time_scale
        )
    hold = partition_hold if partition_hold is not None else 50 * delta
    settle_time = settle if settle is not None else 40 * delta
    keys = [f"k{i}" for i in range(4 * nodes * len(names))]
    arrivals = random.Random(seed)
    loop = asyncio.get_running_loop()

    async def send_ops(indices: Sequence[int]) -> None:
        live = load.live_keys(keys)
        due = loop.time()
        for i in indices:
            due += arrivals.expovariate(1.0 / send_interval)
            if due > loop.time():
                await asyncio.sleep(due - loop.time())
            load.submit(live[i % len(live)], i, f"v{i}")

    started = time.time()
    await cluster.spawn()
    try:
        await cluster.go()
        cluster.start_metrics_stream()
        cluster._mark(
            "load", arrivals="poisson", rate=1.0 / send_interval, sends=sends
        )
        indices = range(sends)
        half = sends // 2
        if scenario_windows:
            # Replay the sim scenario's partition timeline: first half
            # of the traffic before the episodes, the rest during them.
            await send_ops(indices[:half])
            replay = loop.create_task(
                replay_scenario_windows(cluster, scenario_windows)
            )
            await send_ops(indices[half:])
            await replay
            cluster._mark(
                "scenario_replayed",
                scenario=str(scenario),
                windows=len(scenario_windows),
            )
        elif partition or kill:
            await send_ops(indices[:half])
            if kill:
                await cluster.kill(max(cluster.processors))
            if partition:
                await cluster.apply_partition(
                    single_partition_window(cluster.alive(), 0.0, hold)
                )
            # Traffic continues into both sides of the split; minority
            # sends are delivered only after the heal reconciles state.
            await send_ops(indices[half:])
            if partition:
                await asyncio.sleep(hold)
                await cluster.heal()
        else:
            await send_ops(indices)
        await asyncio.sleep(settle_time)
        # A SIGKILLed node may take accepted-but-unpropagated values with
        # it, so completeness cannot be awaited to the full count there.
        poll_timeout = max(10.0, 200 * delta) if kill else max(30.0, 600 * delta)
        complete = await cluster.await_delivered(
            load.expected_per_group(), timeout=poll_timeout
        )
    finally:
        await cluster.stop()
    cluster.write_capture()
    out = verify_sharded(
        cluster.log_dir,
        cluster.processors,
        names,
        load.submitted,
        ring,
        expect_at=cluster.alive(),
    )
    wall = time.time() - started
    out.update(
        {
            "experiment": "live-cluster",
            "nodes": nodes,
            "shards": cluster.shards,
            "requested_sends": sends,
            "partition": partition,
            "kill": kill,
            "scenario": None if scenario is None else str(scenario),
            "delta": delta,
            "window": window,
            "seed": seed,
            "router": load.router.stats(),
            "polled_complete": complete,
            "wall_seconds": wall,
            "log_dir": str(log_dir),
            "timeline": cluster.timeline,
        }
    )
    return out


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rt.cluster",
        description="Spawn, drive and verify a live localhost ring.",
        epilog="Throughput and latency are not printed here: run "
        "'python -m repro.obs report <log-dir>' over the capture, or "
        "'python -m benchmarks.perf' for like-for-like numbers.",
    )
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--sends", type=int, default=50)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="VS group runtimes per node (default 1); keys are routed "
        "to groups by the driver, each group is verified on its own",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=64,
        help="per-group in-flight window of the driver's router "
        "(0 disables backpressure)",
    )
    parser.add_argument(
        "--partition",
        action="store_true",
        help="inject a majority/minority partition mid-run, then heal",
    )
    parser.add_argument(
        "--kill",
        action="store_true",
        help="SIGKILL the highest node mid-run (it stays down)",
    )
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--send-interval", type=float, default=0.02)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the Poisson arrival process and the hash ring",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=0.25,
        help="seconds between stats polls (streamed into "
        "metrics.jsonl)",
    )
    parser.add_argument(
        "--log-dir", default=None, help="keep logs here (default: temp dir)"
    )
    parser.add_argument("--json", default=None, help="write the report here")
    parser.add_argument(
        "--scenario",
        default=None,
        help="replay a sim scenario file's partition windows (node count "
        "is taken from the scenario)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.05,
        help="wall seconds per scenario virtual time unit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    nodes = args.nodes
    if args.scenario is not None:
        from repro.scenarios import ScenarioSpec

        nodes = ScenarioSpec.load(args.scenario).processors
    report = asyncio.run(
        run_cluster(
            nodes=nodes,
            sends=args.sends,
            partition=args.partition,
            kill=args.kill,
            log_dir=args.log_dir,
            delta=args.delta,
            send_interval=args.send_interval,
            scenario=args.scenario,
            time_scale=args.time_scale,
            seed=args.seed,
            metrics_interval=args.metrics_interval,
            shards=args.shards,
            window=args.window if args.window > 0 else None,
        )
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2), encoding="utf-8"
        )
    ok = report["ok"] and (report["delivered_complete"] or args.kill)
    print(
        "live-cluster: nodes={nodes} shards={shards} sends={sends} "
        "deliveries={deliveries} views={views} violations={violations} "
        "to_ok={to_ok} complete={complete} wall={wall:.1f}s".format(
            nodes=report["nodes"],
            shards=report["shards"],
            sends=report["sends"],
            deliveries=report["deliveries"],
            views=report["views_installed"],
            violations=len(report["violations"]),
            to_ok=report["to_ok"],
            complete=report["delivered_complete"],
            wall=report["wall_seconds"],
        )
    )
    for group, gr in report["groups"].items():
        print(
            "  {g}: sends={sends} deliveries={deliveries} "
            "views={views} ok={ok}".format(
                g=group,
                sends=gr["sends"],
                deliveries=gr["deliveries"],
                views=gr["views_installed"],
                ok=gr["ok"],
            )
        )
    cross = report["cross_shard"]
    print(
        "  cross-shard: ok={ok} keys={keys} ops={ops}".format(
            ok=cross["ok"], keys=cross["keys_checked"], ops=cross["ops_checked"]
        )
    )
    for violation in report["violations"]:
        print(f"  VS violation: {violation}")
    if not report["to_ok"]:
        print(f"  TO violation: {report['to_reason']}")
    if not cross["ok"]:
        print(f"  cross-shard violation: {cross['reason']}")
    if not ok:
        print("  VERDICT: FAIL")
        return 1
    print(
        "  VERDICT: OK (every group's captured trace conforms to the VS "
        "and TO specs; cross-shard order holds)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

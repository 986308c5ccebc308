"""INV-STEP-1: the end of a live node's step is a pipeline boundary.

A node logs each VS output at once and queues it for its VStoTO
runtime; when the step ends it writes the step's frames and only then
lets each group's runtime catch up.  A group's queue is also emptied
before its ring member's next step and before a client ``bcast``.
These tests run in-process nodes over loopback TCP and check the three
consequences, each with a mutant (applied by patching) that shows the
check can fail:

- a forwarded token leaves before the runtime takes the step's
  ``safe`` outputs (synchronous clients, the old shape, fail it);
- every ring step and every timer callback starts with the group's
  queue empty (draining on the next loop turn instead fails it);
- each runtime applies exactly its node's logged inputs, in file order.

A fourth pins how a traced run attributes timers: the callback handed
to ``LiveScheduler.schedule`` is the ring's own, not a node wrapper.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from pathlib import Path
from typing import Any

import pytest

from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.messages import Token
from repro.membership.ring import RingMember
from repro.rt.clock import LiveScheduler
from repro.rt.node import LiveNode, LiveNodeService, default_ring_config
from repro.rt.trace import group_event_logs, load_event_logs
from repro.rt.transport import Ctl, LiveNetwork
from repro.rt.wire import WireReader
from repro.shard.routing import group_names
from tests.rt.test_live_cluster import loopback_peers

#: The client's inputs to VStoTO, as logged and as applied.
INPUTS = ("bcast", "gprcv", "safe", "newview")


def run_episode(
    tmp_path: Path,
    *,
    shards: int = 1,
    flush_after: float | None = None,
    split: bool = False,
    sends: int = 90,
) -> None:
    """Three in-process nodes: warm up, optionally split ``{p1,p2}|{p3}``
    and heal, with client sends to every node and group throughout.
    The nodes log under ``tmp_path``."""
    peers = loopback_peers(3)
    procs = sorted(peers)
    groups = group_names(shards)

    async def scenario() -> None:
        nodes = {
            p: LiveNode(
                p, peers, tmp_path, config=default_ring_config(0.02),
                flush_after=flush_after, shards=shards,
            )
            for p in procs
        }
        try:
            for node in nodes.values():
                await node.start()
            for p in ("p2", "p3", "p1"):  # the leader last
                await nodes[p]._on_ctl("driver", Ctl("go"), lambda reply: None)
            await asyncio.sleep(0.1)
            for i in range(sends):
                if split and i == sends // 3:
                    for p in ("p1", "p2"):
                        nodes[p].network.block(["p3"])
                    nodes["p3"].network.block(["p1", "p2"])
                if split and i == 2 * sends // 3:
                    for node in nodes.values():
                        node.network.unblock()
                value = {"g": groups[i % shards], "v": f"v{i}"}
                await nodes[procs[i % 3]]._on_ctl("driver", Ctl("send", value), lambda reply: None)
                await asyncio.sleep(0.01 if split else 0.004)
            await asyncio.sleep(1.5 if split else 0.3)  # heal, and the last laps
        finally:
            for node in nodes.values():
                await node.close()
            await asyncio.sleep(0.1)  # stream handlers see EOF and end

    asyncio.run(scenario())


class TokenFrameSpy:
    """A peer stream that notes, at every frame carrying a token, how
    many ``safe`` outputs its node had emitted and its runtime had
    consumed, against the same counts when the node's current token
    step began."""

    def __init__(self, node: str, stream: Any, counts: dict[str, Any]) -> None:
        self.node, self.stream, self.counts = node, stream, counts
        self.reader = WireReader()

    def write(self, frame: bytes) -> None:
        for message in self.reader.feed(frame):
            body = getattr(getattr(message, "msg", None), "body", None)
            if isinstance(body, Token):
                emitted, consumed = self.counts["emitted"], self.counts["consumed"]
                self.counts["frames"].append(
                    (*self.counts["step"][self.node], emitted[self.node], consumed[self.node])
                )
        self.stream.write(frame)


class TestFrameBeforeClient:
    """The token a step forwards is written before the runtime takes
    any of the step's ``safe`` outputs: with every message its own
    frame (``LiveNode``'s default) and with the CLI's per-step batch."""

    def episode(self, tmp_path: Path, monkeypatch: Any, flush_after: float | None) -> list:
        counts: dict[str, Any] = {
            "emitted": Counter(), "consumed": Counter(), "step": {}, "frames": [],
        }
        frame_sink = LiveNetwork._frame_sink
        emit_safe = LiveNodeService.emit_safe
        on_safe = VStoTORuntime._on_safe
        process_token = RingMember._process_token

        def spied_sink(network: LiveNetwork, stream: Any) -> Any:
            return frame_sink(network, TokenFrameSpy(network.proc_id, stream, counts))

        def counted_emit(service: LiveNodeService, payload: Any, src: str, dst: str) -> None:
            counts["emitted"][dst] += 1
            emit_safe(service, payload, src, dst)

        def counted_safe(runtime: VStoTORuntime, payload: Any, src: Any, dst: Any) -> None:
            counts["consumed"][dst] += 1
            on_safe(runtime, payload, src, dst)

        def step(member: RingMember, token: Token) -> None:
            p = member.proc_id
            counts["step"][p] = (counts["emitted"][p], counts["consumed"][p])
            process_token(member, token)

        monkeypatch.setattr(LiveNetwork, "_frame_sink", spied_sink)
        monkeypatch.setattr(LiveNodeService, "emit_safe", counted_emit)
        monkeypatch.setattr(VStoTORuntime, "_on_safe", counted_safe)
        monkeypatch.setattr(RingMember, "_process_token", step)
        run_episode(tmp_path, flush_after=flush_after)
        return counts["frames"]

    @staticmethod
    def early(frames: list) -> list:
        """Token frames written after the runtime took a safe output
        of the step that forwards them."""
        return [
            f for f in frames
            if f[2] > f[0] and f[3] > f[0]  # the step emitted safes; one was consumed
        ]

    @pytest.mark.parametrize("flush_after", [None, 0.0])
    def test_the_token_leaves_before_the_client_consumes(self, tmp_path, monkeypatch, flush_after):
        frames = self.episode(tmp_path, monkeypatch, flush_after)
        stepped = [f for f in frames if f[2] > f[0]]
        assert len(stepped) >= 20, "too few token steps emitted a safe output"
        assert self.early(frames) == []

    def test_synchronous_clients_fail_it(self, tmp_path, monkeypatch):
        """The old shape: ``emit_safe`` calls the runtime at once."""

        def synchronous(service: LiveNodeService, payload: Any, src: str, dst: str) -> None:
            service._record("safe", payload, src, dst)
            assert service.on_safe is not None
            service.on_safe(payload, src, dst)

        monkeypatch.setattr(LiveNodeService, "emit_safe", synchronous)
        frames = self.episode(tmp_path, monkeypatch, None)
        assert self.early(frames), "the check cannot fail: it proves nothing"


class SplitHeal:
    """One two-group split/heal episode, with every ring step and every
    scheduler callback checked to start on an empty queue, and every
    input each runtime applied recorded against its log."""

    @staticmethod
    def episode(tmp_path: Path, monkeypatch: Any) -> dict[str, Any]:
        seen: dict[str, Any] = {"late": [], "steps": Counter(), "applied": {}}
        nodes: dict[int, LiveNode] = {}
        on_message = RingMember.on_message
        schedule = LiveScheduler.schedule
        build = LiveNode._build_stack

        def register(node: LiveNode, group: str) -> Any:
            nodes[id(node.scheduler)] = node
            return build(node, group)

        def ring_step(member: RingMember, src: str, message: Any) -> None:
            seen["steps"]["on_message"] += 1
            if member.service._pending:
                seen["late"].append(("on_message", member.proc_id, type(message).__name__))
            on_message(member, src, message)

        def scheduling(scheduler: LiveScheduler, delay: float, callback: Any) -> Any:
            def timed() -> None:
                node = nodes[id(scheduler)]
                seen["steps"]["timer"] += 1
                for group, stack in node._stacks.items():
                    if stack.service._pending:
                        seen["late"].append(("timer", node.proc_id, group))
                callback()

            return schedule(scheduler, delay, timed)

        def applying(name: str, event: str) -> Any:
            original = getattr(VStoTORuntime, name)

            def applied(runtime: VStoTORuntime, *args: Any) -> None:
                # broadcast(p, value) is logged as bcast(value, p)
                logged = args[::-1] if event == "bcast" else args
                seen["applied"].setdefault(runtime.service.log.path, []).append((event, logged))
                original(runtime, *args)

            return applied

        monkeypatch.setattr(LiveNode, "_build_stack", register)
        monkeypatch.setattr(RingMember, "on_message", ring_step)
        monkeypatch.setattr(LiveScheduler, "schedule", scheduling)
        for name, event in zip(("broadcast", "_on_gprcv", "_on_safe", "_on_newview"), INPUTS):
            monkeypatch.setattr(VStoTORuntime, name, applying(name, event))
        run_episode(tmp_path, shards=2, split=True, sends=180)
        seen["logs"] = group_event_logs(tmp_path)
        return seen


@pytest.fixture(scope="class")
def split_heal(tmp_path_factory: Any) -> dict[str, Any]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        return SplitHeal.episode(tmp_path_factory.mktemp("split"), monkeypatch)


class TestClientCatchesUp:
    def test_every_ring_step_and_timer_starts_caught_up(self, split_heal):
        assert split_heal["steps"]["on_message"] > 100
        assert split_heal["steps"]["timer"] > 100
        assert split_heal["late"] == []

    def test_the_episode_changes_views_in_every_group(self, split_heal):
        for group, paths in split_heal["logs"].items():
            for node, path in paths.items():
                views = [e for e in load_event_logs([path]) if e["ev"] == "newview"]
                assert len(views) >= 2, (group, node)

    def test_a_next_turn_drain_fails_it(self, tmp_path, monkeypatch):
        """The mutant: the step's frames still leave first, but the
        runtimes catch up on the next loop turn, and nothing else
        empties a queue."""
        catch_up = LiveNodeService.catch_up

        def end_step(node: LiveNode) -> None:
            node.network.flush()
            services = [stack.service for stack in node._stacks.values()]
            asyncio.get_running_loop().call_soon(lambda: [catch_up(s) for s in services])

        monkeypatch.setattr(LiveNode, "_end_step", end_step)
        monkeypatch.setattr(LiveNodeService, "catch_up", lambda service: None)
        seen = SplitHeal.episode(tmp_path, monkeypatch)
        assert seen["late"], "the check cannot fail: it proves nothing"


class TestLogOrderIsInputOrder:
    def test_each_runtime_applies_its_logged_inputs_in_file_order(self, split_heal):
        paths = [path for group in split_heal["logs"].values() for path in group.values()]
        assert len(paths) == 6
        for path in paths:
            logged = [
                (e["ev"], tuple(e["args"])) for e in load_event_logs([path]) if e["ev"] in INPUTS
            ]
            assert {ev for ev, _ in logged} == set(INPUTS), path.name
            assert split_heal["applied"][path] == logged, path.name


class TestTraceAttribution:
    def test_the_scheduler_is_handed_the_rings_own_callbacks(self, tmp_path, monkeypatch):
        """A span recorder that patches ``LiveScheduler.schedule`` names
        each timer after the module defining the callback it receives;
        a node wrapper there would file every timer under ``rt.node``."""
        modules: Counter[str] = Counter()
        schedule = LiveScheduler.schedule

        def scheduling(scheduler: LiveScheduler, delay: float, callback: Any) -> Any:
            func = getattr(callback, "__func__", callback)
            modules[func.__module__] += 1

            def traced() -> None:
                callback()

            return schedule(scheduler, delay, traced)

        monkeypatch.setattr(LiveScheduler, "schedule", scheduling)
        run_episode(tmp_path, flush_after=0.0, sends=30)
        assert {"repro.membership.ring", "repro.sim.timers"} <= set(modules)
        assert set(modules) <= {"repro.membership.ring", "repro.sim.timers", "repro.rt.wire"}

"""Regression tests for the concurrency fixes the ASYNC lint rules
surfaced in the live runtime (this PR's cleanup of repro.rt).

Each test pins the *behavioral* contract the fix restored, not the
lint finding: cancellation propagates out of reader loops (ASYNC004),
concurrent metrics-stream stops are idempotent (ASYNC001), spawned
node log descriptors do not leak (ASYNC005), and process reaping no
longer stalls the event loop (ASYNC003).  A connection handler also
drops a stream that sends bytes the wire refuses, and counts it.
"""

from __future__ import annotations

import asyncio
import os
import signal
import struct

import pytest

from repro.rt.clock import LiveScheduler
from repro.rt.cluster import LiveCluster, NodeClient, free_port
from repro.rt.transport import Hello, LiveNetwork
from repro.rt.wire import CODEC_BINARY, WIRE_MAGIC, WireWriter, encode_wire_frame


class HangingReader:
    """A stream reader whose read() never completes (idle connection)."""

    async def read(self, n: int) -> bytes:
        await asyncio.sleep(3600)
        return b""


class NullWriter:
    """Just enough asyncio.StreamWriter surface for _serve's finally."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


class ScriptedReader:
    """A stream reader that returns the given chunks, then EOF."""

    def __init__(self, *chunks: bytes) -> None:
        self._chunks = list(chunks)

    async def read(self, n: int) -> bytes:
        return self._chunks.pop(0) if self._chunks else b""


def run(coro):
    return asyncio.run(coro)


class TestCancellationPropagates:
    def test_node_client_read_loop_is_cancellable(self):
        """ASYNC004 fix: close() cancels _read_loop and the task must
        actually end *cancelled* — the old handler swallowed the
        CancelledError, so an `await task` after cancel() could report
        a normal exit (and cleanup code keyed on task.cancelled() lied).
        """

        async def scenario():
            client = NodeClient("p1", "127.0.0.1", free_port())
            client._reader = HangingReader()
            task = asyncio.get_running_loop().create_task(client._read_loop())
            await asyncio.sleep(0.01)  # let the loop reach its await
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            assert task.cancelled(), "cancellation was swallowed by _read_loop"

        run(scenario())

    def test_transport_serve_is_cancellable(self):
        """ASYNC004 fix: server shutdown cancels every connection
        handler; _serve must re-raise so close() sees the handlers die
        (and its finally still runs the writer cleanup)."""

        async def scenario():
            port = free_port()
            net = LiveNetwork(
                "p1",
                {"p1": ("127.0.0.1", port)},
                LiveScheduler(asyncio.get_running_loop()),
            )
            task = asyncio.get_running_loop().create_task(
                net._serve(HangingReader(), NullWriter())
            )
            await asyncio.sleep(0.01)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            assert task.cancelled(), "cancellation was swallowed by _serve"

        run(scenario())


class TestMetricsStreamStop:
    def test_concurrent_stops_are_idempotent(self, tmp_path):
        """ASYNC001 fix: the task handle is taken *before* the await,
        so two racing stop calls cannot both cancel/await the same
        task — the second sees the cleared slot and returns."""

        async def scenario():
            cluster = LiveCluster(2, tmp_path)
            poll = asyncio.get_running_loop().create_task(asyncio.sleep(3600))
            cluster._metrics_task = poll
            await asyncio.gather(
                cluster.stop_metrics_stream(),
                cluster.stop_metrics_stream(),
                cluster.stop_metrics_stream(),
            )
            assert cluster._metrics_task is None
            assert poll.cancelled()

        run(scenario())


    def test_stop_survives_a_swallowed_cancellation(self, tmp_path):
        """Python 3.11's ``asyncio.wait_for`` returns the reply instead
        of raising when a cancellation lands together with it, so the
        poll loop can miss its cancel; it must still end (seen once as
        a tier-1 run hung after a complete episode, nodes still up)."""

        async def scenario():
            cluster = LiveCluster(2, tmp_path)

            async def poll_stats():
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    return {}  # what wait_for does with a ready reply

            cluster.poll_stats = poll_stats
            cluster.metrics_interval = 0.0
            cluster.start_metrics_stream()
            await asyncio.sleep(0)
            await asyncio.wait_for(cluster.stop_metrics_stream(), 2.0)

        run(scenario())


class TestSpawnAndReap:
    def test_spawn_closes_log_fds_and_kill_reaps_off_loop(self, tmp_path):
        """ASYNC005/ASYNC003 fixes: after spawn, the parent holds no
        descriptor for any node's stdout log (Popen dup'd it into the
        child), and kill() reaps without freezing the event loop — a
        heartbeat task keeps ticking while the reap runs."""

        async def scenario():
            cluster = LiveCluster(2, tmp_path)
            await cluster.spawn()
            try:
                held = []
                for fd in os.listdir("/proc/self/fd"):
                    try:
                        target = os.readlink(f"/proc/self/fd/{fd}")
                    except OSError:
                        continue
                    if target.endswith(".stdout.log"):
                        held.append(target)
                assert not held, f"leaked node log fds: {held}"

                ticks = 0

                async def heartbeat():
                    nonlocal ticks
                    while True:
                        ticks += 1
                        await asyncio.sleep(0.002)

                beat = asyncio.get_running_loop().create_task(heartbeat())
                for p in tuple(cluster.procs):
                    # kill() closes the node's control client; these were
                    # never connected, and close() on a fresh client is a
                    # no-op — exactly the teardown-before-connect path.
                    cluster.clients[p] = NodeClient(
                        p, "127.0.0.1", cluster.ports[p]
                    )
                    await cluster.kill(p)
                beat.cancel()
                assert ticks > 0, "event loop was starved during reap"
                for proc in cluster.procs.values():
                    assert proc.returncode is not None, "kill() did not reap"
            finally:
                for proc in cluster.procs.values():
                    if proc.returncode is None:
                        proc.send_signal(signal.SIGKILL)
                        proc.wait()

        run(scenario())


def _header(version: int, codec: int) -> bytes:
    return struct.pack(">BBBBI", WIRE_MAGIC, version, codec, 0, 1) + b"\x00"


#: One frame each that the wire refuses after a good Hello.
BAD_FRAMES = {
    "legacy": struct.pack(">I", 9) + b'["hello"]',
    "codec-0": _header(1, 0),
    "version-99": _header(99, CODEC_BINARY),
    "unhashable-dict-key": encode_wire_frame(bytes.fromhex("0C 01 09 00 00")),
    "nested-5000": encode_wire_frame(bytes.fromhex("09 01") * 5000 + b"\x00"),
}


class TestServeRefusesHostileBytes:
    @pytest.mark.parametrize("name", sorted(BAD_FRAMES))
    def test_a_bad_frame_after_hello_drops_the_stream(self, name):
        """The handler ends on the refusal with ``frame_errors`` counted,
        instead of dying of an untyped exception."""

        async def scenario():
            net = LiveNetwork(
                "p1",
                {"p1": ("127.0.0.1", free_port()), "p2": ("127.0.0.1", free_port())},
                LiveScheduler(asyncio.get_running_loop()),
            )
            frames: list[bytes] = []
            hello = WireWriter()
            hello.attach(frames.append)
            hello.send_now(Hello(src="p2"))
            writer = NullWriter()
            await net._serve(ScriptedReader(frames[0], BAD_FRAMES[name], frames[0]), writer)
            assert net.counters["frame_errors"] == 1
            assert writer.closed and "p2" not in net._inbound

        run(scenario())

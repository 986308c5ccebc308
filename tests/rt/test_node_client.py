"""The driver's control connection refuses a self-connected socket,
and any node but the one it dialled."""

from __future__ import annotations

import asyncio
import socket
from typing import Any

import pytest

from repro.rt.cluster import NodeClient, free_port
from repro.rt.transport import DRIVER_ID, Ctl, Hello
from repro.rt.wire import WireReader, WireWriter


def answer(writer: asyncio.StreamWriter, *messages: Any) -> None:
    """Write ``messages`` as a node's reply stream does."""
    sender = WireWriter()
    sender.attach(writer.write)
    for message in messages:
        sender.send_now(message)


def test_connect_refuses_a_self_connect_and_retries(monkeypatch):
    """Before a node listens, the kernel may hand the driver the node's
    own port as its ephemeral port, and Linux completes that connect as
    a self-connect.  The first attempt here binds its local address to
    the target port to force one; ``connect`` must drop it, retry, and
    end up talking to the node."""
    real_open = asyncio.open_connection
    attempts: list[tuple[str, str]] = []
    hellos: list[object] = []

    async def serve(reader, writer):
        hellos.extend(WireReader().feed(await reader.read(65536)))
        answer(writer, Hello(src="p1"))
        await reader.read(65536)  # until the driver closes
        writer.close()

    async def scenario():
        port = free_port()
        servers = []

        async def open_connection(host, target):
            if not attempts:
                # SO_REUSEADDR lets the node bind the port while this
                # socket's TIME_WAIT lingers.
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((host, target))
                sock.connect((host, target))
                reader, writer = await real_open(sock=sock)
            else:
                if not servers:
                    servers.append(await asyncio.start_server(serve, host, target))
                reader, writer = await real_open(host, target)
            attempts.append(
                (writer.get_extra_info("sockname"), writer.get_extra_info("peername"))
            )
            return reader, writer

        monkeypatch.setattr(asyncio, "open_connection", open_connection)
        client = NodeClient("p1", "127.0.0.1", port)
        await client.connect(timeout=5.0)
        for _ in range(100):
            if hellos:
                break
            await asyncio.sleep(0.01)
        await client.close()
        for server in servers:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
    first, last = attempts[0], attempts[-1]
    assert first[0] == first[1], "the first attempt did not self-connect"
    assert len(attempts) >= 2
    assert last[0] != last[1]
    assert hellos == [Hello(src=DRIVER_ID)]


def handshake(*messages: Any) -> tuple[BaseException | None, list[Any], bytes]:
    """Connect a ``NodeClient`` for ``p1`` to a stub node that answers
    the driver's Hello with ``messages`` (or closes, given none);
    return what ``connect`` raised, what the stub read, and what it
    read after that (``b""`` once the driver closed the socket)."""
    seen: list[Any] = []
    after: list[bytes] = []

    async def serve(reader, writer):
        seen.extend(WireReader().feed(await reader.read(65536)))
        answer(writer, *messages)
        if messages:
            after.append(await reader.read(65536))
        writer.close()

    async def scenario() -> BaseException | None:
        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = NodeClient("p1", "127.0.0.1", port)
        try:
            await client.connect(timeout=2.0)
        except ConnectionError as exc:
            refused: BaseException | None = exc
        else:
            refused = None
            reply = client.request(Ctl("stats"), timeout=2.0)
            assert await reply == Ctl("ok", {"n": 1})
            await client.close()
        for _ in range(200):
            if after or not messages:
                break
            await asyncio.sleep(0.01)
        server.close()
        await server.wait_closed()
        return refused

    refused = asyncio.run(scenario())
    return refused, seen, after[0] if after else b"?"


def test_connect_returns_once_the_node_names_itself():
    refused, seen, _ = handshake(Hello(src="p1"), Ctl("ok", {"n": 1}))
    assert refused is None
    assert seen == [Hello(src=DRIVER_ID)]


@pytest.mark.parametrize(
    "first, named",
    [(Hello(src="p9"), "node 'p9'"), (Ctl("ok"), "Ctl(op='ok', data=None)")],
    ids=["another node", "no Hello"],
)
def test_connect_refuses_any_other_first_frame(first, named):
    refused, seen, after = handshake(first)
    assert isinstance(refused, ConnectionError)
    assert "expected node 'p1'" in str(refused) and named in str(refused)
    assert seen == [Hello(src=DRIVER_ID)]
    assert after == b"", "the driver did not close the socket"


def test_connect_refuses_a_node_that_closes_without_a_word():
    refused, _, _ = handshake()
    assert isinstance(refused, ConnectionError)
    assert "but nothing answered" in str(refused)

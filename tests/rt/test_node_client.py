"""The driver's control connection refuses a self-connected socket."""

from __future__ import annotations

import asyncio
import socket

from repro.rt.cluster import NodeClient, free_port
from repro.rt.transport import DRIVER_ID, Hello
from repro.rt.wire import WireReader


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

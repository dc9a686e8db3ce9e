"""Open-loop load generation over a small pool of keep-alive connections.

Requests are dispatched on a fixed schedule whatever the server does; a
request that finds every connection busy waits for the next free one, in
due order.  Its latency is timed from when it was *due*, so a stall on
one connection shows up in the latency of every request queued behind
it.  The generator's own lateness (``lag``) and the time spent waiting
for a connection are recorded per request, so a run can tell a slow
server from a slow client.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from .spans import clock


@dataclass
class Outcome:
    """One scheduled request, as the client saw it (times in ns)."""

    index: int
    due: int
    dispatched: int = 0
    sent: int = 0
    done: int = 0
    ok: bool = False
    result: Any = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) / 1e6

    @property
    def lag_ms(self) -> float:
        return (self.dispatched - self.due) / 1e6

    @property
    def conn_wait_ms(self) -> float:
        return (self.sent - self.dispatched) / 1e6

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) / 1e6


async def open_loop(
    due_offsets_s: Sequence[float],
    connections: Sequence[Any],
    send: Callable[[Any, int], Awaitable[Any]],
) -> Tuple[int, List[Outcome]]:
    """Send request ``i`` at ``start + due_offsets_s[i]`` through ``send``.

    ``send(connection, i)`` performs one request on a free connection
    and returns its result; an exception marks the request failed.
    Returns the start time (ns) and one :class:`Outcome` per request.
    """
    loop = asyncio.get_running_loop()
    free: "asyncio.Queue[Any]" = asyncio.Queue()
    for connection in connections:
        free.put_nowait(connection)
    start = clock()
    outcomes = [Outcome(i, start + int(offset * 1e9)) for i, offset in enumerate(due_offsets_s)]
    tasks: List["asyncio.Task[None]"] = []
    paced = loop.create_future()

    async def one(outcome: Outcome) -> None:
        connection = await free.get()
        outcome.sent = clock()
        try:
            outcome.result = await send(connection, outcome.index)
            outcome.ok = True
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        finally:
            outcome.done = clock()
            free.put_nowait(connection)

    def dispatch(outcome: Outcome) -> None:
        outcome.dispatched = clock()
        tasks.append(loop.create_task(one(outcome)))

    def pace() -> None:
        # The event loop's timers wake up to a millisecond late (epoll's
        # timeout resolution); a thread sleeping on the clock keeps the
        # generator's own lateness to the loop's wake-up latency.
        try:
            for outcome in outcomes:
                delay = (outcome.due - clock()) / 1e9
                if delay > 0:
                    time.sleep(delay)
                loop.call_soon_threadsafe(dispatch, outcome)
        finally:
            loop.call_soon_threadsafe(paced.set_result, None)

    pacer = threading.Thread(target=pace, name="open-loop-pacer", daemon=True)
    pacer.start()
    try:
        await paced
        await asyncio.gather(*tasks)
    finally:
        pacer.join()
    return start, outcomes


class HttpError(Exception):
    """A non-200 answer from the daemon."""


class HttpConnection:
    """A minimal HTTP/1.1 keep-alive client connection (asyncio streams)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConnection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        return cls(reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass

    async def request(self, method: str, path: str, body: bytes = b"") -> bytes:
        """Send one request and return the body of a 200 answer."""
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if method == "POST":
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.writer.write((head + "\r\n").encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("the daemon closed the connection")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", ""):
            pieces = []
            while True:
                size = int((await self.reader.readline()).split(b";")[0].strip(), 16)
                if size == 0:
                    await self.reader.readline()
                    break
                pieces.append(await self.reader.readexactly(size))
                await self.reader.readexactly(2)
            payload = b"".join(pieces)
        else:
            payload = await self.reader.readexactly(int(headers.get("content-length", "0")))
        if status != 200:
            raise HttpError(f"HTTP {status}: {payload[:200]!r}")
        return payload

    async def post_json(self, path: str, record: Dict) -> Dict:
        return json.loads(await self.request("POST", path, json.dumps(record).encode("utf-8")))

    async def get_json(self, path: str) -> Dict:
        return json.loads(await self.request("GET", path))

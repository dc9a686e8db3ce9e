"""The serving daemon: an asyncio HTTP/1.1 front-end over the fleet.

``fps-ping serve`` answers the question an access-network operator asks
continuously — "what ping-time quantile does this pipe deliver right
now?" — as a long-running service instead of a one-shot batch call.
The daemon is stdlib-only (:func:`asyncio.start_server`, no HTTP
framework) and exposes:

``POST /v1/rtt``
    One request record (the :meth:`repro.fleet.Request.from_dict`
    JSONL fields) in, one answer object out.  Requests are routed
    through the :class:`~repro.serve.RequestCoalescer`: an answer-cache
    or certified-surface hit is answered at once, never windowed; a
    miss on an idle daemon is served at once too, while misses from
    concurrent connections arriving during an executing window are
    served together as the next stacked batch, and identical in-flight
    misses are evaluated once.

``POST /v1/admit``
    Admission control: one JSON record with an ``rtt_budget_ms`` (plus
    the scenario fields, optionally a proposed ``load`` / ``gamers``
    operating point) in, one :class:`~repro.fleet.AdmissionAnswer`
    object out — the largest load / gamer count whose ping-time
    quantile still meets the budget, and whether the proposed point is
    admitted.  ``kind`` defaults to ``"admit"`` on this endpoint.  With
    certified surfaces attached, in-region admits are answered by an
    O(1) inversion with **zero plans executed**; identical concurrent
    admits are single-flighted by the coalescer.

``POST /v1/batch``
    A JSONL body (``Content-Length`` or chunked) streamed through the
    bounded-window pipeline of :mod:`repro.serve.streams`: at most a
    few windows in flight, answers streamed back incrementally in input
    order as a chunked ``application/x-ndjson`` response — the server
    never holds the whole stream in memory, and ``await drain()`` on
    every emitted answer back-pressures serving to the client's read
    rate.

``GET /healthz``
    ``{"status": "ok"}`` while serving, ``503 {"status": "draining"}``
    once shutdown has begun.

``GET /stats``
    The :class:`~repro.fleet.FleetStats` dictionary (including the
    coalescer counters and per-host execution counters), cache
    occupancy, per-daemon HTTP counters and — when a
    :class:`~repro.executors.RemoteExecutor` is wired in — the
    per-worker-host health view.

``POST /v1/plan`` (only with ``worker_mode=True``)
    The distributed execution tier's endpoint: one
    :mod:`repro.serve.wire` plan frame in, one result (or error) frame
    out, executed on the daemon's own executor.  This is how
    ``fps-ping serve --worker-mode`` daemons serve a front-end's
    :class:`~repro.executors.RemoteExecutor`; the frames carry pickles,
    so worker daemons belong strictly inside the serving cluster's
    trust boundary.

Malformed requests — invalid JSON, unknown fields, out-of-range
parameters, unstable operating points — return a structured JSON error
``{"error": ..., "type": ...}`` with the typed
:class:`~repro.errors.ReproError` message, never a connection drop or a
traceback.  On SIGTERM/SIGINT the daemon drains gracefully: it stops
accepting connections, finishes the requests and windows in flight,
persists the warm cache (atomically) and exits.

Example::

    daemon = ServingDaemon(port=8421, warm_cache="fleet-cache.json")
    asyncio.run(daemon.run())           # Ctrl-C / SIGTERM drains and exits

    # or, embedded in an existing loop / test:
    async with ServingDaemon(port=0) as daemon:
        ...  # daemon.port holds the bound port
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, Mapping, Optional, Tuple, Union

from ..errors import ExecutorBrokenError, ReproError, WireFormatError
from ..executors.local import SerialExecutor
from ..fleet import Answer, AsyncFleet, Fleet, Request
from . import wire
from .coalescer import RequestCoalescer
from .streams import DEFAULT_MAX_INFLIGHT, stream_requests

__all__ = ["ServingDaemon", "DEFAULT_PORT"]

#: Default TCP port (no IANA meaning; "8421" ~ the paper's 4 access rates).
DEFAULT_PORT = 8421

#: Per-line / per-header buffer limit handed to the stream reader.
_LINE_LIMIT = 1 << 20

#: Blank lines tolerated before a request line (RFC 9112 section 2.2
#: asks servers to skip at least one); more is a 400.
_MAX_BLANK_LINES = 16

#: Upper bound on a non-streaming (``/v1/rtt``) body.
_MAX_BODY_BYTES = 1 << 20

#: Largest piece of a request body read at once, whatever its framing.
_BODY_PIECE_BYTES = 1 << 16

#: The characters of a chunk-size line's hex digits.
_HEX_DIGITS = b"0123456789abcdefABCDEF"

#: Upper bound on a ``/v1/plan`` frame body (worker mode); one frame
#: header plus the wire protocol's own payload bound.
_MAX_PLAN_BODY_BYTES = wire.HEADER_SIZE + wire.MAX_FRAME_BYTES

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An HTTP-level failure mapped to a structured JSON response."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


@dataclass
class _Connection:
    """Book-keeping for one open client connection."""

    writer: asyncio.StreamWriter
    busy: bool = False


def _error_payload(exc: BaseException, status: int) -> Dict[str, Any]:
    message = exc.args[0] if exc.args else str(exc)
    return {"error": str(message), "type": type(exc).__name__, "status": status}


class ServingDaemon:
    """A long-running HTTP serving daemon over one coalescing fleet.

    Parameters
    ----------
    fleet:
        An existing :class:`~repro.fleet.Fleet` /
        :class:`~repro.fleet.AsyncFleet` to serve, or ``None`` to build
        one from ``fleet_kwargs`` (``max_cache_entries``,
        ``probability``, ``method``).
    host / port:
        Bind address; ``port=0`` binds an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    executor:
        Optional :class:`~repro.executors.Executor` the windows execute
        on (e.g. a :class:`~repro.executors.ParallelExecutor`); worker
        faults surface as one retried window, not an outage.
    max_batch / coalesce_ms:
        The coalescing window (group commit): a miss arriving while no
        window executes is flushed at the end of the loop turn, with
        whatever else was read in that turn; misses arriving while a
        window executes are held until one finishes, the pending window
        holds ``max_batch`` requests, or ``coalesce_ms`` milliseconds
        have passed since it opened, whichever comes first.
    max_inflight:
        Bound on concurrently-served windows per ``/v1/batch`` stream.
    warm_cache:
        Optional cache file: loaded (if present) before the socket
        opens, written back atomically during shutdown.
    surfaces:
        Optional certified-surface document or directory
        (:func:`repro.surface.load_surfaces`), attached to the fleet
        before the socket opens so in-region requests are answered in
        O(1) with zero plans executed (``exact=true`` requests and
        out-of-region points still take the exact stacked path).
        Unlike ``warm_cache`` — which the daemon itself writes back —
        surfaces are operator-built artifacts (``fps-ping surface
        build``), so a missing or corrupt path fails startup with a
        typed :class:`~repro.errors.SurfaceFormatError` instead of
        silently serving without them.
    drain_timeout:
        Seconds to wait for in-flight connections during shutdown
        before force-closing them.
    worker_mode:
        Expose ``POST /v1/plan``: the endpoint of the distributed
        execution tier that accepts one :mod:`repro.serve.wire` plan
        frame and answers with a result (or error) frame, executing the
        plan on this daemon's executor (a private
        :class:`~repro.executors.SerialExecutor` when none is given).
        Off by default — plan frames carry pickles, so the endpoint
        must only exist on workers inside the serving cluster's trust
        boundary, never on a public front-end.
    """

    def __init__(
        self,
        fleet: Union[Fleet, AsyncFleet, None] = None,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        executor=None,
        max_batch: int = 64,
        coalesce_ms: float = 2.0,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        warm_cache: Union[str, os.PathLike, None] = None,
        surfaces: Union[str, os.PathLike, None] = None,
        drain_timeout: float = 10.0,
        worker_mode: bool = False,
        **fleet_kwargs: Any,
    ) -> None:
        if fleet is not None and fleet_kwargs:
            raise ReproError(
                "pass either an existing fleet or Fleet keyword arguments, not both"
            )
        if fleet is None:
            fleet = AsyncFleet(**fleet_kwargs)
        elif isinstance(fleet, Fleet):
            fleet = AsyncFleet(fleet)
        self.async_fleet = fleet
        self.fleet: Fleet = fleet.fleet
        self.host = host
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.warm_cache = os.fspath(warm_cache) if warm_cache is not None else None
        self.surfaces = os.fspath(surfaces) if surfaces is not None else None
        self.drain_timeout = float(drain_timeout)
        self.coalescer = RequestCoalescer(
            fleet, max_batch=max_batch, max_delay_ms=coalesce_ms, executor=executor
        )
        self.executor = executor
        self.worker_mode = bool(worker_mode)
        self._owns_plan_executor = self.worker_mode and executor is None
        self._plan_executor = (
            SerialExecutor() if self._owns_plan_executor else executor
        )
        self.warm_loaded = 0
        self.surfaces_loaded = 0
        self.connections_accepted = 0
        self.http_requests = 0
        self.http_errors = 0
        self.plans_served = 0
        self.admits_served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[asyncio.Task, _Connection] = {}
        self._draining = False
        self._started_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "draining" if self._draining else (
            "serving" if self._server else "stopped"
        )
        return f"ServingDaemon({self.host}:{self.port}, {state})"

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the cache and open the listening socket."""
        if self._server is not None:
            raise ReproError("the daemon is already started")
        if self.warm_cache is not None and os.path.exists(self.warm_cache):
            self.warm_loaded = self.fleet.warm_start(self.warm_cache)
        if self.surfaces is not None:
            # Deliberately no existence check (contrast warm_cache): a
            # typo'd --surfaces must fail startup, not silently serve
            # every request down the expensive exact path.
            self.surfaces_loaded = self.fleet.attach_surfaces(self.surfaces)
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, persist.

        Idle keep-alive connections are closed immediately; connections
        with a request in flight get ``drain_timeout`` seconds to finish
        (their coalescing windows are flushed and awaited), then the
        warm cache is written back atomically.  Idempotent.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections.values()):
            if not connection.busy:
                connection.writer.close()
        if self._connections:
            done, pending = await asyncio.wait(
                list(self._connections), timeout=self.drain_timeout
            )
            for task in pending:
                connection = self._connections.get(task)
                if connection is not None:
                    connection.writer.close()
            if pending:
                await asyncio.wait(list(pending), timeout=1.0)
        await self.coalescer.aclose()
        if self._owns_plan_executor and self._plan_executor is not None:
            self._plan_executor.close()
        if self.warm_cache is not None:
            self.fleet.save_cache(self.warm_cache)

    async def run(
        self,
        *,
        install_signal_handlers: bool = True,
        ready: Optional[asyncio.Event] = None,
    ) -> None:
        """Serve until SIGTERM/SIGINT, then drain and return.

        ``ready`` (if given) is set once the socket is bound — test and
        embedding hooks.  With ``install_signal_handlers=False`` the
        caller stops the daemon by cancelling this coroutine; the drain
        still runs.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    continue
                installed.append(signum)
        mode = " [worker mode]" if self.worker_mode else ""
        surfaces = (
            f", surfaces: {self.surfaces_loaded}" if self.surfaces is not None else ""
        )
        print(
            f"fps-ping serve: listening on http://{self.host}:{self.port} "
            f"(pid {os.getpid()}, warm entries: {self.warm_loaded}{surfaces}){mode}",
            file=sys.stderr,
            flush=True,
        )
        if ready is not None:
            ready.set()
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.shutdown()

    async def __aenter__(self) -> "ServingDaemon":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        connection = _Connection(writer=writer)
        assert task is not None
        self._connections[task] = connection
        self.connections_accepted += 1
        try:
            while not self._draining:
                head = await self._read_head(reader)
                if head is None:
                    break
                method, path, version, headers = head
                connection.busy = True
                self.http_requests += 1
                try:
                    keep_alive = await self._dispatch(
                        method, path, version, headers, reader, writer
                    )
                finally:
                    connection.busy = False
                await writer.drain()
                if not keep_alive or self._draining:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            pass
        except _HttpError as exc:
            # Unframeable request head: answer if the socket still
            # writes, then close (the stream cannot be trusted further).
            self.http_errors += 1
            try:
                self._write_json(
                    writer, exc.status, _error_payload(exc, exc.status),
                    keep_alive=False,
                )
                await writer.drain()
            except ConnectionError:  # pragma: no cover - peer gone
                pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
        """Read one request line + headers; ``None`` on clean EOF."""
        # Tolerate a few stray blank lines between pipelined requests.
        for _ in range(_MAX_BLANK_LINES + 1):
            try:
                request_line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                raise _HttpError(400, "request line too long") from exc
            if not request_line:
                return None
            if request_line.strip():
                break
        else:
            raise _HttpError(400, "too many blank lines before the request line")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].upper().startswith("HTTP/"):
            raise _HttpError(400, "malformed HTTP request line")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                raise _HttpError(400, "header line too long") from exc
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= 100:
                raise _HttpError(400, "too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        return method, target, version, headers

    # ------------------------------------------------------------------
    # Body framing
    # ------------------------------------------------------------------
    @staticmethod
    async def _iter_body(
        reader: asyncio.StreamReader, headers: Mapping[str, str]
    ) -> AsyncIterator[bytes]:
        """Yield the request body incrementally (Content-Length or chunked).

        Either way the body arrives in pieces of at most
        :data:`_BODY_PIECE_BYTES`, so a capped reader sees the cap crossed
        before a large declared chunk is buffered whole.
        """
        if "chunked" in headers.get("transfer-encoding", "").lower():
            while True:
                size_line = await reader.readline()
                digits = size_line.split(b";")[0].strip()
                # RFC 9112 chunk-size is 1*HEXDIG: no sign, prefix or "_".
                if not digits or digits.strip(_HEX_DIGITS):
                    raise _HttpError(400, "malformed chunk size")
                size = int(digits, 16)
                if size == 0:
                    while True:  # discard trailers
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                    return
                while size > 0:
                    piece = await reader.readexactly(min(_BODY_PIECE_BYTES, size))
                    size -= len(piece)
                    yield piece
                await reader.readexactly(2)  # the chunk's trailing CRLF
            return
        length_header = headers.get("content-length")
        if length_header is None:
            raise _HttpError(411, "a request body needs Content-Length or chunked encoding")
        try:
            remaining = int(length_header)
        except ValueError as exc:
            raise _HttpError(400, "malformed Content-Length") from exc
        while remaining > 0:
            chunk = await reader.read(min(_BODY_PIECE_BYTES, remaining))
            if not chunk:
                raise asyncio.IncompleteReadError(b"", remaining)
            remaining -= len(chunk)
            yield chunk

    async def _read_body(
        self,
        reader: asyncio.StreamReader,
        headers: Mapping[str, str],
        *,
        limit: int = _MAX_BODY_BYTES,
    ) -> bytes:
        """Read a small (``/v1/rtt``, ``/v1/plan``) body fully, capped."""
        pieces = []
        total = 0
        async for chunk in self._iter_body(reader, headers):
            total += len(chunk)
            if total > limit:
                raise _HttpError(413, "request body too large")
            pieces.append(chunk)
        return b"".join(pieces)

    @staticmethod
    async def _iter_body_lines(
        chunks: AsyncIterator[bytes],
    ) -> AsyncIterator[str]:
        """Split a streamed body into text lines without buffering it all."""
        buffer = b""
        async for chunk in chunks:
            buffer += chunk
            while True:
                index = buffer.find(b"\n")
                if index < 0:
                    break
                yield buffer[:index].decode("utf-8", errors="replace")
                buffer = buffer[index + 1 :]
        if buffer.strip():
            yield buffer.decode("utf-8", errors="replace")

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    @staticmethod
    def _write_head(
        writer: asyncio.StreamWriter,
        status: int,
        *,
        content_type: str = "application/json",
        content_length: Optional[int] = None,
        chunked: bool = False,
        keep_alive: bool = True,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
        ]
        if chunked:
            lines.append("Transfer-Encoding: chunked")
        elif content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any],
        *,
        keep_alive: bool = True,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._write_head(
            writer, status, content_length=len(body), keep_alive=keep_alive
        )
        writer.write(body)

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")

    def _write_frame(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        frame: bytes,
        *,
        keep_alive: bool = True,
    ) -> None:
        """Write a wire-protocol frame as an octet-stream response body."""
        self._write_head(
            writer,
            status,
            content_type="application/octet-stream",
            content_length=len(frame),
            keep_alive=keep_alive,
        )
        writer.write(frame)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        target: str,
        version: str,
        headers: Mapping[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        path = target.split("?", 1)[0]
        keep_alive = headers.get("connection", "").lower() != "close" and (
            version.upper() != "HTTP/1.0"
            or headers.get("connection", "").lower() == "keep-alive"
        )
        routes = {
            "/healthz": ("GET", self._handle_healthz),
            "/stats": ("GET", self._handle_stats),
            "/v1/rtt": ("POST", self._handle_rtt),
            "/v1/admit": ("POST", self._handle_admit),
            "/v1/batch": ("POST", self._handle_batch),
        }
        if self.worker_mode:
            routes["/v1/plan"] = ("POST", self._handle_plan)
        route = routes.get(path)
        try:
            if route is None:
                raise _HttpError(404, f"no such endpoint: {path}")
            expected_method, handler = route
            if method != expected_method:
                raise _HttpError(
                    405, f"{path} expects {expected_method}, not {method}"
                )
            return await handler(headers, reader, writer, keep_alive)
        except _HttpError as exc:
            self.http_errors += 1
            # The body (if any) was not necessarily consumed: close.
            self._write_json(
                writer, exc.status, _error_payload(exc, exc.status), keep_alive=False
            )
            return False
        except ExecutorBrokenError as exc:
            # The worker pool died twice in a row (the coalescer already
            # retried once on a fresh pool): a server-side fault.
            self.http_errors += 1
            self._write_json(writer, 500, _error_payload(exc, 500), keep_alive=False)
            return False
        except ReproError as exc:
            self.http_errors += 1
            self._write_json(
                writer, 400, _error_payload(exc, 400), keep_alive=keep_alive
            )
            return keep_alive
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort 500, never a drop
            self.http_errors += 1
            print(
                f"fps-ping serve: internal error serving {path}: {exc!r}",
                file=sys.stderr,
                flush=True,
            )
            self._write_json(
                writer, 500, _error_payload(exc, 500), keep_alive=False
            )
            return False

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_healthz(self, headers, reader, writer, keep_alive) -> bool:
        status = 503 if self._draining else 200
        payload = {"status": "draining" if self._draining else "ok"}
        self._write_json(writer, status, payload, keep_alive=keep_alive)
        return keep_alive

    async def _handle_stats(self, headers, reader, writer, keep_alive) -> bool:
        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        payload = {
            "fleet": self.fleet.stats.as_dict(),
            "cache_entries": self.fleet.cache_size(),
            "server": {
                "host": self.host,
                "port": self.port,
                "draining": self._draining,
                "uptime_s": round(uptime, 3),
                "connections_open": len(self._connections),
                "connections_accepted": self.connections_accepted,
                "http_requests": self.http_requests,
                "http_errors": self.http_errors,
                "pending_requests": self.coalescer.pending,
                "inflight_windows": self.coalescer.inflight_windows,
                "warm_loaded_entries": self.warm_loaded,
                "surfaces_loaded": self.surfaces_loaded,
                "worker_mode": self.worker_mode,
                "plans_served": self.plans_served,
                "admits_served": self.admits_served,
            },
        }
        # A RemoteExecutor in front of this fleet knows per-host health
        # and round-trip counters the fleet's folded stats cannot: the
        # operator's failover view.
        executor = self.executor
        if executor is not None and hasattr(executor, "host_stats"):
            payload["worker_hosts"] = executor.host_stats()
        self._write_json(writer, 200, payload, keep_alive=keep_alive)
        return keep_alive

    async def _handle_plan(self, headers, reader, writer, keep_alive) -> bool:
        """Execute one framed :class:`~repro.core.rtt.EvalPlan` (worker mode).

        The response is always a wire-protocol frame: a result frame
        for a completed plan, an error frame otherwise — ``400`` for a
        frame that does not decode, ``200`` for a typed error the plan
        itself raised (the front-end re-raises it in the caller), and
        ``500`` for anything unexpected.  Either way the connection
        stays usable: a worker serves many plans per keep-alive
        connection.
        """
        body = await self._read_body(reader, headers, limit=_MAX_PLAN_BODY_BYTES)
        try:
            plan = wire.decode_plan(body)
        except WireFormatError as exc:
            self.http_errors += 1
            self._write_frame(
                writer, 400, wire.encode_error(exc), keep_alive=keep_alive
            )
            return keep_alive
        try:
            results = await self._plan_executor.run_async([plan])
        except ReproError as exc:
            # A typed error the plan raised (unstable point, bad
            # parameters, a broken worker pool): the front-end's
            # decode_result re-raises it, exactly like in-process
            # execution would have.
            self._write_frame(
                writer, 200, wire.encode_error(exc), keep_alive=keep_alive
            )
            return keep_alive
        except Exception as exc:  # noqa: BLE001 - last-resort error frame
            self.http_errors += 1
            print(
                f"fps-ping serve: internal error executing a plan: {exc!r}",
                file=sys.stderr,
                flush=True,
            )
            self._write_frame(
                writer, 500, wire.encode_error(exc), keep_alive=keep_alive
            )
            return keep_alive
        self.plans_served += 1
        self._write_frame(
            writer, 200, wire.encode_result(results[0]), keep_alive=keep_alive
        )
        return keep_alive

    async def _handle_rtt(self, headers, reader, writer, keep_alive) -> bool:
        body = await self._read_body(reader, headers)
        try:
            record = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ReproError("the request body must be a JSON object")
        answer = await self.coalescer.submit(Request.from_dict(record))
        self._write_json(writer, 200, answer.to_dict(), keep_alive=keep_alive)
        return keep_alive

    async def _handle_admit(self, headers, reader, writer, keep_alive) -> bool:
        """Answer one admission-control request (``kind`` defaults to admit)."""
        body = await self._read_body(reader, headers)
        try:
            record = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ReproError("the request body must be a JSON object")
        record.setdefault("kind", "admit")
        answer = await self.coalescer.submit(Request.from_dict(record))
        self.admits_served += 1
        self._write_json(writer, 200, answer.to_dict(), keep_alive=keep_alive)
        return keep_alive

    async def _handle_batch(self, headers, reader, writer, keep_alive) -> bool:
        """Stream a JSONL body through bounded windows, answers chunked back."""
        # Validate the body framing before committing to a 200 chunked
        # response head — framing errors must still produce a clean 4xx.
        if "chunked" not in headers.get("transfer-encoding", "").lower():
            length_header = headers.get("content-length")
            if length_header is None:
                raise _HttpError(
                    411, "a batch body needs Content-Length or chunked encoding"
                )
            try:
                int(length_header)
            except ValueError as exc:
                raise _HttpError(400, "malformed Content-Length") from exc
        self._write_head(
            writer, 200, content_type="application/x-ndjson", chunked=True,
            keep_alive=keep_alive,
        )

        async def emit(answer: Answer) -> None:
            line = (json.dumps(answer.to_dict(), sort_keys=True) + "\n").encode("utf-8")
            self._write_chunk(writer, line)
            # Back-pressure: do not pull more windows than the client reads.
            await writer.drain()

        lines = self._iter_body_lines(self._iter_body(reader, headers))
        try:
            await stream_requests(
                lines,
                self.coalescer.submit_many,
                emit,
                max_batch=self.coalescer.max_batch,
                max_inflight=self.max_inflight,
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:  # noqa: BLE001 - head already sent
            # The response is already streaming: report the failure as a
            # final in-band error line, then close (the body may not
            # have been fully consumed, so the framing is unusable).
            self.http_errors += 1
            status = 400 if isinstance(exc, (ReproError, _HttpError)) else 500
            if status == 500:
                print(
                    f"fps-ping serve: internal error serving /v1/batch: {exc!r}",
                    file=sys.stderr,
                    flush=True,
                )
            message = (json.dumps(_error_payload(exc, status)) + "\n").encode("utf-8")
            self._write_chunk(writer, message)
            keep_alive = False
        self._write_chunk(writer, b"")  # terminating 0-length chunk
        return keep_alive

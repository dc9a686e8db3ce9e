"""Request coalescing: many concurrent callers, one stacked batch.

The stacking win of the cross-model inverter *grows* with batch
heterogeneity — a batch of requests spanning several scenarios costs one
joint array evaluation per search round instead of one per model.  A
long-running service therefore wants to gather the independent requests
arriving together into **one** batch before handing them to the fleet.
:class:`RequestCoalescer` does exactly that:

* a request the warm tiers can answer — an answer-cache hit, or a
  certified-surface hit for a request not marked ``exact`` — is answered
  at submission, on the loop, with ``cached=True``: it never waits out
  a window (counted in ``inline_hits``).  Only what misses there
  (including ``exact`` requests a surface would otherwise have
  answered) is windowed and single-flighted below;
* misses are flushed by **group commit** (natural batching): a miss
  arriving while no window is executing opens a pending window that
  flushes at the end of the current loop turn, so every request
  already readable in that turn — a :meth:`~RequestCoalescer.submit_many`
  burst, one probe round of an exact admit, several connections read
  together — joins it, and an idle coalescer never makes a lone miss
  wait.  Misses arriving while a window executes accumulate instead,
  and flush when an executing window finishes, when the pending window
  reaches ``max_batch`` requests, or when ``max_delay_ms`` has elapsed
  since it opened — whichever comes first.  Under load batches form by
  themselves; ``max_delay_ms`` is only the longest a miss is held;
* each flushed window is served through
  :meth:`~repro.fleet.AsyncFleet.serve_async` as a single batch, and the
  per-request answers are routed back to the awaiting callers' futures;
* identical in-flight misses are **single-flighted**: plain concurrent
  ``serve_async`` calls that miss the same operating point evaluate it
  once per overlapping batch, whereas the coalescer keys every request
  by ``(scenario cache key, gamers key, probability, method)`` plus the
  request's ``exact`` flag and attaches a request whose key is already
  being evaluated by an earlier window to that evaluation instead of
  resubmitting it — each point is evaluated exactly once per window.
  The ``exact`` flag is part of the flight key because an ``exact=True``
  request must never ride an in-flight value that a certified surface
  may have answered (within its bound, but not bit-identical);
* admission-control requests (``Request(kind="admit", ...)``) run their
  load search on the loop: a certified surface answers inline, without
  a window; an exact admit submits each Brent probe as an ordinary
  ``exact=True`` rtt request, so concurrent exact admits share
  coalescing windows, single-flights and stacked rounds with each other
  and with the rest of the stream.  Identical concurrent admits are
  single-flighted on the full admit tuple ``(scenario, method,
  probability, budget, proposed point, exact)``: they share one search,
  and the duplicates count into ``deduped_inflight`` exactly like rtt
  dedups;
* a window that dies with :class:`~repro.errors.ExecutorBrokenError`
  (a worker-pool process was killed underneath it) is retried once on
  the freshly respawned pool, so transient worker faults cost latency,
  not errors.

Bookkeeping lands in the owning fleet's :class:`~repro.fleet.FleetStats`:
``inline_hits`` requests answered at submission, ``coalesced_batches``
windows flushed, ``coalesced_requests`` requests carried by them (admit
probes included), ``deduped_inflight`` requests answered by attaching
to an in-flight evaluation.  Every fleet write happens on the loop
thread; only plan execution leaves it.

Example::

    fleet = AsyncFleet(max_cache_entries=100_000)
    coalescer = RequestCoalescer(fleet, max_batch=64, max_delay_ms=2.0)
    answer = await coalescer.submit(Request("ftth", downlink_load=0.4))
    await coalescer.aclose()        # flush + wait for in-flight windows
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..errors import ExecutorBrokenError, ReproError
from ..fleet import (
    AdmissionAnswer,
    Answer,
    AsyncFleet,
    Fleet,
    FleetStats,
    Request,
    ResolvedRequest,
    drive_async,
)

__all__ = ["RequestCoalescer"]

#: One waiting caller: the resolved request plus its answer future.
_Waiter = Tuple[ResolvedRequest, "asyncio.Future[Answer]"]

#: The single-flight key: the fleet cache key plus the exact flag (an
#: exact request must not attach to a possibly-surface-served value).
_FlightKey = Tuple[str, float, float, str, bool]

#: The admit single-flight key: the full admit tuple, so only requests
#: asking the *same* capacity question share one inversion.
_AdmitKey = Tuple[
    str, str, float, float, Optional[float], Optional[float], bool
]


def _flight_key(resolved: ResolvedRequest) -> _FlightKey:
    return (*resolved.key, resolved.exact)


def _admit_key(request: Request, scenario_key: str, probability: float, method: str) -> _AdmitKey:
    return (
        scenario_key,
        method,
        probability,
        float(request.rtt_budget_ms),
        request.downlink_load,
        request.num_gamers,
        request.exact,
    )


def _mark_retrieved(future: "asyncio.Future[Any]") -> None:
    """Consume a future's exception so an unobserved one never warns."""
    if not future.cancelled():
        future.exception()


class RequestCoalescer:
    """Gathers concurrent requests into micro-batches for one fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.fleet.AsyncFleet` (or plain
        :class:`~repro.fleet.Fleet`, which is wrapped) the windows are
        served on.
    max_batch:
        Flush the pending window once it holds this many requests.
    max_delay_ms:
        The longest a miss is held while earlier windows execute: a
        pending window opened behind an executing one flushes this many
        milliseconds after its first request arrived, even if no window
        has finished and it is not full.  A window opened while none is
        executing flushes at the end of the loop turn instead.
    executor:
        Optional :class:`~repro.executors.Executor` forwarded to
        ``serve_async`` (falls back to the async fleet's own).

    The coalescer must be used from a single event loop (the daemon's);
    it is not thread-safe, exactly like the underlying fleet.
    """

    def __init__(
        self,
        fleet: Union[Fleet, AsyncFleet, None] = None,
        *,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        executor=None,
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
        if int(max_batch) < 1:
            raise ReproError("max_batch must be at least 1")
        if float(max_delay_ms) < 0.0:
            raise ReproError("max_delay_ms must be non-negative")
        self.async_fleet = fleet
        self.fleet: Fleet = fleet.fleet
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_ms) / 1e3
        self._executor = executor
        self._pending: List[_Waiter] = []
        #: The scheduled flush of the pending window: end of the loop
        #: turn (``call_soon``) when it opened on an idle coalescer, the
        #: ``max_delay_ms`` bound (``call_later``) when it opened behind
        #: an executing window.
        self._flush_handle: Optional[asyncio.Handle] = None
        #: flight key -> future resolving to the point's rtt_quantile_s;
        #: present exactly while a window evaluating that key is in flight.
        self._inflight: Dict[_FlightKey, "asyncio.Future[float]"] = {}
        #: admit tuple -> future resolving to its AdmissionAnswer;
        #: present exactly while that capacity inversion is in flight.
        self._admit_inflight: Dict[_AdmitKey, "asyncio.Future[AdmissionAnswer]"] = {}
        self._windows: "set[asyncio.Task]" = set()
        self._closed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestCoalescer(max_batch={self.max_batch}, "
            f"max_delay_ms={1e3 * self.max_delay_s:g}, "
            f"pending={len(self._pending)}, windows={len(self._windows)})"
        )

    @property
    def stats(self) -> FleetStats:
        """The owning fleet's statistics (coalescer counters included)."""
        return self.fleet.stats

    @property
    def pending(self) -> int:
        """Requests waiting in the not-yet-flushed window."""
        return len(self._pending)

    @property
    def inflight_windows(self) -> int:
        """Windows currently being served."""
        return len(self._windows)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self, request: Union[Request, Mapping[str, Any]]
    ) -> Union[Answer, AdmissionAnswer]:
        """Queue one request and await its answer.

        Resolution and validation happen immediately — a malformed
        request raises here, in the caller, and never poisons the window
        the other callers are riding in.  A warm-tier hit is answered
        right away; otherwise the answer future resolves when the
        request's window (or the in-flight evaluation it was attached
        to) completes.  ``kind="admit"`` requests are answered
        by their load search, whose probes are submitted like any other
        request; identical concurrent admits are single-flighted and
        return one shared :class:`AdmissionAnswer`.
        """
        if self._closed:
            raise ReproError("the request coalescer is closed")
        if isinstance(request, Mapping):
            request = Request.from_dict(request)
        if request.kind == "admit":
            return await self._submit_admit(request)
        return await self._submit_rtt(request)

    async def _submit_rtt(self, request: Request) -> Answer:
        """Answer one rtt request inline from the warm tiers, or window
        (or single-flight) it; no closed check."""
        resolved = self.fleet.resolve_request(request)
        value, _ = self.fleet._probe_warm(resolved)
        if value is not None:
            self.stats.inline_hits += 1
            return resolved.answer(value, cached=True)
        inflight = self._inflight.get(_flight_key(resolved))
        if inflight is not None:
            # Single-flight: the point is being evaluated right now by
            # an earlier window; ride that evaluation instead of
            # scheduling another one.
            self.stats.deduped_inflight += 1
            value = await asyncio.shield(inflight)
            return resolved.answer(value, cached=True)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Answer]" = loop.create_future()
        self._pending.append((resolved, future))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            if self._windows:
                self._flush_handle = loop.call_later(self.max_delay_s, self._flush)
            else:
                self._flush_handle = loop.call_soon(self._flush)
        return await future

    async def _submit_admit(self, request: Request) -> AdmissionAnswer:
        """Answer one admit request, single-flighting identical ones.

        The request is resolved (and validated) synchronously so a bad
        admit raises in its own caller.  Its load search then runs on
        the loop: a surface admit finishes inline, an exact one awaits
        each Brent probe as an ``exact=True`` rtt request, windowed and
        single-flighted like any other (even after :meth:`aclose`).
        """
        item = self.fleet._resolve_admit(request)
        key = _admit_key(request, item.scenario_key, item.probability, item.method)
        inflight = self._admit_inflight.get(key)
        if inflight is not None:
            self.stats.deduped_inflight += 1
            return await asyncio.shield(inflight)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[AdmissionAnswer]" = loop.create_future()
        future.add_done_callback(_mark_retrieved)
        self._admit_inflight[key] = future
        try:
            (answer,) = await drive_async(
                self.fleet._admit_rounds([item]), self._probe_quantiles
            )
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
            raise
        else:
            if not future.done():
                future.set_result(answer)
            return answer
        finally:
            if self._admit_inflight.get(key) is future:
                del self._admit_inflight[key]

    async def _probe_quantiles(self, probes: List[Request]) -> List[float]:
        """Submit one round of admit probes; their RTT quantiles in order."""
        answers = await asyncio.gather(*(self._submit_rtt(probe) for probe in probes))
        return [answer.rtt_quantile_s for answer in answers]

    async def submit_many(
        self, requests: Iterable[Union[Request, Mapping[str, Any]]]
    ) -> List[Union[Answer, AdmissionAnswer]]:
        """Submit several requests at once; answers come in input order.

        The requests are submitted in the same loop turn, so they land in
        the same pending window (flushing it every ``max_batch``): a
        burst arriving together is stacked together.
        """
        return list(
            await asyncio.gather(*(self.submit(request) for request in requests))
        )

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Flush the pending window into a serving task (synchronous)."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending:
            return
        window, self._pending = self._pending, []
        stats = self.stats
        stats.coalesced_batches += 1
        stats.coalesced_requests += len(window)
        # Register this window's distinct keys as in flight *before* the
        # first await, so a submit racing with the flush attaches to the
        # evaluation instead of re-scheduling the point.
        loop = asyncio.get_running_loop()
        owned: Dict[_FlightKey, "asyncio.Future[float]"] = {}
        for resolved, _ in window:
            key = _flight_key(resolved)
            if key not in self._inflight:
                value_future: "asyncio.Future[float]" = loop.create_future()
                value_future.add_done_callback(_mark_retrieved)
                self._inflight[key] = value_future
                owned[key] = value_future
        task = loop.create_task(self._run_window(window, owned))
        self._windows.add(task)
        task.add_done_callback(self._window_done)

    def _window_done(self, task: "asyncio.Task") -> None:
        """A window finished: flush the misses held behind it."""
        self._windows.discard(task)
        self._flush()

    def _count_executor_failure(
        self, exc: ExecutorBrokenError, *, retrying: bool
    ) -> None:
        """Fold one executor failure into the stats and log it.

        The counter is keyed by the failed worker host when the error
        carries one (a :class:`~repro.executors.RemoteExecutor` losing a
        daemon), or ``"local"`` for an in-process pool — the per-host
        breakdown an operator needs to tell "one flaky worker box" from
        "the pool keeps dying".
        """
        host = exc.host if exc.host is not None else "local"
        failures = self.stats.executor_failures
        failures[host] = failures.get(host, 0) + 1
        stranded = "?" if exc.plan_count is None else str(exc.plan_count)
        action = (
            "retrying the window once"
            if retrying
            else "failing the window (retry already spent)"
        )
        print(
            f"fps-ping serve: executor failure on {host} "
            f"({stranded} plan(s) stranded): {exc}; {action}",
            file=sys.stderr,
            flush=True,
        )

    async def _run_window(
        self,
        window: List[_Waiter],
        owned: Dict[_FlightKey, "asyncio.Future[float]"],
    ) -> None:
        requests = [resolved.request for resolved, _ in window]
        try:
            try:
                answers = await self.async_fleet.serve_async(
                    requests, executor=self._executor
                )
            except ExecutorBrokenError as exc:
                # The dead pool (or host set) was disposed by the
                # executor; one retry runs on the freshly recovered
                # executor (same floats).
                self._count_executor_failure(exc, retrying=True)
                answers = await self.async_fleet.serve_async(
                    requests, executor=self._executor
                )
        except BaseException as exc:
            if isinstance(exc, ExecutorBrokenError):
                self._count_executor_failure(exc, retrying=False)
            for _, future in window:
                if not future.done():
                    future.set_exception(exc)
            for value_future in owned.values():
                if not value_future.done():
                    value_future.set_exception(exc)
            if isinstance(exc, asyncio.CancelledError):
                raise
        else:
            for (resolved, future), answer in zip(window, answers):
                if not future.done():
                    future.set_result(answer)
                value_future = owned.get(_flight_key(resolved))
                if value_future is not None and not value_future.done():
                    value_future.set_result(answer.rtt_quantile_s)
        finally:
            for key, value_future in owned.items():
                if self._inflight.get(key) is value_future:
                    del self._inflight[key]

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Flush the pending window and wait for every in-flight window
        and admit search (whose later probes open windows of their own).

        Errors stay with their waiters (each ``submit`` caller sees its
        own window's exception); draining itself never raises.
        """
        self._flush()
        while self._windows or self._admit_inflight:
            await asyncio.gather(
                *self._windows, *self._admit_inflight.values(), return_exceptions=True
            )

    async def aclose(self) -> None:
        """Stop accepting submissions, then :meth:`drain` (idempotent)."""
        self._closed = True
        await self.drain()

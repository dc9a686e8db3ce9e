"""The serving subsystem: production front-end over the plan/execute stack.

Three cooperating pieces turn the batch-oriented
:class:`~repro.fleet.Fleet` into a long-running, heavy-traffic service
(stdlib-only — asyncio, no HTTP framework):

* :mod:`repro.serve.coalescer` — :class:`RequestCoalescer` answers
  answer-cache and surface hits inline, gathers the concurrent misses
  into micro-batch windows (group commit: flush at the end of the loop
  turn when idle, else when a window finishes, on size or on the delay
  bound), serves each window as one stacked batch through
  :meth:`~repro.fleet.AsyncFleet.serve_async`, and single-flights
  identical in-flight misses so every operating point is evaluated
  exactly once per window;
* :mod:`repro.serve.streams` — the bounded in-flight JSONL pipeline
  (line-numbered parsing, at most a few windows in flight,
  back-pressure on the producer, in-order incremental emission) shared
  by the daemon's ``/v1/batch`` handling and the CLI's
  ``fleet``/``batch`` subcommand;
* :mod:`repro.serve.wire` — the length-prefixed plan protocol of the
  distributed execution tier: versioned frames carrying
  :class:`~repro.core.rtt.EvalPlan` units to worker daemons and
  :class:`~repro.core.rtt.PlanResult` values (or typed errors) back,
  with malformed, truncated or version-skewed frames raising
  :class:`~repro.errors.WireFormatError` instead of hanging;
* :mod:`repro.serve.daemon` — :class:`ServingDaemon`, the asyncio
  HTTP/1.1 server behind ``fps-ping serve``: ``POST /v1/rtt``,
  streaming ``POST /v1/batch``, ``GET /healthz`` / ``GET /stats``,
  ``POST /v1/plan`` in ``--worker-mode``, warm-cache load at startup,
  atomic persist and graceful drain on SIGTERM/SIGINT.

Serving runs on numpy alone: every root find is the in-repo Brent port
(:func:`repro.core.inversion._brent`), so a daemon never imports scipy
unless a request asks for ``method="chernoff"``, whose bound minimizes
with ``scipy.optimize.minimize_scalar``.  The first such request pays
scipy's one-time import (about 0.4 s on a 2-vCPU x86_64 host) and
leaves scipy resident for the daemon's life.
"""

from . import wire
from .coalescer import RequestCoalescer
from .daemon import DEFAULT_PORT, ServingDaemon
from .streams import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_INFLIGHT,
    iter_request_windows,
    parse_request_line,
    serve_jsonl,
    stream_requests,
)

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_PORT",
    "RequestCoalescer",
    "ServingDaemon",
    "iter_request_windows",
    "parse_request_line",
    "serve_jsonl",
    "stream_requests",
    "wire",
]

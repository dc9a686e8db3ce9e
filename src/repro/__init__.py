"""Ping-time modeling and access-network dimensioning for First Person
Shooter games — a reproduction of Degrande, De Vleeschauwer et al.
(CoNEXT 2006, ``conf_conext_DegrandeVKM06``).

The package is organised as follows:

* :mod:`repro.distributions` -- the distribution zoo and fitting code of
  Section 2 (Det / Ext / Erlang / lognormal / Weibull, least-squares,
  moment and tail fits);
* :mod:`repro.traffic` -- packets, traces, trace statistics and per-game
  synthetic traffic models (Tables 1-3, Figure 1);
* :mod:`repro.core` -- the queueing methodology of Section 3 (M/D/1 and
  N*D/D/1 upstream, D/E_K/1 downstream, packet-position delay, the
  Erlang-term MGF algebra of Appendix A) and the RTT model and
  dimensioning rules of Section 4 (Figures 3-4);
* :mod:`repro.netsim` -- a discrete-event simulator of the Figure 2
  access architecture used to validate the analytical model, for the
  single-server session and the multi-server mix alike;
* :mod:`repro.validate` -- the vectorized validation tier: numpy batch
  Lindley/Monte-Carlo recursions (bit-identical to the scalar loops)
  and the :class:`ValidationFleet` sweeping every registry preset x
  quantile method x load point against sampled ground truth in CI
  smoke time (``fps-ping validate``);
* :mod:`repro.scenarios` -- the unified :class:`Scenario` parameter
  type, the multi-server :class:`MixScenario` (several per-game flows
  sharing one reserved pipe, Section 3.2), the named preset registry
  (DSL / cable / FTTH / LTE profiles, per-game traffic presets and the
  ``multi-game-dsl`` mix) and parameter sweeps;
* :mod:`repro.engine` -- the :class:`Engine`: a stateless view of one
  scenario (RTT quantiles, sweeps, dimensioning, admission, simulation)
  whose exact quantiles are requests served by a :class:`Fleet`;
* :mod:`repro.fleet` -- the :class:`Fleet` serving layer: a stream of
  :class:`Request` values spanning many scenarios, planned into
  picklable evaluation units sized by a measured per-signature
  :class:`CostModel` (heterogeneous batches split into roughly
  equal-*cost* plans, not equal-count ones), executed on any
  :mod:`repro.executors` executor (in-process or a process pool; the
  :class:`AsyncFleet` facade serves asyncio callers) and assembled
  behind a shared bounded LRU cache; ``Request(kind="admit")`` turns a
  request into an admission-control question answered by inverting the
  load -> quantile relation;
* :mod:`repro.executors` -- the execute phase of the serving pipeline
  behind a transport-pluggable seam: :class:`SerialExecutor`, the
  process-parallel :class:`ParallelExecutor` and the multi-host
  :class:`RemoteExecutor` (plans fanned out to worker daemons over the
  :mod:`repro.serve.wire` protocol, with per-host health tracking and
  failover), answers bit-identical whichever executes;
* :mod:`repro.serve` -- the long-running service tier:
  :class:`RequestCoalescer` (micro-batch windows with single-flight
  dedup of identical in-flight misses), the bounded JSONL streaming
  pipeline, and :class:`ServingDaemon`, the asyncio HTTP front-end
  behind ``fps-ping serve``;
* :mod:`repro.surface` -- certified quantile surfaces: per-scenario
  Chebyshev fits of the RTT quantile over the stable (load,
  probability) region, built against the exact stacked path with a
  *certified* relative error bound, persisted as atomic JSON and
  served in O(1) by :meth:`Fleet.attach_surfaces` / ``fps-ping serve
  --surfaces`` (the fourth serving tier after cache, stack and
  fan-out);
* :mod:`repro.experiments` -- drivers that regenerate every table and
  figure of the paper and compare them against the reported values.

The scenario-first surface is the recommended entry point::

    from repro import Engine, Scenario, get_scenario

    engine = Engine(get_scenario("paper-dsl-tick40"))
    engine.rtt_quantile(0.40)     # 99.999% RTT at 40% downlink load
    engine.dimension(0.050)       # max load / gamers for RTT <= 50 ms
    engine.sweep()                # the Figure 3/4 load grid, cached

and for request streams across scenarios, the serving layer::

    from repro import Fleet, Request

    fleet = Fleet()
    fleet.serve([Request("ftth", downlink_load=0.40),
                 Request("lte", downlink_load=0.40)])

**Admission control** answers the inverse question — "can this access
profile meet a 60 ms ping budget, and for how many gamers?" — as a
first-class request kind::

    answer = fleet.admit(Request("paper-dsl", kind="admit", rtt_budget_ms=60.0,
                                 num_gamers=10))
    answer.admitted, answer.max_load, answer.max_gamers, answer.source

With certified surfaces attached (``fleet.attach_surfaces(path)``)
in-region admits invert the O(1) surface (``source == "surface"``,
zero evaluation plans executed); otherwise — or with ``exact=True`` —
the bit-identical exact search runs.  An unmeetable budget is a
negative answer (``admitted=False``), never an error.  The HTTP tier
exposes the same thing as ``POST /v1/admit`` and the CLI as ``fps-ping
admit``.

**Cost-model chunking** sizes evaluation plans from measured
per-signature cost instead of a fixed 32-model chunk: every served
batch folds its observed ``exec_s`` back into the fleet's
:class:`CostModel` (seeded with static priors, e.g. inversion cost
grows linearly with the Erlang order), so cheap signatures pack more
models per plan, expensive ones fewer, and
:class:`ParallelExecutor` dispatches plans longest-predicted-first.
Chunking, dispatch order and host placement are pure scheduling knobs:
the served floats are bit-identical for every policy, worker count and
host count.
"""

from .core import (
    DEFAULT_QUANTILE,
    AdmissionResult,
    CostModel,
    DEKOneQueue,
    DeterministicRttBound,
    DimensioningResult,
    ErlangTermSum,
    MD1Queue,
    MixFlow,
    MixPingTimeModel,
    MultiServerBurstQueue,
    PacketPositionDelay,
    PingTimeModel,
    ServerFlow,
    max_gamers,
    max_tolerable_load,
)
from .engine import Engine
from .errors import (
    CacheFormatError,
    ExecutorBrokenError,
    ExecutorTimeoutError,
    ReproError,
    SurfaceFormatError,
    WireFormatError,
)
from .executors import Executor, ParallelExecutor, RemoteExecutor, SerialExecutor
from .fleet import (
    AdmissionAnswer,
    Answer,
    AsyncFleet,
    Fleet,
    FleetStats,
    Request,
    ResolvedRequest,
)
from .serve import RequestCoalescer, ServingDaemon
from .surface import (
    QuantileSurface,
    SurfaceIndex,
    build_surface,
    build_surfaces,
    load_surfaces,
    save_surfaces,
)
from .validate import ValidationFleet, ValidationReport
from .scenarios import (
    SCENARIO_PRESETS,
    MixComponent,
    MixScenario,
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_from_spec,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionAnswer",
    "AdmissionResult",
    "Answer",
    "AsyncFleet",
    "CacheFormatError",
    "CostModel",
    "DEFAULT_QUANTILE",
    "DEKOneQueue",
    "DeterministicRttBound",
    "DimensioningResult",
    "Engine",
    "ErlangTermSum",
    "Executor",
    "ExecutorBrokenError",
    "ExecutorTimeoutError",
    "Fleet",
    "FleetStats",
    "MD1Queue",
    "MixComponent",
    "MixFlow",
    "MixPingTimeModel",
    "MixScenario",
    "MultiServerBurstQueue",
    "PacketPositionDelay",
    "ParallelExecutor",
    "PingTimeModel",
    "QuantileSurface",
    "RemoteExecutor",
    "ReproError",
    "Request",
    "RequestCoalescer",
    "ResolvedRequest",
    "SerialExecutor",
    "ServingDaemon",
    "ServerFlow",
    "SurfaceFormatError",
    "SurfaceIndex",
    "ValidationFleet",
    "ValidationReport",
    "WireFormatError",
    "SCENARIO_PRESETS",
    "Scenario",
    "available_scenarios",
    "build_surface",
    "build_surfaces",
    "get_scenario",
    "load_surfaces",
    "max_gamers",
    "max_tolerable_load",
    "register_scenario",
    "save_surfaces",
    "scenario_from_spec",
    "__version__",
]

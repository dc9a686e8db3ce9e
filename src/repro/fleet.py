"""Request-level serving of RTT lookups across many scenarios.

The dimensioning question of the paper, asked at production scale, is a
**stream of requests** spanning many scenarios at once ("the 99.999%
ping time of preset X at load y", millions of times, across the whole
preset catalogue).  :class:`Fleet` is the entry point for that workload,
and the one owner of exact quantiles in the package —
:class:`~repro.engine.Engine` is a stateless per-scenario view whose
every quantile is an ``exact=True`` request to a fleet:

* requests are plain :class:`Request` values (or JSONL dictionaries, see
  the CLI's ``fleet`` subcommand) naming a scenario — preset name,
  ``Scenario`` object, parameter mapping or JSON file path — plus an
  operating point (downlink load or gamer count) and optional
  per-request quantile level and method;
* :meth:`Fleet.serve` answers a whole batch in one pass: requests are
  keyed by :meth:`Scenario.cache_key` and the rounded gamer count,
  answered from a **shared bounded LRU cache** (or an attached certified
  surface) when possible, and the misses of every method are
  evaluated together through the stacked cross-model inverter
  (:class:`~repro.core.rtt.QueueingMgfStack`), so a heterogeneous
  multi-scenario batch costs one joint array evaluation per search
  round instead of one per model — with floats identical to the scalar
  ``model.rtt_quantile``;
* serving is split into three explicit phases — **plan** (compile the
  batch's cache misses into picklable, self-contained
  :class:`~repro.core.rtt.EvalPlan` units, one chunk per
  factor-signature group), **execute** (run the plans on any
  :class:`~repro.executors.Executor` — in-process by default, or a
  :class:`~repro.executors.ParallelExecutor` process pool via
  ``serve(..., executor=...)``) and **assemble** (merge the partial
  results back through the shared cache, folding each plan's own
  counters into :class:`FleetStats`) — with floats bit-identical for
  every executor and worker count;
* ``kind="admit"`` requests invert the load -> quantile relation
  (:func:`~repro.core.dimensioning.admission_search`): a certified
  surface answers in O(1) when it brackets the budget; otherwise each
  admit's Brent search yields probe loads that are served as ordinary
  exact requests, every round of the batch's searches one batch through
  the same cache and plan path (and counted in :class:`FleetStats`);
* the cache has a configurable entry budget; insertions beyond it evict
  the least-recently-used answers, and every cache event is surfaced in
  :class:`FleetStats`;
* :meth:`Fleet.save_cache` / :meth:`Fleet.warm_start` persist and
  restore the answer cache as JSON keyed by ``Scenario.cache_key()``,
  so repeated CLI/CI runs start warm (floats round-trip exactly);
  corrupted or mismatched cache files raise the typed
  :class:`~repro.errors.CacheFormatError` naming the offending key;
* :class:`AsyncFleet` wraps the same pipeline for long-running asyncio
  services: ``await fleet.serve_async(...)`` keeps the event loop free
  while the plans execute on a thread or process pool.  Planning,
  assembly and every admit's search run on the loop thread, so the
  loop is the fleet's one writer.

Example::

    from repro import Fleet, ParallelExecutor, Request

    fleet = Fleet(max_cache_entries=10_000)
    answers = fleet.serve([
        Request("paper-dsl", downlink_load=0.40),
        Request("ftth", downlink_load=0.40),
        Request("lte", num_gamers=120.0, probability=0.9999),
    ])
    answers[0].rtt_quantile_ms
    with ParallelExecutor(workers=4) as executor:   # same floats, N cores
        fleet.serve(more_requests, executor=executor)
    fleet.stats.as_dict()
"""

from __future__ import annotations

import asyncio
import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .core.dimensioning import AdmissionResult, admission_search
from .core.inversion import Search, drive, lockstep
from .core.rtt import (
    DEFAULT_QUANTILE,
    QUANTILE_METHODS,
    CostModel,
    EvalPlan,
    PlanResult,
    compile_eval_plans,
    execute_plan,
    plan_signature,
)
from .errors import (
    CacheFormatError,
    ExecutorBrokenError,
    ParameterError,
    ReproError,
    StabilityError,
)
from .persist import atomic_write_text
from .scenarios.base import Scenario
from .scenarios.mix import MixScenario
from .scenarios.registry import scenario_from_spec
from .surface import QuantileSurface, SurfaceIndex, load_surfaces

__all__ = [
    "Request",
    "ResolvedRequest",
    "Answer",
    "AdmissionAnswer",
    "FleetStats",
    "Fleet",
    "AsyncFleet",
]

#: Any of: a preset name / JSON file path, a (mix) scenario, or a
#: parameter mapping (mappings tagged ``"type": "mix"`` resolve to
#: :class:`~repro.scenarios.mix.MixScenario`).
ScenarioSpec = Union[str, Scenario, MixScenario, Mapping[str, Any]]

#: Accepted spellings of the Request JSONL fields (CLI request files).
_REQUEST_KEYS = {
    "scenario": "scenario",
    "load": "downlink_load",
    "downlink_load": "downlink_load",
    "gamers": "num_gamers",
    "num_gamers": "num_gamers",
    "probability": "probability",
    "method": "method",
    "exact": "exact",
    "tag": "tag",
    "kind": "kind",
    "rtt_budget_ms": "rtt_budget_ms",
    "budget_ms": "rtt_budget_ms",
}

#: Request kinds the serving layers understand.
_REQUEST_KINDS = ("rtt", "admit")


@dataclass(frozen=True)
class Request:
    """One serving request: a scenario plus what is asked of it.

    The default ``kind="rtt"`` is an RTT-quantile lookup at an
    operating point: exactly one of ``downlink_load`` (on the
    bottleneck link, in (0, 1)) and ``num_gamers`` (>= 1) must be
    given.  ``probability`` and ``method`` default to the owning
    :class:`Fleet`'s values; ``tag`` is an opaque caller identifier
    echoed in the :class:`Answer`.

    ``kind="admit"`` is the admission-control question (Section 4
    served online): it requires ``rtt_budget_ms`` (> 0) and takes *at
    most* one of ``downlink_load`` / ``num_gamers`` as the proposed
    operating point — omitted, the request asks only for the capacity
    under the budget.  Answered with an :class:`AdmissionAnswer`.

    ``exact=True`` demands the exact stacked-path floats: the request
    bypasses any attached certified surface (an ``"rtt"`` request still
    uses the answer cache, which only ever holds exact values).
    """

    scenario: ScenarioSpec
    downlink_load: Optional[float] = None
    num_gamers: Optional[float] = None
    probability: Optional[float] = None
    method: Optional[str] = None
    exact: bool = False
    tag: Optional[str] = None
    kind: str = "rtt"
    rtt_budget_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _REQUEST_KINDS:
            raise ParameterError(
                f"kind must be one of {_REQUEST_KINDS}; got {self.kind!r}"
            )
        if self.kind == "admit":
            if self.rtt_budget_ms is None:
                raise ParameterError("an admit request needs rtt_budget_ms=")
            if not float(self.rtt_budget_ms) > 0.0:
                raise ParameterError("rtt_budget_ms must be positive")
            if self.downlink_load is not None and self.num_gamers is not None:
                raise ParameterError(
                    "an admit request takes at most one of downlink_load= "
                    "or num_gamers= (the proposed operating point)"
                )
        else:
            if self.rtt_budget_ms is not None:
                raise ParameterError('rtt_budget_ms= requires kind="admit"')
            if (self.downlink_load is None) == (self.num_gamers is None):
                raise ParameterError(
                    "a Request needs exactly one of downlink_load= or num_gamers="
                )
        if not isinstance(self.exact, bool):
            raise ParameterError("exact must be a boolean")
        if self.downlink_load is not None and not 0.0 < float(self.downlink_load) < 1.0:
            raise ParameterError("downlink_load must lie in (0, 1)")
        if self.num_gamers is not None and float(self.num_gamers) < 1.0:
            raise ParameterError("num_gamers must be at least 1")
        if self.probability is not None and not 0.0 < float(self.probability) < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        if self.method is not None and self.method not in QUANTILE_METHODS:
            raise ParameterError(
                f"method must be one of {QUANTILE_METHODS}; got {self.method!r}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Request":
        """Build a request from a JSONL record.

        ``load``/``gamers`` are accepted as short spellings of
        ``downlink_load``/``num_gamers`` (and ``budget_ms`` of
        ``rtt_budget_ms``); unknown keys raise so typos in request
        files do not pass silently.
        """
        unknown = sorted(set(data) - set(_REQUEST_KEYS))
        if unknown:
            raise ParameterError(
                f"unknown request field(s) {unknown}; known: {sorted(set(_REQUEST_KEYS))}"
            )
        if "scenario" not in data:
            raise ParameterError("a request record needs a 'scenario' field")
        kwargs: Dict[str, Any] = {}
        for key, value in data.items():
            name = _REQUEST_KEYS[key]
            if name in kwargs:
                raise ParameterError(
                    f"request field {key!r} conflicts with another spelling of {name!r}"
                )
            kwargs[name] = value
        for name in ("downlink_load", "num_gamers", "probability", "rtt_budget_ms"):
            if kwargs.get(name) is not None:
                try:
                    kwargs[name] = float(kwargs[name])
                except (TypeError, ValueError) as exc:
                    raise ParameterError(
                        f"request field {name!r} must be a number: {exc}"
                    ) from exc
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-ready dictionary view (omits unset fields)."""
        scenario = self.scenario
        if isinstance(scenario, (Scenario, MixScenario)):
            scenario = scenario.to_dict()
        out: Dict[str, Any] = {"scenario": scenario}
        if self.kind != "rtt":
            out["kind"] = self.kind
        for name in (
            "downlink_load",
            "num_gamers",
            "probability",
            "method",
            "tag",
            "rtt_budget_ms",
        ):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.exact:
            out["exact"] = True
        return out


@dataclass(frozen=True)
class Answer:
    """The served result of one :class:`Request` (all delays in seconds)."""

    scenario_key: str
    num_gamers: float
    downlink_load: float
    uplink_load: float
    probability: float
    method: str
    rtt_quantile_s: float
    cached: bool
    tag: Optional[str] = None

    @property
    def rtt_quantile_ms(self) -> float:
        return 1e3 * self.rtt_quantile_s

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-ready dictionary view."""
        out: Dict[str, Any] = {
            "scenario_key": self.scenario_key,
            "num_gamers": self.num_gamers,
            "downlink_load": self.downlink_load,
            "uplink_load": self.uplink_load,
            "probability": self.probability,
            "method": self.method,
            "rtt_quantile_s": self.rtt_quantile_s,
            "rtt_quantile_ms": self.rtt_quantile_ms,
            "cached": self.cached,
        }
        if self.tag is not None:
            out["tag"] = self.tag
        return out


@dataclass(frozen=True)
class AdmissionAnswer:
    """The served result of one ``kind="admit"`` :class:`Request`.

    Wraps the :class:`~repro.core.dimensioning.AdmissionResult` verdict
    with the serving context (scenario key, method, echoed ``tag``) so
    it slots into the same JSONL answer streams as :class:`Answer`.
    """

    scenario_key: str
    method: str
    result: AdmissionResult
    tag: Optional[str] = None

    @property
    def admitted(self) -> bool:
        return self.result.admitted

    @property
    def max_load(self) -> float:
        return self.result.max_load

    @property
    def max_gamers(self) -> int:
        return self.result.max_gamers

    @property
    def source(self) -> str:
        return self.result.source

    @property
    def probability(self) -> float:
        return self.result.probability

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-ready dictionary view."""
        out: Dict[str, Any] = {
            "kind": "admit",
            "scenario_key": self.scenario_key,
            "method": self.method,
        }
        out.update(self.result.to_dict())
        if self.tag is not None:
            out["tag"] = self.tag
        return out


@dataclass
class FleetStats:
    """Cache and evaluation bookkeeping of one :class:`Fleet`.

    ``requests`` counts every request served, admits' probes included:
    an exact admit adds one request for itself (also counted in
    ``admits``) plus one ``exact=True`` rtt request per load its search
    probes, which land in ``cache_hits`` / ``cache_misses``,
    ``evaluations`` and ``plans_executed`` like any other request.

    ``evaluations`` and ``stacked_mgf_calls`` are folded from the
    executed plans' own :class:`~repro.core.rtt.PlanResult` counters, so
    they are exact whether the plans ran in-process or on a process
    pool; ``plans_executed`` / ``remote_plans`` tell the two apart.

    The ``inline_hits`` / ``coalesced_*`` / ``deduped_inflight``
    counters are incremented by a :class:`~repro.serve.RequestCoalescer`
    gathering concurrent callers into micro-batches in front of this
    fleet.  ``inline_hits`` requests were answered at submission from
    the answer cache or a certified surface, without a window (also
    counted in ``cache_hits`` / ``surface_hits``).  The windows carry
    only what missed at submission: ``coalesced_batches`` windows were
    flushed carrying ``coalesced_requests`` requests in total, and
    ``deduped_inflight`` requests were answered by attaching to an
    identical operating point already being evaluated by an earlier
    window (single-flight) instead of evaluating it again.  Every
    coalescer submission (admit probes included) lands in exactly one of
    ``inline_hits``, ``coalesced_requests``, ``deduped_inflight`` and
    ``admits``.

    ``hosts`` breaks the executed plans down by worker host when a
    :class:`~repro.executors.RemoteExecutor` served them (each
    :class:`~repro.core.rtt.PlanResult` comes back stamped with the
    host that ran it, its wire round-trip time and how many times the
    plan was redispatched after a host failure); ``executor_failures``
    counts :class:`~repro.errors.ExecutorBrokenError` occurrences per
    host (``"local"`` for an in-process pool), incremented by the
    request coalescer's retry path.
    """

    requests: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Certified-surface triage (see :mod:`repro.surface`): requests
    #: answered by an attached surface in O(1), requests whose
    #: (scenario, method) had no surface at all, and requests a surface
    #: existed for but declined (exact floats requested, operating
    #: point outside the certified region, or bound too loose).
    surface_hits: int = 0
    surface_misses: int = 0
    surface_fallbacks: int = 0
    evictions: int = 0
    evaluations: int = 0
    stacked_mgf_calls: int = 0
    #: Evaluation plans executed on behalf of this fleet, and how many
    #: of them ran outside the serving process (a worker pool).
    plans_executed: int = 0
    remote_plans: int = 0
    warm_loaded: int = 0
    #: Request-coalescing counters (see :class:`repro.serve.RequestCoalescer`).
    inline_hits: int = 0
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    deduped_inflight: int = 0
    #: host -> {"plans", "redispatches", "wire_s"} for remotely-served
    #: plans (folded from PlanResult transport metadata).
    hosts: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: host ("local" for in-process pools) -> ExecutorBrokenError count.
    executor_failures: Dict[str, int] = field(default_factory=dict)
    #: Observed execution cost per factor-signature group:
    #: :func:`~repro.core.rtt.plan_signature` label -> {"plans", "models",
    #: "exec_s"} folded from each executed plan's ``exec_s`` stamp.  The
    #: measured grounding for cost-model plan chunking: exec_s / models
    #: is the observed per-model cost of that signature.
    plan_costs: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Admission-control requests served, split by which tier inverted
    #: the load→quantile relation: ``admit_surface`` through a certified
    #: surface's O(1) lookup (zero evaluation plans executed),
    #: ``admit_exact`` through exact probe requests.
    admits: int = 0
    admit_surface: int = 0
    admit_exact: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Every counter, nested mappings copied (JSON-ready)."""
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the cache (0 when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


#: A fully-resolved cache key: (scenario key, gamers key, probability, method).
_CacheKey = Tuple[str, float, float, str]


def gamers_key(num_gamers: float) -> float:
    """Float-stable cache key for an operating point (its gamer count)."""
    return round(float(num_gamers), 9)


@dataclass(frozen=True)
class ResolvedRequest:
    """A :class:`Request` resolved against its scenario and fleet defaults.

    Produced by :meth:`Fleet.resolve_request` — the validation step of
    the plan phase, shared with the request coalescer
    (:class:`repro.serve.RequestCoalescer`) so both derive the exact
    same cache key ``(scenario key, gamers key, probability, method)``
    for a request.  Resolution never mutates fleet state.
    """

    request: Request
    scenario: Scenario
    num_gamers: float
    downlink_load: float
    uplink_load: float
    probability: float
    method: str
    key: _CacheKey
    #: Exact stacked-path floats demanded (bypasses certified surfaces).
    exact: bool = False

    def answer(self, rtt_quantile_s: float, *, cached: bool) -> Answer:
        """Materialize the :class:`Answer` for a served quantile value."""
        return Answer(
            scenario_key=self.key[0],
            num_gamers=self.num_gamers,
            downlink_load=self.downlink_load,
            uplink_load=self.uplink_load,
            probability=self.probability,
            method=self.method,
            rtt_quantile_s=rtt_quantile_s,
            cached=cached,
            tag=self.request.tag,
        )


#: Magic header of the persisted cache files.
_CACHE_FORMAT = "repro-fleet-cache"
_CACHE_VERSION = 1


@dataclass
class _BatchPlan:
    """The planned form of one request batch (phase-1 output).

    ``values`` arrives pre-filled with the cache hits; ``eval_plans``
    holds the compiled work units for the distinct misses and
    ``plan_keys`` maps each plan's positions back to the cache keys the
    assembly phase stores the results under.
    """

    resolved: List[ResolvedRequest]
    cached_flags: List[bool]
    values: Dict[_CacheKey, float]
    eval_plans: List[EvalPlan]
    plan_keys: List[List[_CacheKey]]


def _merge(
    requests: Sequence[Request],
    admit_answers: Iterable[AdmissionAnswer],
    rtt_answers: Iterable[Answer],
) -> List[Union[Answer, AdmissionAnswer]]:
    """Interleave the partitioned answers back into request order."""
    admit_answers, rtt_answers = iter(admit_answers), iter(rtt_answers)
    return [
        next(admit_answers) if request.kind == "admit" else next(rtt_answers)
        for request in requests
    ]


async def drive_async(search: Search[Any], evaluate) -> Any:
    """:func:`~repro.core.inversion.drive` for an async ``evaluate``."""
    try:
        point = next(search)
        while True:
            point = search.send(await evaluate(point))
    except StopIteration as stop:
        return stop.value


@dataclass(frozen=True)
class _ResolvedAdmit:
    """An admit question resolved against its scenario and defaults
    (the arguments of :func:`~repro.core.dimensioning.admission_search`)."""

    scenario: Scenario
    scenario_key: str
    rtt_budget_s: float
    probability: float
    method: str
    exact: bool = False
    load: Optional[float] = None
    num_gamers: Optional[float] = None
    tag: Optional[str] = None
    load_resolution: float = 1e-3
    max_load_ceiling: float = 0.98


class Fleet:
    """Serves RTT-quantile and admit requests through one shared cache.

    Parameters
    ----------
    max_cache_entries:
        Entry budget of the shared answer cache; insertions beyond it
        evict the least-recently-used entries (``stats.evictions``).
        Recomputing an evicted answer returns the bit-identical float.
    probability / method:
        Defaults applied to requests that do not carry their own.
    cost_model:
        The :class:`~repro.core.rtt.CostModel` sizing compiled plans
        (default: a fresh one seeded with static priors).  Every
        executed plan's measured ``exec_s`` is folded back by the
        assembly phase, so heterogeneous batches converge on
        equal-cost chunks; the model is lent to executors exposing a
        ``cost_model`` attribute (LPT dispatch).  Purely a scheduling
        knob: any cost model yields bit-identical floats.
    """

    def __init__(
        self,
        max_cache_entries: int = 100_000,
        *,
        probability: float = DEFAULT_QUANTILE,
        method: str = "inversion",
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if int(max_cache_entries) < 1:
            raise ParameterError("max_cache_entries must be at least 1")
        if not 0.0 < probability < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        if method not in QUANTILE_METHODS:
            raise ParameterError(
                f"method must be one of {QUANTILE_METHODS}; got {method!r}"
            )
        self.max_cache_entries = int(max_cache_entries)
        self.probability = float(probability)
        self.method = method
        self.cost_model = CostModel() if cost_model is None else cost_model
        self.stats = FleetStats()
        self._cache: "OrderedDict[_CacheKey, float]" = OrderedDict()
        #: scenario key -> Scenario of the cached answers (needed to
        #: persist cache entries); pruned as their answers are evicted.
        self._scenarios: Dict[str, Scenario] = {}
        #: Certified surfaces (None until attach_surfaces); surface
        #: answers are never stored into the exact answer cache.
        self._surfaces: Optional[SurfaceIndex] = None
        self._surface_max_bound: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fleet(max_cache_entries={self.max_cache_entries}, "
            f"cached={len(self._cache)})"
        )

    # ------------------------------------------------------------------
    # Scenarios
    # ------------------------------------------------------------------
    @staticmethod
    def resolve_scenario(spec: ScenarioSpec):
        """Resolve a request's scenario spec to a (mix) scenario.

        An unknown preset name is a bad *request*, not a lookup
        programming error: it raises :class:`~repro.errors.ParameterError`
        so serving layers can map it to a client error.
        """
        if isinstance(spec, (Scenario, MixScenario)):
            return spec
        if isinstance(spec, Mapping):
            return Scenario.from_dict(spec)
        try:
            return scenario_from_spec(spec)
        except KeyError as exc:
            raise ParameterError(f"unknown scenario: {exc.args[0]}") from exc

    def engine(self, spec: ScenarioSpec):
        """An :class:`~repro.engine.Engine` view of a scenario on this fleet."""
        from .engine import Engine

        return Engine(
            self.resolve_scenario(spec),
            probability=self.probability,
            method=self.method,
            fleet=self,
        )

    def resolve_request(
        self, request: Union[Request, Mapping[str, Any]]
    ) -> ResolvedRequest:
        """Resolve and validate one request without touching fleet state.

        Applies this fleet's default ``probability``/``method``, derives
        the operating point (gamers <-> load, eq. 37) and checks
        downlink and uplink stability, raising
        :class:`~repro.errors.ParameterError` /
        :class:`~repro.errors.StabilityError` on a bad request.  The
        returned :class:`ResolvedRequest` carries the canonical cache
        key under which the answer is (or will be) stored.
        """
        if not isinstance(request, Request):
            request = Request.from_dict(request)
        scenario = self.resolve_scenario(request.scenario)
        scenario_key = scenario.cache_key()
        if request.num_gamers is not None:
            num_gamers = float(request.num_gamers)
        else:
            num_gamers = scenario.gamers_at_load(float(request.downlink_load))
            if num_gamers < 1.0:
                raise ParameterError(
                    f"load {float(request.downlink_load):.3f} corresponds to "
                    "fewer than one gamer"
                )
        downlink_load = scenario.load_for_gamers(num_gamers)
        if downlink_load >= 1.0:
            raise StabilityError(
                downlink_load, "downlink load on the aggregation link >= 1"
            )
        uplink_load = scenario.uplink_load_for(downlink_load)
        if uplink_load >= 1.0:
            raise StabilityError(
                uplink_load, "uplink load on the aggregation link >= 1"
            )
        probability = (
            self.probability if request.probability is None else float(request.probability)
        )
        method = self.method if request.method is None else request.method
        key: _CacheKey = (
            scenario_key,
            gamers_key(num_gamers),
            probability,
            method,
        )
        return ResolvedRequest(
            request=request,
            scenario=scenario,
            num_gamers=num_gamers,
            downlink_load=downlink_load,
            uplink_load=uplink_load,
            probability=probability,
            method=method,
            key=key,
            exact=request.exact,
        )

    # ------------------------------------------------------------------
    # Certified surfaces (the O(1) warm tier; see repro.surface)
    # ------------------------------------------------------------------
    @property
    def surfaces(self) -> Optional[SurfaceIndex]:
        """The attached certified surfaces, or ``None``."""
        return self._surfaces

    def attach_surfaces(
        self,
        surfaces: Union[str, Path, QuantileSurface, SurfaceIndex, Iterable[QuantileSurface]],
        *,
        max_bound: Optional[float] = None,
    ) -> int:
        """Attach certified surfaces for O(1) in-region serving.

        ``surfaces`` is a :class:`~repro.surface.SurfaceIndex`, a single
        :class:`~repro.surface.QuantileSurface`, an iterable of them, or
        a path to a surface document / directory (loaded through
        :func:`repro.surface.load_surfaces`, so corrupt files raise
        :class:`~repro.errors.SurfaceFormatError`).  Repeated calls
        merge; a surface for an already-attached (scenario, method)
        replaces the previous one.  Returns the number of surfaces
        attached by this call.

        ``max_bound``, when given, caps the certified relative error
        this fleet will serve from a surface: any surface whose stored
        bound is looser falls back to the exact path (counted in
        ``stats.surface_fallbacks``).  The cap applies to every
        attached surface, including earlier calls' — it is fleet
        policy, not a per-file property.

        Surface answers never enter the exact answer cache (and are
        therefore never persisted by :meth:`save_cache`); requests with
        ``exact=True``, out-of-region operating points and uncovered
        (scenario, method) pairs are served by the exact stacked path,
        bit-identically to a fleet without surfaces.
        """
        if isinstance(surfaces, (str, Path)):
            surfaces = load_surfaces(surfaces)
        if isinstance(surfaces, QuantileSurface):
            surfaces = [surfaces]
        if self._surfaces is None:
            self._surfaces = SurfaceIndex()
        count = 0
        for surface in surfaces:
            self._surfaces.add(surface)
            count += 1
        if max_bound is not None:
            if not max_bound > 0.0:
                raise ParameterError("max_bound must be positive")
            self._surface_max_bound = float(max_bound)
        return count

    def surface_for(self, scenario_key: str, method: str) -> Optional[QuantileSurface]:
        """The attached surface this fleet serves for (scenario, method).

        ``None`` when no surface is attached for the pair or the
        fleet's ``max_bound`` caps it out.
        """
        if self._surfaces is None:
            return None
        surface = self._surfaces.get(scenario_key, method)
        if surface is None or (
            self._surface_max_bound is not None
            and surface.certified_rel_bound > self._surface_max_bound
        ):
            return None
        return surface

    # ------------------------------------------------------------------
    # The shared bounded cache
    # ------------------------------------------------------------------
    def cache_size(self) -> int:
        """Number of answers currently held by the shared cache."""
        return len(self._cache)

    def cached_keys(self) -> List[_CacheKey]:
        """The cache keys in LRU order (least recently used first)."""
        return list(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached answer and scenario (stats are kept)."""
        self._cache.clear()
        self._scenarios.clear()

    def _prune_scenarios(self) -> None:
        """Drop scenarios no longer referenced by a cache entry.

        The scenario map exists so :meth:`save_cache` can persist the
        parameters behind every cached answer; once the last answer of
        a scenario has been evicted, keeping it would be an unbounded
        leak under a many-scenario request stream.  The map never holds
        more scenarios than the cache holds entries, so the scan runs
        only once unreferenced scenarios outnumber the cached answers.
        """
        if len(self._scenarios) <= len(self._cache):
            return
        referenced = {key[0] for key in self._cache}
        for scenario_key in [k for k in self._scenarios if k not in referenced]:
            del self._scenarios[scenario_key]

    def _store(self, key: _CacheKey, value: float) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_cache_entries:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Serving: plan -> execute -> assemble
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Iterable[Union[Request, Mapping[str, Any]]],
        *,
        executor=None,
    ) -> List[Answer]:
        """Answer a batch of requests in one pass, in request order.

        A thin driver over the three serving phases: the batch is
        **planned** (requests resolved, sharded by scenario key, probed
        against the shared cache; the distinct misses of each method
        compiled into picklable
        :class:`~repro.core.rtt.EvalPlan` units, one chunk per
        factor-signature group), the plans are **executed** — in-process
        when ``executor`` is omitted, or on any
        :class:`~repro.executors.Executor` such as a
        :class:`~repro.executors.ParallelExecutor` process pool — and
        the partial results are **assembled** back through the shared
        cache with each plan's counters folded into :attr:`stats`.
        Duplicate operating points within the batch are evaluated once;
        every answer carries ``cached`` telling whether it was served
        without any evaluation.  The floats are bit-identical for every
        executor and worker count (and to the scalar
        ``model.rtt_quantile``).

        ``kind="admit"`` requests ride the same stream: they are
        partitioned out before planning and answered with an
        :class:`AdmissionAnswer` each — from a certified surface where
        one brackets the budget; otherwise their load searches run in
        lockstep, each round's probes served as one batch on the same
        ``executor`` — then merged back in request order.
        """
        materialized = [
            request if isinstance(request, Request) else Request.from_dict(request)
            for request in requests
        ]
        # Validate the admits before any serving state mutates, matching
        # _plan_batch's all-or-nothing contract for the rtt partition.
        admits = [self._resolve_admit(r) for r in materialized if r.kind == "admit"]
        batch_plan = self._plan_batch([r for r in materialized if r.kind != "admit"])
        results = self._execute_plans(batch_plan.eval_plans, executor)
        answers = self._assemble(batch_plan, results)
        if not admits:
            return answers
        admit_answers = drive(
            self._admit_rounds(admits), lambda probes: self._quantiles(probes, executor)
        )
        return _merge(materialized, admit_answers, answers)

    def _probe_warm(
        self, item: ResolvedRequest
    ) -> Tuple[Optional[float], Optional[str]]:
        """Triage one resolved request against the warm tiers.

        Returns ``(value, outcome)``.  The exact answer cache wins over
        a surface (its floats are exact); surface answers never enter
        that cache.  A hit — ``value`` set, ``outcome`` ``None`` for the
        cache and ``"hit"`` for a surface — is counted here, once
        (``requests`` plus ``cache_hits`` or ``surface_hits``; a cache
        hit also refreshes its LRU recency).  A non-hit returns ``value``
        ``None`` with the surface outcome (``"miss"``, ``"fallback"``,
        or ``None`` without surfaces) and counts nothing: whoever serves
        the miss counts it.  Shared by :meth:`_plan_batch` and the
        request coalescer's inline hit path.
        """
        key = item.key
        value = self._cache.get(key)
        if value is not None:
            self._cache.move_to_end(key)
            self.stats.requests += 1
            self.stats.cache_hits += 1
            return value, None
        if self._surfaces is None:
            return None, None
        value, outcome = self._surfaces.probe(
            key[0],
            item.method,
            item.downlink_load,
            item.probability,
            exact=item.exact,
            max_bound=self._surface_max_bound,
        )
        if outcome == "hit":
            self.stats.requests += 1
            self.stats.surface_hits += 1
        return value, outcome

    def _plan_batch(
        self, requests: Iterable[Union[Request, Mapping[str, Any]]]
    ) -> "_BatchPlan":
        """Phase 1: resolve, probe the cache and compile the miss plans.

        Every request of the batch is resolved and validated —
        operating-point range and downlink/uplink stability — *before*
        any serving state (statistics, scenarios, cache recency) is
        touched, so a batch poisoned by one bad request raises without
        mutating the fleet: counters, cache order and scenarios are
        exactly as they were.
        """
        # Resolve and validate without mutating any serving state.  The
        # model rebuilt by the executing worker re-checks stability, but
        # the error belongs here — and must fire before any bookkeeping.
        resolved = [self.resolve_request(request) for request in requests]

        # The whole batch is valid: account for it and register the
        # scenarios its answers will be cached under.
        self.stats.batches += 1
        for item in resolved:
            self._scenarios.setdefault(item.key[0], item.scenario)

        # Probe the warm tiers (each hit counted by _probe_warm); count
        # the rest as misses and collect the distinct ones.
        values: Dict[_CacheKey, float] = {}
        cached_flags: List[bool] = []
        misses: "OrderedDict[_CacheKey, Tuple[Scenario, float]]" = OrderedDict()
        for item in resolved:
            key = item.key
            value, outcome = self._probe_warm(item)
            cached_flags.append(value is not None)
            if value is not None:
                values[key] = value
                continue
            if outcome == "fallback":
                self.stats.surface_fallbacks += 1
            elif outcome == "miss":
                self.stats.surface_misses += 1
            self.stats.requests += 1
            self.stats.cache_misses += 1
            if key not in misses:
                misses[key] = (item.scenario, item.num_gamers)

        # Compile the misses of each method into self-contained plans:
        # parameters only, no live models.  Each miss carries its own
        # quantile level, so a point asked at several levels can share
        # one model build within a plan.
        groups: "OrderedDict[str, List[_CacheKey]]" = OrderedDict()
        for key in misses:
            groups.setdefault(key[3], []).append(key)
        eval_plans: List[EvalPlan] = []
        plan_keys: List[List[_CacheKey]] = []
        for method, keys in groups.items():
            params = [
                {**misses[key][0].model_kwargs(), "num_gamers": misses[key][1]}
                for key in keys
            ]
            for plan in compile_eval_plans(
                params,
                [key[2] for key in keys],
                method=method,
                cost_model=self.cost_model,
            ):
                eval_plans.append(plan)
                plan_keys.append([keys[i] for i in plan.indices])
        return _BatchPlan(
            resolved=resolved,
            cached_flags=cached_flags,
            values=values,
            eval_plans=eval_plans,
            plan_keys=plan_keys,
        )

    def _share_cost_model(self, executor) -> None:
        """Lend this fleet's cost model to an executor without one.

        Executors exposing a ``cost_model`` attribute (the local
        process pool's LPT dispatch) get the fleet's measured model, so
        their predicted-cost ordering sees every observation the
        assembly phase folds back.  Purely scheduling: results remain
        plan-ordered and bit-identical.
        """
        if (
            executor is not None
            and hasattr(executor, "cost_model")
            and executor.cost_model is None
        ):
            executor.cost_model = self.cost_model

    def _execute_plans(
        self, plans: Sequence[EvalPlan], executor=None
    ) -> List[PlanResult]:
        """Phase 2: run the compiled plans (in-process without an executor)."""
        if executor is None:
            return [execute_plan(plan) for plan in plans]
        self._share_cost_model(executor)
        return executor.run(plans)

    def _assemble(
        self, batch_plan: "_BatchPlan", results: Sequence[PlanResult]
    ) -> List[Answer]:
        """Phase 3: merge the plan results back through the shared cache.

        Every result is checked against its plan before any statistic or
        cache entry is written; an executor that returns too few or too
        many results, or a result whose indices or number of values
        differ from its plan's, raises :class:`ExecutorBrokenError`
        (naming the result's host), which the request coalescer counts
        and retries like a dead pool.
        """
        plans = batch_plan.eval_plans
        if len(results) != len(plans):
            raise ExecutorBrokenError(
                f"the executor returned {len(results)} results for {len(plans)} plans",
                plan_count=len(plans),
            )
        for plan, result in zip(plans, results):
            if tuple(result.indices) != plan.indices or len(result.values) != len(plan.indices):
                raise ExecutorBrokenError(
                    f"a result from {result.host or 'the local executor'} does not match "
                    f"its plan: indices {tuple(result.indices)} with {len(result.values)} "
                    f"values for plan indices {plan.indices}",
                    host=result.host,
                    plan_count=len(plans),
                )
        values = batch_plan.values
        own_pid = os.getpid()
        for keys, plan, result in zip(batch_plan.plan_keys, plans, results):
            self.stats.plans_executed += 1
            if result.worker_pid != own_pid:
                self.stats.remote_plans += 1
            if result.host is not None:
                entry = self.stats.hosts.setdefault(
                    result.host, {"plans": 0, "redispatches": 0, "wire_s": 0.0}
                )
                entry["plans"] += 1
                entry["redispatches"] += result.redispatches
                entry["wire_s"] += result.wire_s
            signature = plan_signature(plan)
            cost = self.stats.plan_costs.setdefault(
                signature, {"plans": 0, "models": 0, "exec_s": 0.0}
            )
            cost["plans"] += 1
            cost["models"] += len(plan.indices)
            cost["exec_s"] += result.exec_s
            self.cost_model.observe(signature, len(plan.indices), result.exec_s)
            self.stats.evaluations += result.evaluations
            self.stats.stacked_mgf_calls += result.stacked_mgf_calls
            for key, value in zip(keys, result.values):
                values[key] = float(value)
                self._store(key, float(value))

        answers = [
            item.answer(values[item.key], cached=cached)
            for item, cached in zip(batch_plan.resolved, batch_plan.cached_flags)
        ]
        self._prune_scenarios()
        return answers

    def request(
        self,
        scenario: ScenarioSpec,
        *,
        downlink_load: Optional[float] = None,
        num_gamers: Optional[float] = None,
        probability: Optional[float] = None,
        method: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> Answer:
        """Serve a single request (convenience wrapper over :meth:`serve`)."""
        return self.serve(
            [
                Request(
                    scenario,
                    downlink_load=downlink_load,
                    num_gamers=num_gamers,
                    probability=probability,
                    method=method,
                    tag=tag,
                )
            ]
        )[0]

    # ------------------------------------------------------------------
    # Admission control (Section 4 served online)
    # ------------------------------------------------------------------
    def _resolve_admit(
        self, request: Union[Request, Mapping[str, Any]]
    ) -> "_ResolvedAdmit":
        """Resolve and validate an admit request without mutating state."""
        if not isinstance(request, Request):
            request = Request.from_dict(request)
        if request.kind != "admit":
            raise ParameterError(
                f'expected a kind="admit" request; got kind={request.kind!r}'
            )
        scenario = self.resolve_scenario(request.scenario)
        probability = (
            self.probability
            if request.probability is None
            else float(request.probability)
        )
        method = self.method if request.method is None else request.method
        return _ResolvedAdmit(
            scenario=scenario,
            scenario_key=scenario.cache_key(),
            rtt_budget_s=float(request.rtt_budget_ms) / 1e3,
            probability=probability,
            method=method,
            exact=request.exact,
            load=request.downlink_load,
            num_gamers=request.num_gamers,
            tag=request.tag,
        )

    def _admit_rounds(
        self, items: Sequence["_ResolvedAdmit"]
    ) -> Search[List[AdmissionAnswer]]:
        """The load searches of resolved admits, advanced in lockstep.

        Each round yields one ``exact=True`` rtt probe request per
        still-searching admit and is sent their quantiles (seconds), in
        order; returns the :class:`AdmissionAnswer` of every admit.  A
        certified surface attached for the (scenario, method) — and not
        capped out by ``max_bound`` — answers its admit in O(1) before
        the first round; ``exact=True`` admits skip surfaces.  A batch
        of surface admits therefore finishes without yielding.  Every
        admit path (:meth:`serve`, :meth:`admit`, the async fleet, the
        coalescer and :meth:`Engine.admit <repro.engine.Engine.admit>`)
        runs here, so each answered admit is counted once, when it is
        answered.
        """
        searches = [
            admission_search(
                item.scenario,
                item.rtt_budget_s,
                item.probability,
                surface=(
                    None
                    if item.exact
                    else self.surface_for(item.scenario_key, item.method)
                ),
                load=item.load,
                num_gamers=item.num_gamers,
                load_resolution=item.load_resolution,
                max_load_ceiling=item.max_load_ceiling,
            )
            for item in items
        ]

        def probe(index: int, load: float) -> Request:
            item = items[index]
            return Request(
                item.scenario,
                downlink_load=load,
                probability=item.probability,
                method=item.method,
                exact=True,
            )

        results = yield from lockstep(searches, probe)
        answers = []
        for item, result in zip(items, results):
            self.stats.requests += 1
            self.stats.admits += 1
            if result.source == "surface":
                self.stats.admit_surface += 1
            else:
                self.stats.admit_exact += 1
            answers.append(
                AdmissionAnswer(
                    scenario_key=item.scenario_key,
                    method=item.method,
                    result=result,
                    tag=item.tag,
                )
            )
        return answers

    def _quantiles(self, probes: Sequence[Request], executor=None) -> List[float]:
        """Serve a round of admit probes; their RTT quantiles in order."""
        return [answer.rtt_quantile_s for answer in self.serve(probes, executor=executor)]

    def admit(self, request: Union[Request, Mapping[str, Any]]) -> AdmissionAnswer:
        """Serve one admission-control request.

        "Can this scenario take (more) gamers and keep the
        ``probability`` RTT quantile under ``rtt_budget_ms``?" — see
        :func:`~repro.core.dimensioning.admission_search` for the
        semantics (an unmeetable budget is ``admitted=False``, never an
        error) and :meth:`serve` for mixing admits into a request
        stream.
        """
        rounds = self._admit_rounds([self._resolve_admit(request)])
        return drive(rounds, self._quantiles)[0]

    # ------------------------------------------------------------------
    # Cache persistence
    # ------------------------------------------------------------------
    def save_cache(self, path: Union[str, Path]) -> int:
        """Write the answer cache to ``path`` as JSON; returns the entry count.

        Entries are written in LRU order (least recently used first) so
        a later :meth:`warm_start` restores both the floats — exactly,
        JSON round-trips every double — and the eviction order.

        The write is **atomic**
        (:func:`~repro.persist.atomic_write_text`): a crash mid-write
        or a concurrent :meth:`warm_start` reader never sees a
        truncated file — either the previous cache or the new one,
        never garbage.
        """
        scenarios = {}
        entries = []
        for (scenario_key, gamers, probability, method), value in self._cache.items():
            scenario = self._scenarios.get(scenario_key)
            if scenario is None:  # pragma: no cover - defensive
                continue
            scenarios.setdefault(scenario_key, scenario.to_dict())
            entries.append(
                {
                    "scenario": scenario_key,
                    "num_gamers": gamers,
                    "probability": probability,
                    "method": method,
                    "rtt_quantile_s": value,
                }
            )
        payload = {
            "format": _CACHE_FORMAT,
            "version": _CACHE_VERSION,
            "scenarios": scenarios,
            "entries": entries,
        }
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return len(entries)

    def warm_start(self, path: Union[str, Path]) -> int:
        """Load a cache previously written with :meth:`save_cache`.

        Scenario keys are recomputed from the persisted parameter
        dictionaries (the file's keys are cross-checked), so a cache
        file remains valid even if the key derivation changes between
        versions.  Returns the number of entries loaded; loading more
        than ``max_cache_entries`` keeps the most recently used ones.

        Corrupted or mismatched files — invalid JSON, a foreign format,
        malformed scenario parameters, entries with missing or
        non-numeric fields, unknown quantile methods or dangling
        scenario references — raise
        :class:`~repro.errors.CacheFormatError` naming the offending
        key, instead of the bare ``json``/``KeyError`` tracebacks such
        files used to produce.  Entries stored before the failing one
        are kept (the cache stays usable).
        """
        path_str = str(path)
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CacheFormatError(
                f"{path_str} is not valid JSON: {exc}", path=path_str
            ) from exc
        if not isinstance(data, dict) or data.get("format") != _CACHE_FORMAT:
            raise CacheFormatError(
                f"{path_str} is not a fleet cache file", path=path_str
            )
        if data.get("version") != _CACHE_VERSION:
            raise CacheFormatError(
                f"unsupported fleet cache version {data.get('version')!r}",
                path=path_str,
                key="version",
            )
        scenarios = data.get("scenarios", {})
        entries = data.get("entries", [])
        if not isinstance(scenarios, dict):
            raise CacheFormatError(
                "the 'scenarios' section must be a JSON object",
                path=path_str,
                key="scenarios",
            )
        if not isinstance(entries, list):
            raise CacheFormatError(
                "the 'entries' section must be a JSON array",
                path=path_str,
                key="entries",
            )
        keys: Dict[str, str] = {}
        restored: Dict[str, Scenario] = {}
        for stored_key, parameters in scenarios.items():
            try:
                scenario = Scenario.from_dict(parameters)
            except (ReproError, TypeError, ValueError) as exc:
                raise CacheFormatError(
                    f"cache scenario {stored_key!r} is malformed: {exc}",
                    path=path_str,
                    key=str(stored_key),
                ) from exc
            keys[stored_key] = scenario.cache_key()
            restored[stored_key] = scenario
        for stored_key, scenario in restored.items():
            self._scenarios[keys[stored_key]] = scenario
        loaded = 0
        for number, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise CacheFormatError(
                    f"cache entry {number} is not a JSON object",
                    path=path_str,
                    key=str(number),
                )
            try:
                stored_key = entry["scenario"]
                num_gamers = float(entry["num_gamers"])
                probability = float(entry["probability"])
                method = str(entry["method"])
                value = float(entry["rtt_quantile_s"])
            except KeyError as exc:
                raise CacheFormatError(
                    f"cache entry {number} is missing field {exc.args[0]!r}",
                    path=path_str,
                    key=str(exc.args[0]),
                ) from exc
            except (TypeError, ValueError) as exc:
                raise CacheFormatError(
                    f"cache entry {number} holds a non-numeric value: {exc}",
                    path=path_str,
                    key=str(number),
                ) from exc
            if not isinstance(stored_key, str):
                raise CacheFormatError(
                    f"cache entry {number} has a non-string scenario reference",
                    path=path_str,
                    key=str(number),
                )
            if stored_key not in keys:
                raise CacheFormatError(
                    f"cache entry references unknown scenario {stored_key!r}",
                    path=path_str,
                    key=str(stored_key),
                )
            if method not in QUANTILE_METHODS:
                raise CacheFormatError(
                    f"cache entry {number} names unknown method {method!r}",
                    path=path_str,
                    key=method,
                )
            # Canonicalize the gamers key exactly like serving does —
            # an externally generated or hand-edited file may carry a
            # raw float whose entry no lookup would ever hit otherwise.
            key: _CacheKey = (
                keys[stored_key],
                gamers_key(num_gamers),
                probability,
                method,
            )
            self._store(key, value)
            loaded += 1
        self.stats.warm_loaded += loaded
        return loaded


class AsyncFleet:
    """Asyncio facade over a :class:`Fleet` for long-running services.

    The synchronous phases — planning and assembly — are cheap cache
    and dictionary work and run inline on the event loop (each is
    atomic: no ``await`` interleaves inside them); the expensive
    execute phase is awaited on an executor, so the loop keeps serving
    other coroutines while the plans run.  Without an executor the
    plans execute on the loop's default thread pool; pass a
    :class:`~repro.executors.ParallelExecutor` to fan them out over
    worker processes.  Answers are bit-identical to :meth:`Fleet.serve`
    whatever the executor.

    Concurrent ``serve_async`` calls are safe: overlapping batches that
    miss the same operating point may evaluate it more than once, but
    every evaluation produces the same float, so whichever result is
    assembled last wins with no observable difference.  To avoid even
    that duplicate work, put a :class:`repro.serve.RequestCoalescer` in
    front: it gathers concurrent callers into micro-batch windows and
    single-flights identical in-flight misses, so each operating point
    is evaluated exactly once per window.

    Example::

        fleet = AsyncFleet(max_cache_entries=10_000)
        with ParallelExecutor(workers=4) as executor:
            answers = await fleet.serve_async(requests, executor=executor)
    """

    def __init__(
        self,
        fleet: Optional[Fleet] = None,
        *,
        executor=None,
        **fleet_kwargs: Any,
    ) -> None:
        if fleet is not None and fleet_kwargs:
            raise ParameterError(
                "pass either an existing Fleet or Fleet keyword arguments, not both"
            )
        self.fleet = fleet if fleet is not None else Fleet(**fleet_kwargs)
        self.executor = executor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncFleet({self.fleet!r}, executor={self.executor!r})"

    @property
    def stats(self) -> FleetStats:
        return self.fleet.stats

    async def serve_async(
        self,
        requests: Iterable[Union[Request, Mapping[str, Any]]],
        *,
        executor=None,
    ) -> List[Answer]:
        """Asynchronous :meth:`Fleet.serve`: plan inline, await execute.

        ``kind="admit"`` requests are partitioned out before planning
        and answered on the loop like :meth:`Fleet.serve` answers them:
        surface admits inline, exact ones by awaiting one
        :meth:`serve_async` batch per round of their load searches.
        They are merged back in request order.
        """
        executor = self.executor if executor is None else executor
        fleet = self.fleet
        materialized = [
            request if isinstance(request, Request) else Request.from_dict(request)
            for request in requests
        ]
        admits = [fleet._resolve_admit(r) for r in materialized if r.kind == "admit"]
        batch_plan = fleet._plan_batch([r for r in materialized if r.kind != "admit"])
        loop = asyncio.get_running_loop()
        if not batch_plan.eval_plans:
            results: List[PlanResult] = []
        elif executor is None:
            results = await loop.run_in_executor(
                None, fleet._execute_plans, batch_plan.eval_plans
            )
        else:
            fleet._share_cost_model(executor)
            results = await executor.run_async(batch_plan.eval_plans)
        answers = fleet._assemble(batch_plan, results)
        if not admits:
            return answers

        async def quantiles(probes: List[Request]) -> List[float]:
            served = await self.serve_async(probes, executor=executor)
            return [answer.rtt_quantile_s for answer in served]

        admit_answers = await drive_async(fleet._admit_rounds(admits), quantiles)
        return _merge(materialized, admit_answers, answers)

    async def request_async(
        self,
        scenario: ScenarioSpec,
        *,
        downlink_load: Optional[float] = None,
        num_gamers: Optional[float] = None,
        probability: Optional[float] = None,
        method: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> Answer:
        """Serve one request (convenience wrapper over :meth:`serve_async`)."""
        answers = await self.serve_async(
            [
                Request(
                    scenario,
                    downlink_load=downlink_load,
                    num_gamers=num_gamers,
                    probability=probability,
                    method=method,
                    tag=tag,
                )
            ]
        )
        return answers[0]

    # Synchronous passthroughs (cache persistence is fast file I/O,
    # surface attachment a dictionary merge).
    def attach_surfaces(self, surfaces, *, max_bound: Optional[float] = None) -> int:
        """See :meth:`Fleet.attach_surfaces`."""
        return self.fleet.attach_surfaces(surfaces, max_bound=max_bound)

    def save_cache(self, path: Union[str, Path]) -> int:
        """See :meth:`Fleet.save_cache`."""
        return self.fleet.save_cache(path)

    def warm_start(self, path: Union[str, Path]) -> int:
        """See :meth:`Fleet.warm_start`."""
        return self.fleet.warm_start(path)

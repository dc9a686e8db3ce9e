"""Cached evaluation facade over a :class:`~repro.scenarios.base.Scenario`.

The seed code rebuilt a :class:`~repro.core.rtt.PingTimeModel` from
scratch at every sweep point and every bisection step of the
dimensioning search, even when the operating point had already been
evaluated.  :class:`Engine` owns one scenario and memoizes both the
models and the quantile evaluations per (operating point, probability,
method), so that

* ``engine.rtt_quantile(load)`` builds each distinct operating point
  once, ever;
* ``engine.sweep(loads)`` evaluates a load grid as a batch — duplicate
  and previously-seen loads are cache hits — instead of per-point
  rebuilds;
* ``engine.dimension(rtt_bound)`` shares its bisection evaluations with
  every other query, and reads the RTT at the optimum straight from the
  cache instead of rebuilding the model a final time;
* ``engine.simulate(...)`` runs the discrete-event validation of the
  same scenario without re-threading nine keyword arguments.

The cache is exact: hits return the very same floats the uncached path
would produce (verified by the test suite), because keys are the
rounded number of gamers — the only model parameter a load maps to.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from scipy import optimize

from .core.dimensioning import AdmissionResult, DimensioningResult
from .core.rtt import (
    DEFAULT_QUANTILE,
    QUANTILE_METHODS,
    CostModel,
    PingTimeModel,
    compile_eval_plans,
    execute_plan,
    plan_signature,
)
from .errors import ParameterError
from .scenarios.base import Scenario
from .scenarios.mix import MixScenario
from .scenarios.sweep import SweepPoint, SweepSeries, default_load_grid

__all__ = ["Engine", "EngineStats"]


@dataclass
class EngineStats:
    """Cache bookkeeping of one :class:`Engine`."""

    model_builds: int = 0
    model_cache_hits: int = 0
    #: Models dropped by the LRU model-entry budget (``max_models``).
    model_evictions: int = 0
    quantile_evaluations: int = 0
    quantile_cache_hits: int = 0
    #: Joint array evaluations spent by the stacked batch inverter on
    #: behalf of this engine (sweep / rtt_quantiles cache misses),
    #: folded from the executed plans' own counters — so the number is
    #: right even when the plans ran in worker processes.
    stacked_mgf_calls: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "model_builds": self.model_builds,
            "model_cache_hits": self.model_cache_hits,
            "model_evictions": self.model_evictions,
            "quantile_evaluations": self.quantile_evaluations,
            "quantile_cache_hits": self.quantile_cache_hits,
            "stacked_mgf_calls": self.stacked_mgf_calls,
        }


class Engine:
    """Memoized evaluator for one scenario.

    Parameters
    ----------
    scenario:
        The :class:`Scenario` to evaluate (a parameter mapping is also
        accepted and converted with :meth:`Scenario.from_dict`).
    probability:
        Default quantile level for RTT queries (the paper's 99.999%).
    method:
        Default quantile evaluation method (see
        :data:`~repro.core.rtt.QUANTILE_METHODS`).
    max_models:
        Optional entry budget of the memoized model cache (default:
        unbounded, the historical behavior).  A huge per-scenario grid
        can otherwise pin one transform set per distinct operating
        point for the engine's lifetime; beyond the budget the
        least-recently-used model is dropped
        (``stats.model_evictions``).  Eviction never touches the
        quantile cache, and a re-built model produces bit-identical
        floats, so answers are unaffected.
    executor:
        Optional :class:`repro.executors.Executor` used to run the
        batched cache misses of :meth:`sweep` / :meth:`rtt_quantiles`.
        The default executes the compiled plans in-process against the
        live memoized models; any executor returns the same floats.
    cost_model:
        The :class:`~repro.core.rtt.CostModel` sizing the compiled
        plans (default: a fresh one seeded with static priors).  Every
        executed plan's measured cost is folded back, so repeat batches
        chunk to roughly equal-cost plans.  Purely a scheduling knob:
        any cost model yields bit-identical floats.
    """

    def __init__(
        self,
        scenario: Union[Scenario, Mapping[str, float]],
        *,
        probability: float = DEFAULT_QUANTILE,
        method: str = "inversion",
        max_models: Optional[int] = None,
        executor=None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if isinstance(scenario, Mapping):
            scenario = Scenario.from_dict(scenario)
        if not isinstance(scenario, (Scenario, MixScenario)):
            raise TypeError(
                "expected a Scenario, MixScenario or a parameter mapping, "
                f"got {type(scenario).__name__}"
            )
        if not 0.0 < probability < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        if method not in QUANTILE_METHODS:
            raise ParameterError(
                f"method must be one of {QUANTILE_METHODS}; got {method!r}"
            )
        if max_models is not None and int(max_models) < 1:
            raise ParameterError("max_models must be at least 1 (or None)")
        self.scenario = scenario
        self.probability = float(probability)
        self.method = method
        self.max_models = None if max_models is None else int(max_models)
        self.executor = executor
        self.cost_model = CostModel() if cost_model is None else cost_model
        self.stats = EngineStats()
        self._models: "OrderedDict[float, PingTimeModel]" = OrderedDict()
        self._quantiles: Dict[Tuple[float, float, str], float] = {}
        #: Certified surfaces for this scenario (attach_surface /
        #: build_surface).  They never answer point queries — the
        #: engine is the exact tier — but sweeps hand them to their
        #: SweepSeries so between-point interpolation is certified.
        self._surfaces = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine({self.scenario!r}, probability={self.probability}, "
            f"method={self.method!r})"
        )

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _gamers_key(num_gamers: float) -> float:
        """Float-stable cache key for an operating point."""
        return round(float(num_gamers), 9)

    def clear_cache(self) -> None:
        """Drop all memoized models and quantiles (stats are kept)."""
        self._models.clear()
        self._quantiles.clear()

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def model_for_gamers(self, num_gamers: float) -> PingTimeModel:
        """The (memoized) RTT model for an explicit number of gamers.

        Hits refresh the entry's LRU position; when ``max_models`` is
        set, inserting beyond the budget drops the least-recently-used
        model (a later request simply rebuilds it, bit-identically).
        """
        key = self._gamers_key(num_gamers)
        model = self._models.get(key)
        if model is None:
            model = self.scenario.model_for_gamers(num_gamers)
            self._models[key] = model
            self.stats.model_builds += 1
            if self.max_models is not None:
                while len(self._models) > self.max_models:
                    self._models.popitem(last=False)
                    self.stats.model_evictions += 1
        else:
            self._models.move_to_end(key)
            self.stats.model_cache_hits += 1
        return model

    def model_at_load(self, downlink_load: float) -> PingTimeModel:
        """The (memoized) RTT model at a downlink load on the bottleneck."""
        num_gamers = self.scenario.gamers_at_load(float(downlink_load))
        if num_gamers < 1.0:
            raise ParameterError(
                f"load {downlink_load:.3f} corresponds to fewer than one gamer"
            )
        return self.model_for_gamers(num_gamers)

    # ------------------------------------------------------------------
    # RTT quantiles
    # ------------------------------------------------------------------
    def _resolve(self, probability: Optional[float], method: Optional[str]) -> Tuple[float, str]:
        probability = self.probability if probability is None else float(probability)
        method = self.method if method is None else method
        if not 0.0 < probability < 1.0:
            raise ParameterError("probability must lie in (0, 1)")
        if method not in QUANTILE_METHODS:
            raise ParameterError(
                f"method must be one of {QUANTILE_METHODS}; got {method!r}"
            )
        return probability, method

    def rtt_quantile_for_gamers(
        self,
        num_gamers: float,
        probability: Optional[float] = None,
        method: Optional[str] = None,
    ) -> float:
        """RTT quantile (seconds) at an explicit gamer count, memoized."""
        probability, method = self._resolve(probability, method)
        key = (self._gamers_key(num_gamers), probability, method)
        value = self._quantiles.get(key)
        if value is None:
            model = self.model_for_gamers(num_gamers)
            value = model.rtt_quantile(probability, method=method)
            self._quantiles[key] = value
            self.stats.quantile_evaluations += 1
        else:
            self.stats.quantile_cache_hits += 1
        return value

    def rtt_quantile(
        self,
        downlink_load: float,
        probability: Optional[float] = None,
        method: Optional[str] = None,
    ) -> float:
        """RTT quantile (seconds) at a downlink load, memoized."""
        num_gamers = self.scenario.gamers_at_load(float(downlink_load))
        if num_gamers < 1.0:
            raise ParameterError(
                f"load {downlink_load:.3f} corresponds to fewer than one gamer"
            )
        return self.rtt_quantile_for_gamers(num_gamers, probability, method)

    def rtt_quantiles(
        self,
        downlink_loads: Sequence[float],
        probability: Optional[float] = None,
        method: Optional[str] = None,
    ) -> list:
        """Batch evaluation of :meth:`rtt_quantile` over a load grid.

        A thin adapter over the stacked batch path: cache misses are
        evaluated together through
        :func:`~repro.core.rtt.batch_rtt_quantiles`, whose lockstep
        searches spend one *joint* array evaluation per round across
        every missing operating point (see
        :class:`~repro.core.rtt.QueueingMgfStack`); the floats are
        identical to per-point :meth:`rtt_quantile` calls.
        """
        probability, method = self._resolve(probability, method)
        models = [self.model_at_load(float(load)) for load in downlink_loads]
        return self._quantiles_for_models(models, probability, method)

    def _quantiles_for_models(
        self, models: Sequence[PingTimeModel], probability: float, method: str
    ) -> list:
        """Batch-resolve RTT quantiles for already-built models.

        Duplicate and previously-seen operating points are cache hits;
        the remaining points are compiled into :class:`EvalPlan` units
        and executed through the shared plan layer — in-process against
        the live models by default, or on ``self.executor`` (e.g. a
        process pool) with bit-identical floats.
        """
        ordered = []
        missing: Dict[Tuple[float, float, str], PingTimeModel] = {}
        for model in models:
            key = (self._gamers_key(model.num_gamers), probability, method)
            ordered.append(key)
            if key in self._quantiles or key in missing:
                self.stats.quantile_cache_hits += 1
            else:
                missing[key] = model
        if missing:
            missing_models = list(missing.values())
            plans = compile_eval_plans(
                missing_models, probability, method=method, cost_model=self.cost_model
            )
            if self.executor is None:
                results = [
                    execute_plan(plan, models=[missing_models[i] for i in plan.indices])
                    for plan in plans
                ]
            else:
                results = self.executor.run(plans)
            values: list = [None] * len(missing_models)
            for plan, result in zip(plans, results):
                self.cost_model.observe(
                    plan_signature(plan), len(plan.indices), result.exec_s
                )
                self.stats.stacked_mgf_calls += result.stacked_mgf_calls
                for index, value in zip(result.indices, result.values):
                    values[index] = value
            for key, value in zip(missing, values):
                self._quantiles[key] = value
                self.stats.quantile_evaluations += 1
        return [self._quantiles[key] for key in ordered]

    # ------------------------------------------------------------------
    # Certified surfaces (see repro.surface)
    # ------------------------------------------------------------------
    def attach_surface(self, surface_or_index) -> int:
        """Attach certified quantile surface(s) built for this scenario.

        Accepts one :class:`~repro.surface.QuantileSurface` or a whole
        :class:`~repro.surface.SurfaceIndex` (only the entries matching
        this engine's scenario are kept).  A single surface certified
        for a different scenario raises
        :class:`~repro.errors.ParameterError`.  Returns the number of
        surfaces attached.

        Point quantile queries (:meth:`rtt_quantile`) remain exact —
        the engine *is* the exact tier the surfaces certify against.
        The attachment makes :meth:`sweep` hand the matching surface to
        its series, so
        :meth:`~repro.scenarios.sweep.SweepSeries.interpolate_rtt_ms` /
        :meth:`~repro.scenarios.sweep.SweepSeries.max_load_for_rtt_ms`
        carry a certified bound instead of uncertified linear
        interpolation, and it routes the *inverse* queries —
        :meth:`dimension` and :meth:`admit` — through the surface's
        O(1) brentq inversion when the budget's root is certified
        in-region (zero evaluation plans executed; the exact path is
        the bit-identical fallback).  O(1) surface *serving* lives in
        :meth:`repro.fleet.Fleet.attach_surfaces`.
        """
        from .surface import QuantileSurface, SurfaceIndex

        scenario_key = self.scenario.cache_key()
        if isinstance(surface_or_index, QuantileSurface):
            if surface_or_index.scenario_key != scenario_key:
                raise ParameterError(
                    "the surface was certified for scenario "
                    f"{surface_or_index.scenario_key}, not this engine's "
                    f"{scenario_key}"
                )
            candidates = [surface_or_index]
        elif isinstance(surface_or_index, SurfaceIndex):
            candidates = [
                surface
                for surface in surface_or_index
                if surface.scenario_key == scenario_key
            ]
        else:
            raise TypeError(
                "expected a QuantileSurface or SurfaceIndex, got "
                f"{type(surface_or_index).__name__}"
            )
        if self._surfaces is None:
            self._surfaces = SurfaceIndex()
        for surface in candidates:
            self._surfaces.add(surface)
        return len(candidates)

    def build_surface(self, methods=None, **kwargs):
        """Build, attach and return certified surface(s) for this scenario.

        ``methods`` is a method name, a sequence of names, or ``"all"``;
        it defaults to this engine's method.  Keyword arguments are
        forwarded to :func:`repro.surface.builder.build_surface`
        (tolerance, region bounds, …).  The build's exact evaluations
        run through this engine, so they land in — and draw from — the
        shared memoized cache; the resulting
        :class:`~repro.surface.SurfaceIndex` is attached (see
        :meth:`attach_surface`) and returned.
        """
        from .surface.builder import build_surfaces

        if methods is None:
            methods = (self.method,)
        index = build_surfaces(self.scenario, methods, engine=self, **kwargs)
        self.attach_surface(index)
        return index

    # ------------------------------------------------------------------
    # Sweeps (the Figure 3 / Figure 4 engine)
    # ------------------------------------------------------------------
    def sweep(
        self,
        loads: Optional[Sequence[float]] = None,
        probability: Optional[float] = None,
        method: Optional[str] = None,
        label: Optional[str] = None,
    ) -> SweepSeries:
        """Evaluate the RTT quantile over a grid of downlink loads.

        The grid is evaluated as a batch against the shared cache: each
        distinct operating point is built and inverted exactly once per
        (probability, method), including across repeated ``sweep`` /
        ``dimension`` / ``rtt_quantile`` calls on the same engine.  The
        cache misses are inverted together through the stacked batch
        path (one joint array evaluation per search round across the
        whole grid, instead of one MGF array call per point — which
        itself replaced one scalar call per Euler abscissa).
        """
        if loads is None:
            loads = default_load_grid()
        probability, method = self._resolve(probability, method)
        scenario = self.scenario
        series = SweepSeries(
            label=label or scenario.describe(),
            scenario=scenario,
            probability=probability,
        )
        loads = [float(load) for load in loads]
        models = [self.model_at_load(load) for load in loads]
        quantiles = self._quantiles_for_models(models, probability, method)
        for load, model, rtt_quantile_s in zip(loads, models, quantiles):
            series.points.append(
                SweepPoint(
                    downlink_load=load,
                    uplink_load=model.uplink_load,
                    num_gamers=model.num_gamers,
                    rtt_quantile_s=rtt_quantile_s,
                )
            )
        if self._surfaces is not None:
            surface = self._surfaces.get(scenario.cache_key(), method)
            if (
                surface is not None
                and surface.probability_lo <= probability <= surface.probability_hi
            ):
                series.attach_surface(surface)
        return series

    # ------------------------------------------------------------------
    # Dimensioning (Section 4)
    # ------------------------------------------------------------------
    def _surface_invert(
        self, rtt_bound_s: float, probability: float, method: str, ceiling: float
    ) -> Optional[Tuple[float, float]]:
        """Invert load→quantile on an attached surface, if it certifies.

        Returns ``(max_load, rtt_at_max_load_s)`` from the O(1)
        certified path — zero evaluation plans executed — or ``None``
        when no attached surface can certify the answer (no surface for
        the method, level out of range, or the root at/beyond a region
        edge), in which case the caller runs the exact path.
        """
        if self._surfaces is None:
            return None
        surface = self._surfaces.get(self.scenario.cache_key(), method)
        if surface is None:
            return None
        load = surface.invert_load(rtt_bound_s, probability, load_cap=ceiling)
        if load is None:
            return None
        return load, surface.lookup(load, probability)

    def _exact_capacity(
        self,
        rtt_bound_s: float,
        probability: float,
        method: str,
        ceiling: float,
        load_resolution: float,
    ) -> Tuple[Optional[float], float]:
        """The exact load search shared by :meth:`dimension` and :meth:`admit`.

        Returns ``(max_load, rtt_at_max_load_s)``, or ``(None,
        rtt_at_floor_s)`` when the bound is missed even at the floor
        load.  The floor is the load of a single gamer, at least 1e-4,
        nudged up to the first load that really maps to at least one
        gamer (the load<->gamer round trip can land one ulp short), and
        then capped at ``ceiling / 2``.  Between floor and ceiling,
        ``brentq`` brackets the bound to ``load_resolution``; every
        evaluation goes through the shared cache.
        """
        scenario = self.scenario
        floor_load = max(scenario.load_for_gamers(1.0), 1e-4)
        while scenario.gamers_at_load(floor_load) < 1.0:
            floor_load = math.nextafter(floor_load, math.inf)
        floor_load = min(floor_load, ceiling / 2.0)
        rtt_floor = self.rtt_quantile(floor_load, probability, method)
        if rtt_floor > rtt_bound_s:
            return None, rtt_floor
        if self.rtt_quantile(ceiling, probability, method) <= rtt_bound_s:
            best_load = ceiling
        else:
            best_load = float(
                optimize.brentq(
                    lambda load: self.rtt_quantile(load, probability, method)
                    - rtt_bound_s,
                    floor_load,
                    ceiling,
                    xtol=load_resolution,
                )
            )
        # brentq returns a load it has evaluated, so this is a cache hit.
        return best_load, self.rtt_quantile(best_load, probability, method)

    def dimension(
        self,
        rtt_bound_s: float,
        probability: Optional[float] = None,
        method: Optional[str] = None,
        load_resolution: float = 1e-3,
        max_load_ceiling: float = 0.98,
    ) -> DimensioningResult:
        """Largest downlink load whose RTT quantile meets ``rtt_bound_s``.

        The RTT quantile is monotonically increasing in the load, so a
        bisection on the load suffices.  With an attached certified
        surface covering the scenario (see :meth:`attach_surface`), the
        bisection runs on the surface's O(1) lookup instead — certified
        within its stored bound, zero evaluation plans executed; when
        the surface cannot certify the answer the exact path below is
        the bit-identical fallback.  Exact evaluations go through the
        shared cache; in particular the RTT at the optimum is reused
        from the bisection instead of rebuilding the model a final
        time.
        """
        if rtt_bound_s <= 0.0:
            raise ParameterError("rtt_bound_s must be positive")
        probability, method = self._resolve(probability, method)
        scenario = self.scenario
        ceiling = scenario.stable_load_ceiling(max_load_ceiling)

        inverted = self._surface_invert(rtt_bound_s, probability, method, ceiling)
        if inverted is None:
            inverted = self._exact_capacity(
                rtt_bound_s, probability, method, ceiling, load_resolution
            )
        best_load, rtt_at_best = inverted
        if best_load is None:
            raise ParameterError(
                f"the RTT bound {rtt_bound_s * 1e3:.1f} ms cannot be met even at the "
                f"minimum load ({rtt_at_best * 1e3:.1f} ms with a single gamer)"
            )
        gamers = int(math.floor(scenario.gamers_at_load(best_load)))
        return DimensioningResult(
            rtt_bound_s=rtt_bound_s,
            probability=probability,
            max_load=best_load,
            max_gamers=max(gamers, 0),
            rtt_at_max_load_s=rtt_at_best,
        )

    def admit(
        self,
        rtt_budget_s: float,
        probability: Optional[float] = None,
        method: Optional[str] = None,
        *,
        load: Optional[float] = None,
        num_gamers: Optional[float] = None,
        load_resolution: float = 1e-3,
        max_load_ceiling: float = 0.98,
        exact: bool = False,
    ) -> AdmissionResult:
        """Admission control: can the pipe keep the quantile under budget?

        Inverts the monotone load→quantile relation at ``probability``
        and compares the resulting capacity against the (optional)
        proposed operating point — ``load=`` or ``num_gamers=``, at
        most one.  Unlike :meth:`dimension`, an unmeetable budget is a
        *negative answer* (``admitted=False``, ``max_load=0``), never
        an error: that is the question admission control exists to
        answer.  With an attached certified surface whose region
        brackets the budget, the inversion runs on the O(1) lookup with
        zero evaluation plans executed (``source="surface"``);
        otherwise the exact path answers, bit-identical to
        :meth:`dimension`'s search (``source="exact"``).  ``exact=True``
        skips any attached surface outright.
        """
        if not rtt_budget_s > 0.0:
            raise ParameterError("rtt_budget_s must be positive")
        probability, method = self._resolve(probability, method)
        if load is not None and num_gamers is not None:
            raise ParameterError("pass at most one of load= or num_gamers=")
        scenario = self.scenario
        ceiling = scenario.stable_load_ceiling(max_load_ceiling)
        proposed: Optional[float] = None
        if num_gamers is not None:
            if float(num_gamers) <= 0.0:
                raise ParameterError("num_gamers must be positive")
            proposed = scenario.load_for_gamers(float(num_gamers))
        elif load is not None:
            proposed = float(load)
            if not 0.0 < proposed < 1.0:
                raise ParameterError("load must lie in (0, 1)")

        inverted = (
            None
            if exact
            else self._surface_invert(rtt_budget_s, probability, method, ceiling)
        )
        source = "exact" if inverted is None else "surface"
        if inverted is None:
            inverted = self._exact_capacity(
                rtt_budget_s, probability, method, ceiling, load_resolution
            )
        best_load, rtt_at_best = inverted
        if best_load is None:
            # Over budget already at the minimum load: nobody is
            # admitted, and the floor RTT documents by how much.
            best_load, gamers, admitted = 0.0, 0, False
        else:
            gamers = int(math.floor(scenario.gamers_at_load(best_load)))
            admitted = proposed is None or proposed <= best_load
        return AdmissionResult(
            rtt_budget_s=float(rtt_budget_s),
            probability=probability,
            admitted=admitted,
            max_load=best_load,
            max_gamers=max(gamers, 0),
            rtt_at_max_load_s=rtt_at_best,
            proposed_load=proposed,
            source=source,
        )

    # ------------------------------------------------------------------
    # Discrete-event validation
    # ------------------------------------------------------------------
    def make_simulation(
        self,
        *,
        num_clients: Optional[int] = None,
        load: Optional[float] = None,
        scheduler: str = "fifo",
        gaming_weight: float = 0.5,
        background_rate_bps: float = 0.0,
        seed: Optional[int] = None,
    ):
        """Build a :class:`~repro.netsim.GamingSimulation` of the scenario.

        The client count is given directly or derived from a target
        downlink ``load`` (rounded to the nearest whole gamer).  A
        :class:`MixScenario` builds the multi-server
        :class:`~repro.netsim.MixGamingSimulation` — one burst source
        per component on the shared pipe, the tagged flow measured.
        """
        from .netsim import GamingSimulation, MixGamingSimulation

        if (num_clients is None) == (load is None):
            raise ParameterError("pass exactly one of num_clients= or load=")
        if num_clients is None:
            num_clients = max(int(round(self.scenario.gamers_at_load(float(load)))), 1)
        if isinstance(self.scenario, MixScenario):
            return MixGamingSimulation.from_mix(
                self.scenario,
                num_clients=int(num_clients),
                scheduler=scheduler,
                gaming_weight=gaming_weight,
                background_rate_bps=background_rate_bps,
                seed=seed,
            )
        return GamingSimulation.from_scenario(
            self.scenario,
            num_clients=int(num_clients),
            scheduler=scheduler,
            gaming_weight=gaming_weight,
            background_rate_bps=background_rate_bps,
            seed=seed,
        )

    def simulate(
        self,
        duration_s: float = 30.0,
        *,
        warmup_s: Optional[float] = None,
        num_clients: Optional[int] = None,
        load: Optional[float] = None,
        scheduler: str = "fifo",
        gaming_weight: float = 0.5,
        background_rate_bps: float = 0.0,
        seed: Optional[int] = None,
    ):
        """Run the discrete-event simulator on the scenario.

        Returns the :class:`~repro.netsim.DelayRecorder` with the
        measured upstream / downstream / RTT samples.
        """
        simulation = self.make_simulation(
            num_clients=num_clients,
            load=load,
            scheduler=scheduler,
            gaming_weight=gaming_weight,
            background_rate_bps=background_rate_bps,
            seed=seed,
        )
        if warmup_s is None:
            warmup_s = min(5.0, duration_s / 10.0)
        return simulation.run(duration_s, warmup_s=warmup_s)

"""Per-scenario view over a :class:`~repro.fleet.Fleet`.

:class:`Engine` answers the questions the paper asks of *one*
scenario — the RTT quantile at a load (eqs. (35)-(37)), a load sweep
(Figures 3 and 4), the Section 4 dimensioning and admission questions,
and the discrete-event validation — while holding no per-point state
of its own.  Every exact quantile is an ``exact=True`` request served by
the engine's fleet (a private :class:`~repro.fleet.Fleet` unless one is
passed), so

* repeated and duplicate operating points are answered from the fleet's
  bounded LRU answer cache, keyed by the rounded number of gamers;
* cache misses run through the fleet's plan → execute → assemble path,
  stacked across the whole batch and counted in its
  :class:`~repro.fleet.FleetStats`;
* ``engine.dimension`` / ``engine.admit`` run the load search of
  :mod:`repro.core.dimensioning`, whose Brent probes are fleet requests
  (or invert a certified surface of the fleet in O(1));
* ``engine.simulate(...)`` runs the discrete-event validation of the
  same scenario without re-threading nine keyword arguments.

The floats are exact: the plan path reproduces the scalar
``model.rtt_quantile`` bit for bit.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core.dimensioning import AdmissionResult, DimensioningResult
from .core.inversion import drive
from .core.rtt import DEFAULT_QUANTILE, QUANTILE_METHODS, model_uplink_load
from .errors import ParameterError
from .fleet import Fleet, Request, _ResolvedAdmit
from .scenarios.base import Scenario
from .scenarios.mix import MixScenario
from .scenarios.sweep import SweepPoint, SweepSeries, default_load_grid

__all__ = ["Engine"]


class Engine:
    """Evaluator for one scenario, served through a fleet.

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
    fleet:
        The :class:`~repro.fleet.Fleet` serving the exact quantiles
        (default: a private one).  Its answer cache, cost model and
        attached certified surfaces are the engine's: share one fleet
        between engines, or with a request stream, to share all three.
    """

    def __init__(
        self,
        scenario: Union[Scenario, Mapping[str, float]],
        *,
        probability: float = DEFAULT_QUANTILE,
        method: str = "inversion",
        fleet: Optional[Fleet] = None,
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
        self.scenario = scenario
        self.probability = float(probability)
        self.method = method
        self.fleet = Fleet() if fleet is None else fleet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine({self.scenario!r}, probability={self.probability}, "
            f"method={self.method!r})"
        )

    # ------------------------------------------------------------------
    # RTT quantiles
    # ------------------------------------------------------------------
    def _resolve(
        self, probability: Optional[float], method: Optional[str]
    ) -> Tuple[float, str]:
        """Apply the engine defaults (the fleet requests validate them)."""
        probability = self.probability if probability is None else probability
        return probability, self.method if method is None else method

    def _serve(self, downlink_loads: Sequence[float], probability, method: str):
        """Serve exact quantile requests for a load grid through the fleet."""
        loads = list(downlink_loads)
        levels = [probability] * len(loads) if np.isscalar(probability) else list(probability)
        if len(levels) != len(loads):
            raise ParameterError("probability must be one level or one per load")
        return self.fleet.serve(
            [
                Request(
                    self.scenario,
                    downlink_load=float(load),
                    probability=level,
                    method=method,
                    exact=True,
                )
                for load, level in zip(loads, levels)
            ]
        )

    def rtt_quantile(
        self,
        downlink_load: float,
        probability: Optional[float] = None,
        method: Optional[str] = None,
    ) -> float:
        """RTT quantile (seconds) at a downlink load."""
        return self.rtt_quantiles([downlink_load], probability, method)[0]

    def rtt_quantiles(
        self,
        downlink_loads: Sequence[float],
        probability: Union[float, Sequence[float], None] = None,
        method: Optional[str] = None,
    ) -> list:
        """Batch evaluation of :meth:`rtt_quantile` over a load grid.

        ``probability`` is one level for the whole grid or one per load.
        One fleet batch: cached and duplicate operating points are
        answered from the fleet's cache, the rest are evaluated together
        on the stacked plan path (one joint array evaluation per search
        round across every missing point).  The floats are identical to
        per-point :meth:`rtt_quantile` calls.
        """
        probability, method = self._resolve(probability, method)
        answers = self._serve(downlink_loads, probability, method)
        return [answer.rtt_quantile_s for answer in answers]

    # ------------------------------------------------------------------
    # Certified surfaces (see repro.surface)
    # ------------------------------------------------------------------
    def attach_surface(self, surface_or_index) -> int:
        """Attach certified quantile surface(s) of this scenario to the fleet.

        Accepts one :class:`~repro.surface.QuantileSurface` (certified
        for a different scenario: :class:`~repro.errors.ParameterError`)
        or a :class:`~repro.surface.SurfaceIndex`, of which the entries
        for this scenario are kept; returns the number attached.  Point
        quantiles stay exact; :meth:`sweep` hands the surface to its
        series (certified interpolation), and :meth:`dimension` /
        :meth:`admit` invert it in O(1) when it brackets the bound.
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
        return self.fleet.attach_surfaces(candidates)

    def build_surface(self, methods=None, **kwargs):
        """Build, attach and return certified surface(s) for this scenario.

        ``methods`` is a method name, a sequence of names, or ``"all"``;
        it defaults to this engine's method.  Keyword arguments are
        forwarded to :func:`repro.surface.builder.build_surface`
        (tolerance, region bounds, …).  The build's exact evaluations
        run through this engine, so they land in — and draw from — its
        fleet's answer cache; the resulting
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

        The grid is one fleet batch (see :meth:`rtt_quantiles`): points
        the fleet has already answered are cache hits, the rest are
        inverted together on the stacked plan path.  Each point reports
        the uplink load its model computes (eq. (37)), read from the
        model parameters without building a second model.
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
        kwargs = scenario.model_kwargs()
        for load, answer in zip(loads, self._serve(loads, probability, method)):
            series.points.append(
                SweepPoint(
                    downlink_load=load,
                    uplink_load=model_uplink_load(
                        {**kwargs, "num_gamers": answer.num_gamers}
                    ),
                    num_gamers=answer.num_gamers,
                    rtt_quantile_s=answer.rtt_quantile_s,
                )
            )
        surface = self.fleet.surface_for(scenario.cache_key(), method)
        if (
            surface is not None
            and surface.probability_lo <= probability <= surface.probability_hi
        ):
            series.attach_surface(surface)
        return series

    # ------------------------------------------------------------------
    # Dimensioning and admission control (Section 4)
    # ------------------------------------------------------------------
    def dimension(
        self,
        rtt_bound_s: float,
        probability: Optional[float] = None,
        method: Optional[str] = None,
        load_resolution: float = 1e-3,
        max_load_ceiling: float = 0.98,
    ) -> DimensioningResult:
        """Largest downlink load whose RTT quantile meets ``rtt_bound_s``.

        The RTT quantile is monotonically increasing in the load, so the
        load search of :func:`~repro.core.dimensioning.admission_search`
        inverts it.  With a certified surface for the scenario attached
        to the fleet (see :meth:`attach_surface`), the inversion runs on
        the surface's O(1) lookup — certified within its stored bound,
        zero evaluation plans executed; when the surface cannot certify
        the answer the exact search is the bit-identical fallback, each
        of its probes an exact fleet request.  Unlike :meth:`admit`, an
        unmeetable bound raises :class:`~repro.errors.ParameterError`.
        """
        if rtt_bound_s <= 0.0:
            raise ParameterError("rtt_bound_s must be positive")
        result = self.admit(
            rtt_bound_s,
            probability,
            method,
            load_resolution=load_resolution,
            max_load_ceiling=max_load_ceiling,
        )
        if not result.admitted:
            raise ParameterError(
                f"the RTT bound {rtt_bound_s * 1e3:.1f} ms cannot be met even at the "
                f"minimum load ({result.rtt_at_max_load_s * 1e3:.1f} ms with a single gamer)"
            )
        return DimensioningResult(
            rtt_bound_s=rtt_bound_s,
            probability=result.probability,
            max_load=result.max_load,
            max_gamers=result.max_gamers,
            rtt_at_max_load_s=result.rtt_at_max_load_s,
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

        See :func:`~repro.core.dimensioning.admission_search`: the
        capacity under the budget is compared against the (optional)
        proposed operating point — ``load=`` or ``num_gamers=``, at most
        one — and an unmeetable budget is a *negative answer*
        (``admitted=False``, ``max_load=0``), never an error.  A
        certified surface attached to the fleet answers in O(1) when it
        brackets the budget (``source="surface"``); otherwise the exact
        search answers, bit-identical to :meth:`dimension`'s
        (``source="exact"``).  ``exact=True`` skips any surface.
        """
        probability, method = self._resolve(probability, method)
        item = _ResolvedAdmit(
            scenario=self.scenario,
            scenario_key=self.scenario.cache_key(),
            rtt_budget_s=rtt_budget_s,
            probability=probability,
            method=method,
            exact=exact,
            load=load,
            num_gamers=num_gamers,
            load_resolution=load_resolution,
            max_load_ceiling=max_load_ceiling,
        )
        (answer,) = drive(self.fleet._admit_rounds([item]), self.fleet._quantiles)
        return answer.result

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

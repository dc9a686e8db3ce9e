"""Parameter sweeps over a scenario (the Figure 3 / Figure 4 engine).

A sweep evaluates the RTT quantile over a range of downlink loads for
one or more scenario variants and returns the series the paper plots.
The evaluation itself is delegated to :class:`repro.engine.Engine`, so
the grid is one stacked batch through the engine's fleet; this module
keeps the series containers and the historical :func:`sweep_loads`
entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.inversion import _brent, drive
from ..core.rtt import DEFAULT_QUANTILE
from ..errors import ParameterError
from .base import Scenario

__all__ = ["SweepPoint", "SweepSeries", "sweep_loads", "default_load_grid"]


def default_load_grid(start: float = 0.05, stop: float = 0.90, num: int = 18) -> np.ndarray:
    """The downlink-load grid used by the paper's figures (5% to 90%)."""
    if not 0.0 < start < stop < 1.0:
        raise ParameterError("load grid must satisfy 0 < start < stop < 1")
    return np.linspace(start, stop, num)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated operating point."""

    downlink_load: float
    uplink_load: float
    num_gamers: float
    rtt_quantile_s: float

    @property
    def rtt_quantile_ms(self) -> float:
        return 1e3 * self.rtt_quantile_s

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready dictionary view."""
        return {
            "downlink_load": self.downlink_load,
            "uplink_load": self.uplink_load,
            "num_gamers": self.num_gamers,
            "rtt_quantile_s": self.rtt_quantile_s,
            "rtt_quantile_ms": self.rtt_quantile_ms,
        }


@dataclass
class SweepSeries:
    """One curve: a labelled sequence of sweep points.

    Between the swept points, :meth:`interpolate_rtt_ms` and
    :meth:`max_load_for_rtt_ms` are *uncertified* linear interpolations
    by default.  Attaching a certified quantile surface
    (:meth:`attach_surface`, done automatically by
    :meth:`repro.engine.Engine.sweep` when the engine carries one)
    upgrades both to surface evaluations carrying the surface's
    certified relative error bound wherever the query falls inside the
    certified region.
    """

    label: str
    scenario: Scenario
    probability: float
    points: List[SweepPoint] = field(default_factory=list)
    #: Optional :class:`repro.surface.QuantileSurface` backing the
    #: between-point queries with a certified bound.
    surface: Optional[Any] = field(default=None, repr=False, compare=False)

    def loads(self) -> List[float]:
        """Downlink loads of the series."""
        return [p.downlink_load for p in self.points]

    def rtt_ms(self) -> List[float]:
        """RTT quantiles of the series in milliseconds."""
        return [p.rtt_quantile_ms for p in self.points]

    def as_rows(self) -> List[Dict[str, float]]:
        """Row-dictionaries for tabulation."""
        return [
            {
                "label": self.label,
                "load": p.downlink_load,
                "num_gamers": p.num_gamers,
                "rtt_ms": p.rtt_quantile_ms,
            }
            for p in self.points
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary view of the whole series."""
        return {
            "label": self.label,
            "scenario": self.scenario.to_dict(),
            "probability": self.probability,
            "points": [p.to_dict() for p in self.points],
        }

    def attach_surface(self, surface) -> None:
        """Back between-point queries with a certified quantile surface.

        The surface must have been built for this series' scenario and
        cover this series' quantile level; a mismatch raises
        :class:`~repro.errors.ParameterError` rather than silently
        serving bounds certified for different physics.
        """
        from ..surface import QuantileSurface  # lazy: surface imports engine

        if not isinstance(surface, QuantileSurface):
            raise ParameterError(
                f"expected a QuantileSurface, got {type(surface).__name__}"
            )
        if surface.scenario_key != self.scenario.cache_key():
            raise ParameterError(
                "the surface was certified for a different scenario "
                f"({surface.scenario_key}) than this series "
                f"({self.scenario.cache_key()})"
            )
        if not surface.probability_lo <= self.probability <= surface.probability_hi:
            raise ParameterError(
                f"the surface's certified region "
                f"[{surface.probability_lo}, {surface.probability_hi}] does "
                f"not cover this series' quantile level {self.probability}"
            )
        self.surface = surface

    def interpolate_rtt_ms(self, load: float) -> float:
        """RTT (ms) at an arbitrary load between the swept points.

        Served by the attached certified surface when one covers the
        queried load — within the surface's stored relative error bound
        of the exact inversion — and by uncertified linear
        interpolation between the nearest swept points otherwise.
        """
        load = float(load)
        if self.surface is not None and self.surface.covers(load, self.probability):
            return 1e3 * self.surface.lookup(load, self.probability)
        return float(np.interp(load, self.loads(), self.rtt_ms()))

    def max_load_for_rtt_ms(self, rtt_bound_ms: float) -> float:
        """Largest swept load whose interpolated RTT stays below the bound.

        With a certified surface attached and covering the swept load
        range, the monotone RTT curve is inverted on the surface by
        Brent's method (certified within the surface's bound); otherwise the
        inverse is the historical uncertified linear interpolation.
        """
        loads = np.asarray(self.loads())
        rtts = np.asarray(self.rtt_ms())
        surface = self.surface
        if (
            surface is not None
            and surface.covers(float(loads[0]), self.probability)
            and surface.covers(float(loads[-1]), self.probability)
        ):
            def excess(load: float) -> float:
                return 1e3 * surface.lookup(float(load), self.probability) - rtt_bound_ms

            if excess(float(loads[0])) > 0.0:
                return 0.0
            if excess(float(loads[-1])) <= 0.0:
                return float(loads[-1])
            return float(drive(_brent(float(loads[0]), float(loads[-1]), 1e-9), excess))
        if rtts[0] > rtt_bound_ms:
            return 0.0
        if rtts[-1] <= rtt_bound_ms:
            return float(loads[-1])
        # The curve is monotone increasing in load: invert by interpolation.
        return float(np.interp(rtt_bound_ms, rtts, loads))


def sweep_loads(
    scenario: Scenario,
    loads: Optional[Sequence[float]] = None,
    probability: float = DEFAULT_QUANTILE,
    method: str = "inversion",
    label: Optional[str] = None,
) -> SweepSeries:
    """Evaluate the RTT quantile of ``scenario`` over a grid of loads.

    Thin wrapper building a one-shot :class:`~repro.engine.Engine`; keep
    an engine around instead when several sweeps, dimensioning runs or
    point queries share the same scenario, so they share the cache too.
    """
    from ..engine import Engine  # imported lazily to avoid an import cycle

    engine = Engine(scenario, probability=probability, method=method)
    return engine.sweep(loads, label=label)

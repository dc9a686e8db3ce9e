"""Dimensioning rules (Section 4 of the paper).

Given the traffic parameters, the capacity dedicated to gaming on the
bottleneck link and an RTT budget, the paper derives the maximum
tolerable downlink load and, through eq. (37), the maximum number of
simultaneous gamers::

    N_max = rho_max * T * C / (8 * P_S)

The headline numbers of Section 4 (P_S = 125 byte, T = 40 ms, C = 5 Mbps,
RTT <= 50 ms) are roughly rho_max ~ 20% / 40% / 60% and N_max ~ 40 / 80 /
120 gamers for K = 2 / 9 / 20.

The search is a suspended generator (:func:`admission_search` over
:func:`capacity_search`): it yields
each downlink load it needs the RTT quantile at and is sent the
quantile back, so the caller decides how quantiles are computed.
:class:`repro.fleet.Fleet` runs the searches of every admit — its own,
an :class:`repro.engine.Engine`'s, the request coalescer's — in lockstep
rounds (:func:`~repro.core.inversion.lockstep`), each round one batch of
exact requests through its cache and plan path.  The Brent steps are
:func:`repro.core.inversion._brent`, a port of scipy's ``brentq`` that
returns the same root bit for bit.  :func:`max_tolerable_load` is the
historical keyword interface, kept as a thin shim over an
:class:`~repro.engine.Engine` built on the fly (it also accepts
``scenario=`` directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ParameterError
from .inversion import Search, _brent, _memoized
from .rtt import DEFAULT_QUANTILE

__all__ = [
    "gamers_for_load",
    "load_for_gamers",
    "AdmissionResult",
    "DimensioningResult",
    "capacity_search",
    "admission_search",
    "max_tolerable_load",
    "max_gamers",
]


def gamers_for_load(load: float, tick_interval_s: float, aggregation_rate_bps: float,
                    server_packet_bytes: float) -> float:
    """Invert eq. (37): the (possibly fractional) number of gamers at ``load``."""
    if not 0.0 < load < 1.0:
        raise ParameterError("load must lie in (0, 1)")
    return load * tick_interval_s * aggregation_rate_bps / (8.0 * server_packet_bytes)


def load_for_gamers(num_gamers: float, tick_interval_s: float, aggregation_rate_bps: float,
                    server_packet_bytes: float) -> float:
    """Eq. (37): the downlink load generated by ``num_gamers`` players."""
    if num_gamers <= 0.0:
        raise ParameterError("num_gamers must be positive")
    return 8.0 * num_gamers * server_packet_bytes / (tick_interval_s * aggregation_rate_bps)


@dataclass(frozen=True)
class DimensioningResult:
    """Outcome of a dimensioning computation."""

    rtt_bound_s: float
    probability: float
    max_load: float
    max_gamers: int
    rtt_at_max_load_s: float

    @property
    def rtt_bound_ms(self) -> float:
        return 1e3 * self.rtt_bound_s

    @property
    def rtt_at_max_load_ms(self) -> float:
        return 1e3 * self.rtt_at_max_load_s

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready dictionary view (seconds and derived milliseconds)."""
        return {
            "rtt_bound_s": self.rtt_bound_s,
            "rtt_bound_ms": self.rtt_bound_ms,
            "probability": self.probability,
            "max_load": self.max_load,
            "max_gamers": self.max_gamers,
            "rtt_at_max_load_s": self.rtt_at_max_load_s,
            "rtt_at_max_load_ms": self.rtt_at_max_load_ms,
        }


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of an admission-control question (serving-side Section 4).

    "Can this pipe take (more) gamers and keep the ``probability`` RTT
    quantile under ``rtt_budget_s``?" — answered by inverting the
    monotone load→quantile relation.  ``admitted`` is the verdict:
    the budget is meetable at some positive load and, when the request
    proposed an operating point (a load or gamer count), that point
    does not exceed the capacity.  An unmeetable budget is a *negative
    answer*, never an error — ``admitted=False`` with ``max_load=0``.

    ``source`` records which serving tier answered: ``"surface"`` when
    a certified quantile surface inverted the relation in O(1) with
    zero plans executed, ``"exact"`` for the stacked exact path (the
    bit-identical fallback).
    """

    rtt_budget_s: float
    probability: float
    admitted: bool
    max_load: float
    max_gamers: int
    rtt_at_max_load_s: float
    #: Proposed operating point (downlink load), if the request carried one.
    proposed_load: Optional[float] = None
    #: Which tier answered: "surface" (O(1) certified) or "exact".
    source: str = "exact"

    @property
    def rtt_budget_ms(self) -> float:
        return 1e3 * self.rtt_budget_s

    @property
    def rtt_at_max_load_ms(self) -> float:
        return 1e3 * self.rtt_at_max_load_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary view (seconds and derived milliseconds)."""
        out: Dict[str, Any] = {
            "rtt_budget_s": self.rtt_budget_s,
            "rtt_budget_ms": self.rtt_budget_ms,
            "probability": self.probability,
            "admitted": self.admitted,
            "max_load": self.max_load,
            "max_gamers": self.max_gamers,
            "rtt_at_max_load_s": self.rtt_at_max_load_s,
            "rtt_at_max_load_ms": self.rtt_at_max_load_ms,
            "source": self.source,
        }
        if self.proposed_load is not None:
            out["proposed_load"] = self.proposed_load
        return out


def capacity_search(
    scenario: Any, rtt_bound_s: float, ceiling: float, load_resolution: float
) -> Search[Tuple[Optional[float], float]]:
    """The exact load search shared by dimensioning and admission control.

    Yields downlink loads and is sent their RTT quantiles; returns
    ``(max_load, rtt_at_max_load_s)``, or ``(None, rtt_at_floor_s)``
    when the bound is missed even at the floor load.  The floor is the
    load of a single gamer, at least 1e-4, nudged up to the first load
    that really maps to at least one gamer (the load<->gamer round trip
    can land one ulp short), and then capped at ``ceiling / 2``.
    Between floor and ceiling, Brent's method brackets the bound to
    ``load_resolution``.  Like ``scipy.optimize.brentq``, Brent asks for
    the floor and ceiling again, and the root it returns is a load it has
    evaluated; a search-local memo answers those repeats, so every load
    is yielded once.
    """
    asked: Dict[float, float] = {}
    floor_load = max(scenario.load_for_gamers(1.0), 1e-4)
    while scenario.gamers_at_load(floor_load) < 1.0:
        floor_load = math.nextafter(floor_load, math.inf)
    floor_load = min(floor_load, ceiling / 2.0)
    rtt_floor = yield from _memoized(asked, floor_load)
    if rtt_floor > rtt_bound_s:
        return None, rtt_floor
    if (yield from _memoized(asked, ceiling)) <= rtt_bound_s:
        best_load = ceiling
    else:
        brent = _brent(floor_load, ceiling, load_resolution)
        load = next(brent)
        while True:
            try:
                load = brent.send((yield from _memoized(asked, load)) - rtt_bound_s)
            except StopIteration as stop:
                best_load = float(stop.value)
                break
    return best_load, (yield from _memoized(asked, best_load))


def admission_search(
    scenario: Any,
    rtt_budget_s: float,
    probability: float,
    *,
    surface: Any = None,
    load: Optional[float] = None,
    num_gamers: Optional[float] = None,
    load_resolution: float = 1e-3,
    max_load_ceiling: float = 0.98,
) -> Search[AdmissionResult]:
    """Admission control: can the pipe keep the quantile under budget?

    A suspended search (yields loads, is sent their RTT quantiles at
    ``probability``) for the largest load whose quantile meets the
    budget, compared against the (optional) proposed operating point —
    ``load`` or ``num_gamers``, at most one.  A certified ``surface``
    whose region brackets the budget answers from its O(1) inversion
    without yielding (``source="surface"``); otherwise
    :func:`capacity_search` runs (``source="exact"``).  An unmeetable
    budget is a *negative answer* (``admitted=False``, ``max_load=0``,
    the RTT at the floor load), never an error.
    """
    if not rtt_budget_s > 0.0:
        raise ParameterError("rtt_budget_s must be positive")
    if load is not None and num_gamers is not None:
        raise ParameterError("pass at most one of load= or num_gamers=")
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
    best_load = None
    if surface is not None:
        best_load = surface.invert_load(rtt_budget_s, probability, load_cap=ceiling)
    if best_load is None:
        source = "exact"
        best_load, rtt_at_best = yield from capacity_search(
            scenario, rtt_budget_s, ceiling, load_resolution
        )
    else:
        source, rtt_at_best = "surface", surface.lookup(best_load, probability)
    if best_load is None:
        # Over budget already at the minimum load: nobody is admitted,
        # and the floor RTT documents by how much.
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


def max_tolerable_load(
    rtt_bound_s: float,
    *,
    scenario: Optional[Any] = None,
    probability: float = DEFAULT_QUANTILE,
    method: str = "inversion",
    load_resolution: float = 1e-3,
    max_load_ceiling: float = 0.98,
    **scenario_kwargs: float,
) -> DimensioningResult:
    """Largest downlink load whose RTT quantile stays within ``rtt_bound_s``.

    Accepts either ``scenario=Scenario(...)`` or the historical keyword
    explosion (``tick_interval_s=..., client_packet_bytes=..., ...``),
    which is validated and packed into a
    :class:`~repro.scenarios.base.Scenario` on the fly.  Either way the
    search is delegated to :meth:`repro.engine.Engine.dimension`, so the
    bisection never evaluates the same operating point twice.
    """
    # Imported lazily: engine -> scenarios -> core would otherwise cycle.
    from ..engine import Engine
    from ..scenarios.base import Scenario

    if scenario is None:
        # Preserve the historical contract: these keywords had no
        # defaults, so omitting one must fail loudly rather than fall
        # back to the paper's DSL values.
        required = (
            "tick_interval_s",
            "client_packet_bytes",
            "server_packet_bytes",
            "erlang_order",
            "access_uplink_bps",
            "access_downlink_bps",
            "aggregation_rate_bps",
        )
        missing = [name for name in required if name not in scenario_kwargs]
        if missing:
            raise TypeError(
                f"max_tolerable_load() missing required keyword argument(s) "
                f"{missing}; pass scenario=Scenario(...) to use defaults"
            )
        scenario = Scenario.from_dict(scenario_kwargs)
    elif scenario_kwargs:
        raise ParameterError(
            "pass either scenario= or the individual scenario keywords, not both"
        )
    engine = Engine(scenario, probability=probability, method=method)
    return engine.dimension(
        rtt_bound_s,
        load_resolution=load_resolution,
        max_load_ceiling=max_load_ceiling,
    )


def max_gamers(rtt_bound_s: float, **kwargs) -> int:
    """Convenience wrapper returning only ``N_max``."""
    return max_tolerable_load(rtt_bound_s, **kwargs).max_gamers

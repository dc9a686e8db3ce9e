"""Adaptive construction of certified quantile surfaces.

The builder turns the exact stacked inversion into a precomputed
:class:`~repro.surface.lookup.QuantileSurface` with a *certified*
relative error bound:

1. evaluate the exact path on a tensor grid of Chebyshev–Gauss–Lobatto
   nodes over (load, u) — ``u = -log10(1 - p)`` — and least-squares fit
   a 2-D Chebyshev expansion of ``log(rtt_quantile_s)``;
2. bound the fit's relative error by probing a denser *uniform* grid
   against the exact path (worst observed error times a safety
   factor);
3. if the bound does not meet the caller's tolerance, refine to the
   next grid on a fixed ladder and repeat.

Fitting the logarithm makes the relative error of the surface the
absolute error of the fit, so one maximum over the probe grid bounds
the quantity callers actually care about; RTT quantiles of the
paper's model are smooth in both coordinates, so the Chebyshev error
decays geometrically up the ladder (the probe-grid maximum is a
reliable stand-in for the true maximum once multiplied by the safety
margin).  The certified bound is stored on the surface and rechecked
by the test suite and the benchmark gate against fresh exact
evaluations.

All exact evaluations are ``exact=True`` requests through a
:class:`repro.engine.Engine` and so through its fleet: each grid is one
stacked batch, and points the fleet's answer cache already holds (from
a shared engine, a lower ladder level or another method) are free.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.polynomial import chebyshev

from ..core.rtt import QUANTILE_METHODS
from ..errors import ConvergenceError, ParameterError
from ..scenarios.base import Scenario
from ..scenarios.mix import MixScenario
from ..scenarios.registry import scenario_from_spec
from .lookup import QuantileSurface, SurfaceIndex

if TYPE_CHECKING:  # the engine imports the fleet, which imports this package
    from ..engine import Engine

__all__ = ["GRID_LADDER", "build_surface", "build_surfaces"]

#: Grid refinement ladder as (load nodes, u nodes) per level.  The
#: Chebyshev error decays geometrically with the node count for smooth
#: surfaces, so a handful of roughly-\sqrt{2} steps spans tolerances
#: from quick-look (1e-3) to serving-grade (1e-6 and below).
GRID_LADDER: Tuple[Tuple[int, int], ...] = (
    (9, 5),
    (13, 7),
    (17, 9),
    (25, 11),
    (33, 13),
    (49, 17),
    (65, 21),
)

#: Certified bound = (worst probe-grid error) x SAFETY.  The probe grid
#: is offset from the fit nodes and several times denser, so the margin
#: covers the residual risk that the true maximum falls between probes.
SAFETY = 4.0

ScenarioLike = Union[Scenario, MixScenario]


def _resolve_scenario(scenario) -> ScenarioLike:
    if isinstance(scenario, (Scenario, MixScenario)):
        return scenario
    if isinstance(scenario, (str, os.PathLike)):
        return scenario_from_spec(scenario)
    if isinstance(scenario, Mapping):
        return Scenario.from_dict(scenario)
    raise TypeError(
        "expected a Scenario, MixScenario, preset name/path or parameter "
        f"mapping, got {type(scenario).__name__}"
    )


def _lobatto_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    """Chebyshev–Gauss–Lobatto nodes mapped onto ``[lo, hi]``, ascending."""
    k = np.arange(count, dtype=float)
    reference = -np.cos(np.pi * k / (count - 1))  # -1 .. 1 inclusive
    return lo + (hi - lo) * (reference + 1.0) / 2.0


def _to_reference(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return 2.0 * (values - lo) / (hi - lo) - 1.0


def _nines(probability: float) -> float:
    return float(-np.log10(1.0 - probability))


def _log_quantile_grid(
    engine: Engine,
    loads: np.ndarray,
    u_values: np.ndarray,
    method: str,
) -> np.ndarray:
    """``log(rtt_quantile_s)`` on the tensor grid, as one fleet batch.

    The plans keep every quantile level of one load together, so each
    operating point's model is built once.
    """
    probabilities = [1.0 - 10.0 ** (-float(u)) for u in u_values]
    quantiles = engine.rtt_quantiles(
        np.repeat(loads, len(probabilities)).tolist(),
        probabilities * len(loads),
        method,
    )
    grid = np.asarray(quantiles, dtype=float).reshape(len(loads), len(probabilities))
    if not (np.isfinite(grid).all() and (grid > 0.0).all()):
        raise ConvergenceError(
            "exact quantile evaluation produced non-positive or non-finite "
            "values; the requested region is not certifiable"
        )
    return np.log(grid)


def _fit_coefficients(
    x_nodes: np.ndarray, y_nodes: np.ndarray, log_grid: np.ndarray
) -> np.ndarray:
    """Least-squares 2-D Chebyshev coefficients on the node grid."""
    degree_x = len(x_nodes) - 1
    degree_y = len(y_nodes) - 1
    mesh_x, mesh_y = np.meshgrid(x_nodes, y_nodes, indexing="ij")
    vander = chebyshev.chebvander2d(
        mesh_x.ravel(), mesh_y.ravel(), [degree_x, degree_y]
    )
    solution, _, _, _ = np.linalg.lstsq(vander, log_grid.ravel(), rcond=None)
    return solution.reshape(degree_x + 1, degree_y + 1)


def build_surface(
    scenario,
    method: str = "inversion",
    *,
    probability_lo: float = 0.99,
    probability_hi: float = 0.999999,
    load_lo: Optional[float] = None,
    load_hi: Optional[float] = None,
    tolerance: float = 1e-6,
    probe_factor: int = 3,
    engine: Optional[Engine] = None,
    grid_ladder: Sequence[Tuple[int, int]] = GRID_LADDER,
) -> QuantileSurface:
    """Fit and certify one quantile surface for (scenario, method).

    Parameters
    ----------
    scenario:
        A :class:`Scenario`/:class:`MixScenario`, a registry preset
        name or JSON path, or a parameter mapping.
    method:
        Quantile evaluation method the surface must reproduce.
    probability_lo / probability_hi:
        Quantile-level extent of the region (default: two to six
        nines, bracketing the paper's 0.99999 operating point).
    load_lo / load_hi:
        Downlink-load extent.  Defaults to the scenario's stable
        operating region: from one gamer's load (but at least 0.05,
        below which quantiles are flat) up to
        ``stable_load_ceiling(0.90)``.
    tolerance:
        Relative error bound to certify (default ``1e-6``).
    probe_factor:
        Densification of the certification grid versus the fit grid.
    engine:
        Optional shared :class:`Engine` for the exact evaluations
        (must wrap an equal scenario); one is created when omitted.
    grid_ladder:
        The (load nodes, u nodes) refinement schedule.

    Raises
    ------
    ConvergenceError
        If the ladder is exhausted without certifying ``tolerance``.
    """
    scenario = _resolve_scenario(scenario)
    if method not in QUANTILE_METHODS:
        raise ParameterError(
            f"method must be one of {QUANTILE_METHODS}; got {method!r}"
        )
    if not 0.0 < probability_lo < probability_hi < 1.0:
        raise ParameterError(
            "surface region requires 0 < probability_lo < probability_hi < 1"
        )
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ParameterError("tolerance must be positive and finite")
    if int(probe_factor) < 2:
        raise ParameterError("probe_factor must be at least 2")
    probe_factor = int(probe_factor)
    ladder = [(int(n_load), int(n_u)) for n_load, n_u in grid_ladder]
    if not ladder:
        raise ParameterError("grid_ladder must contain at least one grid")
    for n_load, n_u in ladder:
        if n_load < 4 or n_u < 3:
            raise ParameterError(
                "grid_ladder entries need at least 4 load and 3 probability nodes"
            )

    if load_lo is None:
        # One gamer is the smallest meaningful operating point; 0.05
        # keeps the region inside the regime the sweeps exercise.
        load_lo = max(scenario.load_for_gamers(1.0 + 1e-9), 0.05)
    load_lo = float(load_lo)
    load_hi = float(
        scenario.stable_load_ceiling(0.90) if load_hi is None else load_hi
    )
    if not 0.0 < load_lo < load_hi < 1.0:
        raise ParameterError(
            f"surface region requires 0 < load_lo < load_hi < 1; got "
            f"[{load_lo}, {load_hi}]"
        )
    if scenario.gamers_at_load(load_lo) < 1.0:
        raise ParameterError(
            f"load_lo {load_lo:.4f} corresponds to fewer than one gamer; "
            "raise it to at least scenario.load_for_gamers(1.0)"
        )

    if engine is None:
        from ..engine import Engine

        engine = Engine(scenario, method=method)
    elif engine.scenario != scenario:
        raise ParameterError(
            "the shared engine wraps a different scenario than the surface "
            "being built"
        )

    u_lo = _nines(probability_lo)
    u_hi = _nines(probability_hi)

    exact_evaluations = 0
    best: Optional[Tuple[np.ndarray, float, Tuple[int, int], int]] = None
    for level, (n_load, n_u) in enumerate(ladder, start=1):
        load_nodes = _lobatto_nodes(load_lo, load_hi, n_load)
        u_nodes = _lobatto_nodes(u_lo, u_hi, n_u)
        log_grid = _log_quantile_grid(engine, load_nodes, u_nodes, method)
        exact_evaluations += load_nodes.size * u_nodes.size
        coef = _fit_coefficients(
            _to_reference(load_nodes, load_lo, load_hi),
            _to_reference(u_nodes, u_lo, u_hi),
            log_grid,
        )

        probe_loads = np.linspace(load_lo, load_hi, probe_factor * n_load + 1)
        probe_u = np.linspace(u_lo, u_hi, probe_factor * n_u + 1)
        exact_log = _log_quantile_grid(engine, probe_loads, probe_u, method)
        exact_evaluations += probe_loads.size * probe_u.size
        mesh_x, mesh_y = np.meshgrid(
            _to_reference(probe_loads, load_lo, load_hi),
            _to_reference(probe_u, u_lo, u_hi),
            indexing="ij",
        )
        fitted_log = chebyshev.chebval2d(mesh_x, mesh_y, coef)
        # expm1(log a - log z) is exactly (a - z) / z: the probe error
        # is measured in the relative metric the bound is stated in.
        probe_error = float(np.max(np.abs(np.expm1(fitted_log - exact_log))))
        certified = max(probe_error * SAFETY, np.finfo(float).tiny)
        if best is None or certified < best[1]:
            best = (coef, certified, (n_load, n_u), level)
        if certified <= tolerance:
            return QuantileSurface(
                scenario_key=scenario.cache_key(),
                scenario=scenario.to_dict(),
                method=method,
                load_lo=load_lo,
                load_hi=load_hi,
                probability_lo=probability_lo,
                probability_hi=probability_hi,
                coef=coef,
                certified_rel_bound=certified,
                tolerance=tolerance,
                build_info={
                    "grid": [n_load, n_u],
                    "ladder_level": level,
                    "probe_rel_error": probe_error,
                    "probe_grid": [probe_loads.size, probe_u.size],
                    "safety": SAFETY,
                    "exact_evaluations": exact_evaluations,
                },
            )

    assert best is not None
    raise ConvergenceError(
        f"could not certify relative tolerance {tolerance:g} for "
        f"{scenario.describe()!r} / {method}: best bound {best[1]:.3g} at "
        f"grid {best[2]} after {best[3]} refinement(s); loosen the "
        "tolerance or extend the grid ladder",
        iterations=best[3],
    )


def build_surfaces(
    scenario,
    methods: Union[str, Sequence[str], None] = ("inversion",),
    **kwargs: Any,
) -> SurfaceIndex:
    """Build certified surfaces for several methods of one scenario.

    ``methods`` is a sequence of method names, a single name, or
    ``"all"``/``None`` for every method in
    :data:`~repro.core.rtt.QUANTILE_METHODS`.  One shared
    :class:`Engine` serves all builds, so they share its fleet's answer
    cache.  Keyword arguments are
    forwarded to :func:`build_surface`.
    """
    scenario = _resolve_scenario(scenario)
    if methods is None or methods == "all":
        methods = QUANTILE_METHODS
    elif isinstance(methods, str):
        methods = (methods,)
    methods = tuple(methods)
    if not methods:
        raise ParameterError("methods must name at least one quantile method")
    engine = kwargs.pop("engine", None)
    if engine is None:
        from ..engine import Engine

        engine = Engine(scenario)
    index = SurfaceIndex()
    for method in methods:
        index.add(build_surface(scenario, method, engine=engine, **kwargs))
    return index

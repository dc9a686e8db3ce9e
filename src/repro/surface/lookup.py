"""O(1) certified-surface lookups for steady-state serving.

A :class:`QuantileSurface` is a tensor-product Chebyshev fit of the
**logarithm** of the RTT quantile over a rectangle of the scenario's
stable operating region, in the coordinates

* ``load`` — downlink load on the aggregation link, and
* ``u = -log10(1 - probability)`` — the "number of nines" of the
  quantile level, which turns the geometric spacing of interesting
  probabilities (0.99, 0.999, … 0.999999) into a uniform axis.

The fit is produced by :mod:`repro.surface.builder`, which *certifies*
a relative error bound against the exact stacked inversion before a
surface is ever handed out: every lookup inside the region is
guaranteed within ``certified_rel_bound`` of the exact answer, and the
bound travels with the surface (including through persistence).

A :class:`SurfaceIndex` holds surfaces keyed by
``(scenario.cache_key(), method)`` — the same key namespace the fleet
uses for sharding — and implements the serving-side triage
(:meth:`SurfaceIndex.probe`): *hit* when a surface answers, *miss*
when no surface exists for the key, *fallback* when one exists but
must not answer (exact floats requested, point out of region, or the
certified bound looser than the caller tolerates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..core.inversion import _brent, drive
from ..errors import ParameterError

__all__ = ["QuantileSurface", "SurfaceIndex"]


def _nines(probability: float) -> float:
    """The ``u = -log10(1 - p)`` axis coordinate of a quantile level."""
    return -math.log10(1.0 - probability)


def _chebyshev_t(t: float, count: int) -> np.ndarray:
    """``[T_0(t), …, T_{count-1}(t)]`` by the three-term recurrence.

    A scalar ``numpy.polynomial.chebyshev.chebval2d`` call costs ~80 µs
    in array bookkeeping; building the T-vectors in plain floats and
    contracting them against the coefficient matrix with two dot
    products evaluates the same expansion (to machine precision) in
    ~10 µs — the difference between a 30x and a 200x+ speedup over the
    exact path.
    """
    previous, current = 1.0, t
    values = [1.0, t]
    for _ in range(count - 2):
        previous, current = current, 2.0 * t * current - previous
        values.append(current)
    return np.asarray(values[:count])


@dataclass(frozen=True)
class QuantileSurface:
    """One certified Chebyshev surface: (load, probability) -> RTT (s).

    Instances are built by :func:`repro.surface.builder.build_surface`
    or deserialized by :mod:`repro.surface.store`; constructing one by
    hand bypasses certification and is only sensible in tests.

    Attributes
    ----------
    scenario_key:
        ``scenario.cache_key()`` of the scenario the surface was fit
        for — the fleet's sharding/cache key namespace.
    scenario:
        Plain-dictionary form of that scenario (round-trips through
        :meth:`repro.scenarios.base.Scenario.from_dict`, including
        multi-server mixes).
    method:
        Quantile evaluation method the surface reproduces.
    load_lo / load_hi:
        Downlink-load extent of the certified region.
    probability_lo / probability_hi:
        Quantile-level extent of the certified region.
    coef:
        2-D Chebyshev coefficient matrix of ``log(rtt_quantile_s)``
        over the mapped ``[-1, 1]^2`` domain (load axis first).
    certified_rel_bound:
        Certified relative error bound versus the exact stacked path;
        every in-region lookup is within this bound.
    tolerance:
        The tolerance the builder was asked to certify (the bound is
        at most this).
    build_info:
        Free-form provenance from the builder (grid shape, probe
        error, …); not consulted at lookup time.
    """

    scenario_key: str
    scenario: Mapping[str, Any]
    method: str
    load_lo: float
    load_hi: float
    probability_lo: float
    probability_hi: float
    coef: np.ndarray
    certified_rel_bound: float
    tolerance: float
    build_info: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        coef = np.asarray(self.coef, dtype=float)
        if coef.ndim != 2 or coef.size == 0:
            raise ParameterError(
                "surface coefficients must form a non-empty 2-D matrix"
            )
        if not np.isfinite(coef).all():
            raise ParameterError("surface coefficients must be finite")
        object.__setattr__(self, "coef", coef)
        if not self.load_lo < self.load_hi:
            raise ParameterError("surface requires load_lo < load_hi")
        if not 0.0 < self.load_lo:
            raise ParameterError("surface loads must be positive")
        if not self.load_hi < 1.0:
            raise ParameterError("surface loads must stay below 1 (stability)")
        if not 0.0 < self.probability_lo < self.probability_hi < 1.0:
            raise ParameterError(
                "surface requires 0 < probability_lo < probability_hi < 1"
            )
        if not (
            math.isfinite(self.certified_rel_bound)
            and self.certified_rel_bound > 0.0
        ):
            raise ParameterError("certified_rel_bound must be positive and finite")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ParameterError("tolerance must be positive and finite")

    # ------------------------------------------------------------------
    # Region membership and evaluation
    # ------------------------------------------------------------------
    def covers(self, downlink_load: float, probability: float) -> bool:
        """Whether an operating point lies inside the certified region."""
        return (
            self.load_lo <= downlink_load <= self.load_hi
            and self.probability_lo <= probability <= self.probability_hi
        )

    def lookup(self, downlink_load: float, probability: float) -> float:
        """RTT quantile (seconds) by surface evaluation — O(1).

        Raises :class:`~repro.errors.ParameterError` outside the
        certified region; the bound only holds inside it, so serving
        layers must fall back to the exact path there instead.
        """
        if not self.covers(downlink_load, probability):
            raise ParameterError(
                f"operating point (load={downlink_load!r}, "
                f"probability={probability!r}) lies outside the certified "
                f"region [{self.load_lo}, {self.load_hi}] x "
                f"[{self.probability_lo}, {self.probability_hi}]"
            )
        x = 2.0 * (downlink_load - self.load_lo) / (self.load_hi - self.load_lo) - 1.0
        u_lo = _nines(self.probability_lo)
        u_hi = _nines(self.probability_hi)
        y = 2.0 * (_nines(probability) - u_lo) / (u_hi - u_lo) - 1.0
        t_load = _chebyshev_t(x, self.coef.shape[0])
        t_level = _chebyshev_t(y, self.coef.shape[1])
        return float(math.exp(t_load @ self.coef @ t_level))

    def invert_load(
        self,
        rtt_budget_s: float,
        probability: float,
        *,
        load_cap: Optional[float] = None,
        xtol: float = 1e-6,
    ) -> Optional[float]:
        """Largest load whose surface RTT stays within ``rtt_budget_s``.

        Inverts the monotone load→quantile relation at a fixed quantile
        level by Brent's method on the O(1) :meth:`lookup` — the
        admission-control fast path: certified, and zero evaluation
        plans executed.  ``load_cap`` (typically the scenario's stable
        load ceiling) truncates the search above.

        Returns ``None`` whenever the surface cannot *certify* the
        answer — the level is outside the certified region, or the
        capacity bound lies at or beyond a region edge where the true
        root may escape the region — in which case the caller must fall
        back to the exact path.  The one edge the surface may still
        answer is saturation at the cap: when the cap itself lies
        in-region and its RTT meets the budget, the capacity *is* the
        cap.
        """
        if not (
            math.isfinite(rtt_budget_s) and rtt_budget_s > 0.0
        ):
            raise ParameterError("rtt_budget_s must be positive and finite")
        if not self.probability_lo <= probability <= self.probability_hi:
            return None
        hi = self.load_hi if load_cap is None else min(self.load_hi, float(load_cap))
        lo = self.load_lo
        if not lo < hi:
            return None
        excess_lo = self.lookup(lo, probability) - rtt_budget_s
        excess_hi = self.lookup(hi, probability) - rtt_budget_s
        if excess_lo >= 0.0:
            # Over budget already at the region's low edge: the true
            # capacity (if any) lies below load_lo, out of region.
            return None
        if excess_hi <= 0.0:
            # Within budget all the way up to ``hi``.  Certify only the
            # saturated case where ``hi`` is the caller's cap (not the
            # region edge, beyond which the true capacity may escape).
            if load_cap is not None and float(load_cap) <= self.load_hi:
                return hi
            return None
        def excess(load: float) -> float:
            return self.lookup(float(load), probability) - rtt_budget_s

        return float(drive(_brent(lo, hi, xtol), excess))

    # ------------------------------------------------------------------
    # Serialization (consumed by repro.surface.store)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary form (floats round-trip exactly)."""
        return {
            "scenario_key": self.scenario_key,
            "scenario": dict(self.scenario),
            "method": self.method,
            "load_lo": self.load_lo,
            "load_hi": self.load_hi,
            "probability_lo": self.probability_lo,
            "probability_hi": self.probability_hi,
            "coef": [[float(c) for c in row] for row in self.coef],
            "certified_rel_bound": self.certified_rel_bound,
            "tolerance": self.tolerance,
            "build_info": dict(self.build_info),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantileSurface":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        if not isinstance(data, Mapping):
            raise ParameterError("a surface entry must be an object")
        try:
            return cls(
                scenario_key=str(data["scenario_key"]),
                scenario=dict(data["scenario"]),
                method=str(data["method"]),
                load_lo=float(data["load_lo"]),
                load_hi=float(data["load_hi"]),
                probability_lo=float(data["probability_lo"]),
                probability_hi=float(data["probability_hi"]),
                coef=np.asarray(data["coef"], dtype=float),
                certified_rel_bound=float(data["certified_rel_bound"]),
                tolerance=float(data["tolerance"]),
                build_info=dict(data.get("build_info", {})),
            )
        except KeyError as exc:
            raise ParameterError(f"surface entry is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ParameterError):
                raise
            raise ParameterError(f"surface entry is malformed: {exc}") from exc


class SurfaceIndex:
    """Certified surfaces keyed by ``(scenario_key, method)``.

    The collection type every consumer passes around: the builder
    returns one, the store loads/saves one, the fleet probes one.
    """

    def __init__(self, surfaces: Optional[Mapping[Tuple[str, str], QuantileSurface]] = None) -> None:
        self._surfaces: Dict[Tuple[str, str], QuantileSurface] = {}
        if surfaces:
            for surface in surfaces.values():
                self.add(surface)

    def __len__(self) -> int:
        return len(self._surfaces)

    def __iter__(self) -> Iterator[QuantileSurface]:
        return iter(self._surfaces.values())

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._surfaces

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = sorted(self._surfaces)
        return f"SurfaceIndex({keys!r})"

    def add(self, surface: QuantileSurface) -> None:
        """Insert (or replace) the surface for its (scenario, method)."""
        if not isinstance(surface, QuantileSurface):
            raise TypeError(
                f"expected a QuantileSurface, got {type(surface).__name__}"
            )
        self._surfaces[(surface.scenario_key, surface.method)] = surface

    def get(self, scenario_key: str, method: str) -> Optional[QuantileSurface]:
        """The surface for a (scenario key, method), or ``None``."""
        return self._surfaces.get((scenario_key, method))

    def scenario_keys(self) -> Tuple[str, ...]:
        """The distinct scenario keys with at least one surface."""
        return tuple(sorted({key for key, _ in self._surfaces}))

    # ------------------------------------------------------------------
    # Serving triage
    # ------------------------------------------------------------------
    def probe(
        self,
        scenario_key: str,
        method: str,
        downlink_load: float,
        probability: float,
        *,
        exact: bool = False,
        max_bound: Optional[float] = None,
    ) -> Tuple[Optional[float], str]:
        """Try to answer a resolved operating point from a surface.

        Returns ``(value_s, outcome)`` where the outcome is

        * ``"hit"`` — the surface answered (``value_s`` is the RTT in
          seconds, certified within the surface's stored bound);
        * ``"miss"`` — no surface is indexed for this (scenario,
          method); the caller proceeds exactly as without surfaces;
        * ``"fallback"`` — a surface exists but must not answer: the
          caller requested exact floats, the point is outside the
          certified region, or the certified bound is looser than
          ``max_bound``.  ``value_s`` is ``None`` for both non-hits.
        """
        surface = self._surfaces.get((scenario_key, method))
        if surface is None:
            return None, "miss"
        if (
            exact
            or (max_bound is not None and surface.certified_rel_bound > max_bound)
            or not surface.covers(downlink_load, probability)
        ):
            return None, "fallback"
        return surface.lookup(downlink_load, probability), "hit"

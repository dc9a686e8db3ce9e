"""The canonical access-network scenario type.

Every computation in the package — the analytical RTT model, the
dimensioning rules, the parameter sweeps, the discrete-event simulator —
is parameterized by the same small tuple: packet sizes, tick interval,
burst Erlang order and the three link rates of the Figure 2
architecture.  :class:`Scenario` captures that tuple once, as a frozen,
validated, serializable value object; the rest of the package consumes
it instead of threading nine keyword arguments through every layer.

A :class:`Scenario` knows how to

* validate itself on construction,
* round-trip through plain dictionaries and JSON (``to_dict`` /
  ``from_dict`` / ``to_json`` / ``from_json`` / ``save`` / ``load``),
* derive variants (``derive(**overrides)`` and the named ``with_*``
  helpers),
* convert between downlink load, uplink load and number of gamers
  (eq. (37) of the paper), and
* build :class:`~repro.core.rtt.PingTimeModel` instances at a given load
  or gamer count.

Cached/batched evaluation on top of a scenario lives in
:class:`repro.engine.Engine`; named presets live in
:mod:`repro.scenarios.registry`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from ..core import PingTimeModel
from ..core.dimensioning import gamers_for_load, load_for_gamers
from ..errors import ParameterError
from ..units import require_non_negative, require_positive

__all__ = ["Scenario", "ScenarioSerializationMixin"]


class ScenarioSerializationMixin:
    """JSON and cache-key plumbing shared by every scenario type.

    Concrete classes (:class:`Scenario`, the multi-server
    :class:`~repro.scenarios.mix.MixScenario`) provide ``to_dict`` /
    ``from_dict``; this mixin derives the JSON round-trip, the file
    persistence and — critically — the canonical cache-key scheme
    (sorted-key single-line JSON, sha256 prefix) from them, so the key
    namespace used by :class:`repro.fleet.Fleet` for sharding and cache
    persistence can never drift between scenario families.
    """

    def to_json(self, indent: int = 2) -> str:
        """JSON rendering of ``to_dict``."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ParameterError("a scenario JSON document must be an object")
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """Deterministic single-line JSON rendering (sorted keys).

        The serialization backing :meth:`cache_key`: two scenarios have
        the same canonical JSON exactly when they are equal, and the
        rendering is stable across processes and sessions (``repr``
        round-trips every float exactly).
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        """Canonical sharding/cache key of the scenario.

        A short hex digest of :meth:`canonical_json`, stable across
        processes, used by :class:`repro.fleet.Fleet` to key its answer cache
        and persisted caches.  Equal scenarios —
        however they were constructed — share the key; any parameter
        change produces a different one.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def save(self, path: Union[str, Path]) -> None:
        """Write the scenario to ``path`` as JSON."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]):
        """Read a scenario previously written with :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Scenario(ScenarioSerializationMixin):
    """One access-network parameter combination (defaults: Section 4 DSL).

    Parameters
    ----------
    client_packet_bytes:
        Upstream packet size ``P_C`` in bytes (80 in Section 4).
    server_packet_bytes:
        Downstream per-client packet size ``P_S`` in bytes.
    tick_interval_s:
        Server tick / client update interval ``T`` in seconds.
    erlang_order:
        Erlang order ``K`` of the downstream burst-size distribution.
    access_uplink_bps / access_downlink_bps:
        Per-user access rates ``R_up`` / ``R_down`` in bit/s.
    aggregation_rate_bps:
        Capacity ``C`` dedicated to gaming on the bottleneck link, bit/s.
    propagation_delay_s:
        One-way propagation delay added twice to the RTT (default 0).
    server_processing_s:
        Server processing time added once to the RTT (default 0).
    """

    client_packet_bytes: float = 80.0
    server_packet_bytes: float = 125.0
    tick_interval_s: float = 0.060
    erlang_order: int = 9
    access_uplink_bps: float = 128_000.0
    access_downlink_bps: float = 1_024_000.0
    aggregation_rate_bps: float = 5_000_000.0
    propagation_delay_s: float = 0.0
    server_processing_s: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.client_packet_bytes, "client_packet_bytes")
        require_positive(self.server_packet_bytes, "server_packet_bytes")
        require_positive(self.tick_interval_s, "tick_interval_s")
        if self.erlang_order < 2:
            raise ParameterError("erlang_order must be >= 2")
        require_positive(self.access_uplink_bps, "access_uplink_bps")
        require_positive(self.access_downlink_bps, "access_downlink_bps")
        require_positive(self.aggregation_rate_bps, "aggregation_rate_bps")
        require_non_negative(self.propagation_delay_s, "propagation_delay_s")
        require_non_negative(self.server_processing_s, "server_processing_s")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dictionary view of the scenario (JSON-ready)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Build a scenario from a (possibly partial) parameter mapping.

        Missing keys fall back to the class defaults; unknown keys raise
        :class:`~repro.errors.ParameterError` so that typos do not pass
        silently.  Values are coerced to their field types.

        A mapping tagged ``"type": "mix"`` describes a multi-server
        :class:`~repro.scenarios.mix.MixScenario` and is dispatched
        there, so persisted caches, JSONL request files and ``load``-ed
        documents round-trip mixes through the same entry point.
        """
        if data.get("type") == "mix":
            from .mix import MixScenario  # local import: mix builds on base

            return MixScenario.from_dict(data)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParameterError(
                f"unknown scenario parameter(s) {unknown}; known: {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            if name == "erlang_order":
                kwargs[name] = int(value)
            else:
                kwargs[name] = float(value)
        return cls(**kwargs)

    # to_json / from_json / canonical_json / cache_key / save / load
    # come from ScenarioSerializationMixin (shared with MixScenario).

    def describe(self) -> str:
        """Short human-readable label (used by sweep series)."""
        return f"K={self.erlang_order}, T={self.tick_interval_s * 1e3:.0f}ms"

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def derive(self, **overrides: Any) -> "Scenario":
        """Copy of the scenario with the given parameters replaced.

        Unknown parameter names raise
        :class:`~repro.errors.ParameterError`; the derived scenario is
        re-validated on construction.
        """
        return type(self).from_dict({**self.to_dict(), **overrides})

    def with_erlang_order(self, order: int) -> "Scenario":
        """Copy of the scenario with a different burst Erlang order."""
        return self.derive(erlang_order=order)

    def with_tick_interval(self, tick_interval_s: float) -> "Scenario":
        """Copy of the scenario with a different tick interval."""
        return self.derive(tick_interval_s=tick_interval_s)

    def with_server_packet_bytes(self, server_packet_bytes: float) -> "Scenario":
        """Copy of the scenario with a different server packet size."""
        return self.derive(server_packet_bytes=server_packet_bytes)

    # ------------------------------------------------------------------
    # Load / gamer conversions (eq. 37)
    # ------------------------------------------------------------------
    def gamers_at_load(self, downlink_load: float) -> float:
        """Number of gamers that realises ``downlink_load`` (may be fractional)."""
        return gamers_for_load(
            downlink_load,
            self.tick_interval_s,
            self.aggregation_rate_bps,
            self.server_packet_bytes,
        )

    def load_for_gamers(self, num_gamers: float) -> float:
        """Downlink load generated by ``num_gamers`` players."""
        return load_for_gamers(
            num_gamers,
            self.tick_interval_s,
            self.aggregation_rate_bps,
            self.server_packet_bytes,
        )

    def uplink_load_for(self, downlink_load: float) -> float:
        """Uplink aggregation load realised at ``downlink_load`` downstream.

        Both loads are carried by the same gamers, so they differ only by
        the packet-size ratio: ``rho_u = rho_d * P_C / P_S``.
        """
        if not 0.0 < downlink_load < 1.0:
            raise ParameterError("downlink_load must lie in (0, 1)")
        return downlink_load * self.client_packet_bytes / self.server_packet_bytes

    def downlink_load_for(self, uplink_load: float) -> float:
        """Downlink aggregation load realised at ``uplink_load`` upstream."""
        if not 0.0 < uplink_load < 1.0:
            raise ParameterError("uplink_load must lie in (0, 1)")
        return uplink_load * self.server_packet_bytes / self.client_packet_bytes

    def stable_load_ceiling(self, max_load_ceiling: float = 0.98) -> float:
        """Largest downlink load keeping both aggregation queues stable.

        The uplink load is ``rho_d * P_C / P_S``; when ``P_C > P_S`` the
        uplink saturates first and caps the usable downlink load.
        """
        if not 0.0 < max_load_ceiling < 1.0:
            raise ParameterError("max_load_ceiling must lie in (0, 1)")
        uplink_ceiling = (
            max_load_ceiling * self.server_packet_bytes / self.client_packet_bytes
        )
        return min(max_load_ceiling, uplink_ceiling)

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def model_kwargs(self) -> Dict[str, Any]:
        """The scenario as :class:`PingTimeModel` keyword arguments."""
        return self.to_dict()

    def model_at_load(self, downlink_load: float) -> PingTimeModel:
        """RTT model at the given downlink load on the aggregation link."""
        return PingTimeModel.from_downlink_load(downlink_load, **self.model_kwargs())

    def model_for_gamers(self, num_gamers: float) -> PingTimeModel:
        """RTT model for an explicit number of gamers."""
        return PingTimeModel(num_gamers=num_gamers, **self.model_kwargs())


# ----------------------------------------------------------------------
# The parameter sets of the paper's Section 4 DSL study: the client
# packet size is 80 byte, the DSL access rates are 128 kbit/s up and
# 1024 kbit/s down, the gaming share of the aggregation link is 5 Mbit/s
# (the Scenario defaults); the server packet size, tick interval and
# Erlang order vary.
# ----------------------------------------------------------------------
#: The Erlang orders examined in Section 4.
PAPER_ERLANG_ORDERS = (2, 9, 20)

#: The tick intervals examined in Section 4 (seconds).
PAPER_TICK_INTERVALS_S = (0.040, 0.060)

#: The server packet sizes examined in Section 4 (bytes).
PAPER_SERVER_PACKET_SIZES = (75.0, 100.0, 125.0)

#: The baseline parameter set used for Figure 3 (P_S = 125 byte, T = 60 ms).
PAPER_BASELINE = Scenario()

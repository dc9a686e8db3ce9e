"""Named scenario presets.

The registry maps short names to ready-made :class:`Scenario` values so
that experiments, the CLI (``--scenario <name>``) and batch jobs can
refer to a parameter combination without spelling out nine numbers.

Four families are registered by default:

* the paper's Section 4 DSL scenario and its tick-interval variant,
* access-technology profiles beyond DSL (cable, FTTH, LTE-style, and a
  LEO-satellite profile whose propagation delay dominates the budget)
  that keep the paper's traffic parameters but change the link rates,
* workload variants of the DSL baseline (a mixed-background-traffic
  profile where non-gaming flows occupy part of the aggregation
  capacity dedicated to gaming, and a cloud-gaming profile with much
  larger downstream packets on a far shorter tick), and
* per-game traffic presets derived from the published characteristics
  in :mod:`repro.traffic.games` (Tables 1-3 of the paper): the game's
  mean server/client packet sizes and tick interval replace the Section
  4 placeholders, the access network staying the DSL baseline, and
* the ``multi-game-dsl`` multi-server mix: three of those game presets
  multiplexed on one reserved 10 Mbit/s pipe (a
  :class:`~repro.scenarios.mix.MixScenario`, the Section 3.2 N*D/G/1
  workload).

``scenario_from_spec`` additionally resolves a path to a JSON file
written with :meth:`Scenario.save` or :meth:`MixScenario.save`, which
is what the CLI accepts.
"""

from __future__ import annotations

import os
from typing import Dict, List, Union

from ..traffic.games import counter_strike, half_life, halo, quake3, unreal_tournament
from .base import PAPER_BASELINE, Scenario
from .mix import MixScenario, ScenarioLike

__all__ = [
    "SCENARIO_PRESETS",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "scenario_from_spec",
]


def _game_presets() -> Dict[str, Scenario]:
    """Scenarios carrying each game's published traffic characteristics.

    The packet sizes and tick intervals come straight from the
    ``PUBLISHED`` records of :mod:`repro.traffic.games`; ranges are
    represented by their midpoint.  The access network stays the DSL
    baseline so the presets isolate the effect of the game traffic.
    """
    cs = counter_strike.PUBLISHED
    hl = half_life.PUBLISHED
    ut = unreal_tournament.PUBLISHED
    q3 = quake3.PUBLISHED
    halo_players = 4
    return {
        "counter-strike": PAPER_BASELINE.derive(
            server_packet_bytes=cs.server_packet_mean_bytes,
            client_packet_bytes=cs.client_packet_mean_bytes,
            tick_interval_s=cs.server_iat_mean_ms / 1e3,
        ),
        "half-life": PAPER_BASELINE.derive(
            server_packet_bytes=half_life.MAP_PROFILES["de_dust"][0],
            client_packet_bytes=sum(hl.client_packet_range_bytes) / 2.0,
            tick_interval_s=hl.server_iat_mean_ms / 1e3,
        ),
        "halo": PAPER_BASELINE.derive(
            server_packet_bytes=halo.server_packet_bytes(halo_players),
            client_packet_bytes=halo.client_packet_bytes(halo_players),
            tick_interval_s=halo.PUBLISHED.server_iat_ms / 1e3,
        ),
        "quake3": PAPER_BASELINE.derive(
            server_packet_bytes=sum(q3.server_packet_range_bytes) / 2.0,
            client_packet_bytes=sum(q3.client_packet_range_bytes) / 2.0,
            tick_interval_s=q3.server_iat_ms / 1e3,
        ),
        "unreal-tournament": PAPER_BASELINE.derive(
            server_packet_bytes=ut.server_packet_mean_bytes,
            client_packet_bytes=ut.client_packet_mean_bytes,
            tick_interval_s=ut.burst_iat_mean_ms / 1e3,
            erlang_order=min(ut.erlang_order_from_tail),
        ),
    }


#: The per-game traffic presets, shared by the flat registry below and
#: the multi-server mix preset that multiplexes three of them.
_GAME_PRESETS = _game_presets()

#: The built-in presets.  Access profiles: the DSL baseline of the paper,
#: plus cable / FTTH / LTE-style rate sets with the same gaming traffic.
SCENARIO_PRESETS: Dict[str, ScenarioLike] = {
    "paper-dsl": PAPER_BASELINE,
    "paper-dsl-tick40": PAPER_BASELINE.derive(tick_interval_s=0.040),
    "cable": PAPER_BASELINE.derive(
        access_uplink_bps=2_000_000.0,
        access_downlink_bps=20_000_000.0,
        aggregation_rate_bps=50_000_000.0,
    ),
    "ftth": PAPER_BASELINE.derive(
        access_uplink_bps=100_000_000.0,
        access_downlink_bps=100_000_000.0,
        aggregation_rate_bps=1_000_000_000.0,
    ),
    "lte": PAPER_BASELINE.derive(
        access_uplink_bps=10_000_000.0,
        access_downlink_bps=50_000_000.0,
        aggregation_rate_bps=100_000_000.0,
        propagation_delay_s=0.005,
    ),
    # LEO-satellite access (Starlink-style): generous link rates, but a
    # ~25 ms one-way propagation delay (user terminal -> satellite ->
    # ground station -> PoP) that dwarfs every queueing component and
    # eats most of the paper's 50 ms "excellent play" budget on its own.
    "satellite-leo": PAPER_BASELINE.derive(
        access_uplink_bps=15_000_000.0,
        access_downlink_bps=150_000_000.0,
        aggregation_rate_bps=500_000_000.0,
        propagation_delay_s=0.025,
    ),
    # DSL baseline sharing the bottleneck with non-gaming traffic: of
    # the 5 Mbit/s the paper dedicates to gaming, background flows
    # (web, streaming) claim 40%, shrinking the capacity C seen by the
    # gamers.  The per-user access rates are unchanged — only the
    # aggregation link is contended.
    "dsl-mixed-background": PAPER_BASELINE.derive(
        aggregation_rate_bps=3_000_000.0,
    ),
    # Cloud gaming: the server streams rendered frame updates instead
    # of 125-byte state deltas, so the per-client downstream packets
    # are an order of magnitude larger and the tick runs at 125 Hz
    # (8 ms) instead of the paper's 60 ms.  Fibre-class access and a
    # 2 Gbit/s gaming share keep thousands of such streams stable, and
    # the 4 ms server budget models the encode stage.
    "cloud-gaming": PAPER_BASELINE.derive(
        server_packet_bytes=1200.0,
        client_packet_bytes=128.0,
        tick_interval_s=0.008,
        access_uplink_bps=20_000_000.0,
        access_downlink_bps=200_000_000.0,
        aggregation_rate_bps=2_000_000_000.0,
        server_processing_s=0.004,
    ),
    **_GAME_PRESETS,
    # Three heterogeneous game servers (Counter-Strike, Quake III and
    # Half-Life traffic, all on DSL access) multiplexed on one 10 Mbit/s
    # reserved pipe — the Section 3.2 N*D/G/1 -> M/G/1 workload.  Half
    # the gamers play Counter-Strike (the tagged, served component);
    # tagged_variant(i) serves the other games' gamers on the same mix.
    "multi-game-dsl": MixScenario.from_scenarios(
        [
            _GAME_PRESETS["counter-strike"],
            _GAME_PRESETS["quake3"],
            _GAME_PRESETS["half-life"],
        ],
        weights=(0.5, 0.3, 0.2),
        aggregation_rate_bps=10_000_000.0,
    ),
}


def register_scenario(
    name: str, scenario: ScenarioLike, *, overwrite: bool = False
) -> None:
    """Add (or replace, with ``overwrite=True``) a named preset.

    Both plain :class:`Scenario` values and multi-server
    :class:`MixScenario` values are accepted.
    """
    if not isinstance(scenario, (Scenario, MixScenario)):
        raise TypeError(
            f"expected a Scenario or MixScenario, got {type(scenario).__name__}"
        )
    if name in SCENARIO_PRESETS and not overwrite:
        raise KeyError(f"scenario preset {name!r} already registered")
    SCENARIO_PRESETS[name] = scenario


def get_scenario(name: str) -> ScenarioLike:
    """Look up a preset by name."""
    try:
        return SCENARIO_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario preset {name!r}; available: {available_scenarios()}"
        ) from None


def available_scenarios() -> List[str]:
    """The sorted preset names."""
    return sorted(SCENARIO_PRESETS)


def scenario_from_spec(spec: Union[str, "os.PathLike[str]"]) -> ScenarioLike:
    """Resolve a preset name or a JSON file path to a :class:`Scenario`.

    A spec that names a registered preset wins; otherwise it is treated
    as a path to a JSON file written with :meth:`Scenario.save`.
    """
    spec = os.fspath(spec)
    if spec in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[spec]
    if os.path.exists(spec):
        return Scenario.load(spec)
    raise KeyError(
        f"{spec!r} is neither a scenario preset ({available_scenarios()}) "
        "nor an existing JSON file"
    )

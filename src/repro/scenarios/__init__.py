"""Scenario definitions, presets and parameter sweeps (Section 4)."""

from .base import (
    PAPER_BASELINE,
    PAPER_ERLANG_ORDERS,
    PAPER_SERVER_PACKET_SIZES,
    PAPER_TICK_INTERVALS_S,
    Scenario,
)
from .mix import MixComponent, MixScenario, ScenarioLike
from .registry import (
    SCENARIO_PRESETS,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_from_spec,
)
from .sweep import SweepPoint, SweepSeries, default_load_grid, sweep_loads

__all__ = [
    "Scenario",
    "MixComponent",
    "MixScenario",
    "ScenarioLike",
    "PAPER_BASELINE",
    "PAPER_ERLANG_ORDERS",
    "PAPER_SERVER_PACKET_SIZES",
    "PAPER_TICK_INTERVALS_S",
    "SCENARIO_PRESETS",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_from_spec",
    "SweepPoint",
    "SweepSeries",
    "default_load_grid",
    "sweep_loads",
]

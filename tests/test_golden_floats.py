"""Exact floats pinned by recorded golden values.

``tests/golden/exact_quantiles.json`` (written by
``tests/golden/generate_exact_quantiles.py``) holds RTT quantiles of
every registry preset x quantile method x load x probability, exact
``Engine.dimension`` / ``Engine.admit(exact=True)`` answers, and every
``Engine.sweep`` point of every preset on the default load grid.
Refactors of the exact path must reproduce them with ``==``: comparing
two code paths with each other cannot catch both drifting together.

The floats are bit-identical only on the platform that recorded them
(a different libm, SIMD kernel or FMA contraction may move the last
bits and, through them, a search trajectory), so on another machine
architecture or numpy version the values are compared within the
searches' own tolerances instead.
"""

from __future__ import annotations

import json
import platform
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Engine
from repro.errors import ParameterError
from repro.scenarios import default_load_grid, get_scenario

FIXTURE = json.loads(
    (Path(__file__).parent / "golden" / "exact_quantiles.json").read_text(encoding="utf-8")
)
HOME = (
    FIXTURE["platform"]["machine"] == platform.machine()
    and FIXTURE["platform"]["numpy"] == np.__version__
)
#: Off the recording platform: quantile searches stop within 1e-10 s of
#: the root, dimension/admit searches within 1e-3 of the load.
QUANTILE_ABS_S = 1e-9
LOAD_ABS = 2e-3


def same(value, recorded, tolerance: float) -> None:
    if HOME:
        assert value == recorded
    else:
        assert value == pytest.approx(recorded, abs=tolerance)


def by_preset(section: str) -> dict:
    grouped = defaultdict(list)
    for record in FIXTURE[section]:
        grouped[record["preset"]].append(record)
    return dict(grouped)


QUANTILES = by_preset("quantiles")
DIMENSIONS = by_preset("dimension")
ADMITS = by_preset("admit")
SWEEPS = by_preset("sweep")


def test_fixture_covers_the_registry():
    from repro.core.rtt import QUANTILE_METHODS
    from repro.scenarios import available_scenarios

    assert set(QUANTILES) == set(available_scenarios())
    for records in QUANTILES.values():
        assert {r["method"] for r in records} == set(QUANTILE_METHODS)
    assert len(FIXTURE["quantiles"]) == len(QUANTILES) * len(QUANTILE_METHODS) * 4
    assert DIMENSIONS and set(DIMENSIONS) == set(ADMITS)
    assert set(SWEEPS) == set(available_scenarios())
    assert {len(records) for records in SWEEPS.values()} == {len(default_load_grid())}


@pytest.mark.parametrize("preset", sorted(QUANTILES))
def test_quantiles_match_golden(preset):
    scenario = get_scenario(preset)
    stacked_engine = Engine(scenario)
    for record in QUANTILES[preset]:
        load, probability, method = record["load"], record["probability"], record["method"]
        recorded = record["rtt_quantile_s"]
        scalar = Engine(scenario).rtt_quantile(load, probability, method)
        (stacked,) = stacked_engine.rtt_quantiles([load], probability, method)
        same(scalar, recorded, QUANTILE_ABS_S)
        same(stacked, recorded, QUANTILE_ABS_S)


@pytest.mark.parametrize("preset", sorted(DIMENSIONS))
def test_exact_capacity_matches_golden(preset):
    probability = FIXTURE["capacity_probability"]
    engine = Engine(get_scenario(preset))
    for dim, adm in zip(DIMENSIONS[preset], ADMITS[preset]):
        budget = dim["rtt_bound_s"]
        assert adm["rtt_budget_s"] == budget
        if dim["met"]:
            result = engine.dimension(budget, probability)
            same(result.max_load, dim["max_load"], LOAD_ABS)
            same(result.max_gamers, dim["max_gamers"], 1)
            same(result.rtt_at_max_load_s, dim["rtt_at_max_load_s"], 1e-3 * budget)
        else:
            with pytest.raises(ParameterError, match="cannot be met"):
                engine.dimension(budget, probability)
        answer = engine.admit(budget, probability, exact=True)
        assert answer.admitted == adm["admitted"]
        assert answer.source == "exact"
        same(answer.max_load, adm["max_load"], LOAD_ABS)
        same(answer.max_gamers, adm["max_gamers"], 1)
        same(answer.rtt_at_max_load_s, adm["rtt_at_max_load_s"], 1e-3 * budget)


@pytest.mark.parametrize("preset", sorted(SWEEPS))
def test_sweep_matches_golden(preset):
    series = Engine(get_scenario(preset)).sweep(
        default_load_grid(), FIXTURE["sweep_probability"], "inversion"
    )
    records = SWEEPS[preset]
    assert len(series.points) == len(records)
    for point, record in zip(series.points, records):
        assert point.downlink_load == record["downlink_load"]
        # The model's own eq. (37) uplink load, not the scenario's
        # round trip through the gamer count (they differ by an ulp at
        # some grid points).
        same(point.uplink_load, record["uplink_load"], 1e-12)
        same(point.num_gamers, record["num_gamers"], 1e-9 * record["num_gamers"])
        same(point.rtt_quantile_s, record["rtt_quantile_s"], QUANTILE_ABS_S)

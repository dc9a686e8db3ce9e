"""Shared fixtures for the test-suite.

Trace generation is the slowest part of the suite, so short synthetic
sessions are generated once per test session and shared.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rtt import compile_eval_plans, execute_plan
from repro.scenarios import Scenario
from repro.traffic.games import counter_strike, half_life, unreal_tournament


@pytest.fixture(scope="session")
def plan_quantiles():
    """RTT quantiles of models through the plan layer, in model order.

    The fixture is a function ``(models, probability, method="inversion",
    executor=None)`` compiling the batch into stacked :class:`EvalPlan`
    units and executing them in-process (or on ``executor``).
    """

    def run(models, probability, method="inversion", executor=None):
        plans = compile_eval_plans(models, probability, method=method)
        results = (
            [execute_plan(plan) for plan in plans] if executor is None else executor.run(plans)
        )
        values = [None] * len(models)
        for result in results:
            for index, value in zip(result.indices, result.values):
                values[index] = value
        return values

    return run


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator for individual tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def ut_trace_short():
    """A 40-second, 12-player Unreal Tournament trace (session-scoped)."""
    return unreal_tournament.lan_party_trace(duration=40.0, num_players=12, seed=2006)


@pytest.fixture(scope="session")
def cs_trace_short():
    """A 40-second, 6-player Counter-Strike trace (session-scoped)."""
    model = counter_strike.build_model()
    return model.session_trace(40.0, 6, seed=11)


@pytest.fixture(scope="session")
def hl_trace_short():
    """A 40-second, 6-player Half-Life trace (session-scoped)."""
    model = half_life.build_model("de_dust")
    return model.session_trace(40.0, 6, seed=22)


@pytest.fixture(scope="session")
def paper_scenario() -> Scenario:
    """The Section 4 baseline scenario (P_S=125 byte, T=60 ms, K=9)."""
    return Scenario()


@pytest.fixture(scope="session")
def dimensioning_scenario() -> Scenario:
    """The Section 4 dimensioning scenario (T=40 ms)."""
    return Scenario(tick_interval_s=0.040)

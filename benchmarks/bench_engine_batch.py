"""Benchmark — cached Engine batch evaluation vs. per-point rebuilds.

The seed code rebuilt a :class:`PingTimeModel` at every sweep point of
every sweep call: evaluating the default 18-point Figure 3/4 load grid
at the paper's two headline quantile levels (99.9% and 99.999%) costs 36
model constructions.  The :class:`~repro.engine.Engine` asks for the
grid at both levels as one batch (``rtt_quantiles`` with one level per
load); its fleet compiles the batch into plans that build each distinct
operating point once, so the workload builds each of the 18 grid points
exactly once — at least 2x fewer constructions, the acceptance
criterion of the scenario-first redesign.  (The fleet caches answers,
not models: two separate ``sweep`` calls, one per level, rebuild every
point, as the seed did; that count is printed for reference.)

The dimensioning search is measured separately: the seed evaluated the
RTT at the optimum a second time after ``brentq`` had already evaluated
it (one redundant model build per call); the engine reads it from the
cache.

Both paths must return *bitwise identical* numbers — the cache is an
optimisation, not an approximation.
"""

import time

import pytest

from repro.core.dimensioning import max_tolerable_load
from repro.core.rtt import model_build_count, reset_model_build_count
from repro.engine import Engine
from repro.scenarios import Scenario, default_load_grid, sweep_loads

from conftest import print_header

#: The paper's headline quantile levels (Section 4 reads both curves).
PROBABILITIES = (0.999, 0.99999)

SCENARIO = Scenario(tick_interval_s=0.040)


def _uncached_sweeps(grid):
    """The seed path: fresh models at every point of every pass."""
    return [
        tuple(
            p.rtt_quantile_s
            for p in sweep_loads(SCENARIO, grid, probability=probability).points
        )
        for probability in PROBABILITIES
    ]


def _cached_sweeps(engine, grid):
    """The same grid at both levels, as one Engine batch."""
    values = engine.rtt_quantiles(
        [load for _ in PROBABILITIES for load in grid],
        [probability for probability in PROBABILITIES for _ in grid],
    )
    return [
        tuple(values[start : start + len(grid)])
        for start in range(0, len(values), len(grid))
    ]


def _separate_sweeps(engine, grid):
    """One Engine sweep call per level."""
    return [
        tuple(p.rtt_quantile_s for p in engine.sweep(grid, probability=probability).points)
        for probability in PROBABILITIES
    ]


@pytest.mark.benchmark(group="engine-batch")
def test_engine_batch_vs_uncached(benchmark):
    grid = default_load_grid()  # the default 18-point 5%-90% grid

    # -- sweep workload ------------------------------------------------
    reset_model_build_count()
    start = time.perf_counter()
    uncached_results = _uncached_sweeps(grid)
    uncached_elapsed = time.perf_counter() - start
    uncached_builds = reset_model_build_count()

    engine = Engine(SCENARIO)
    start = time.perf_counter()
    cached_results = benchmark.pedantic(
        lambda: _cached_sweeps(engine, grid), rounds=1, iterations=1
    )
    cached_elapsed = time.perf_counter() - start
    cached_builds = reset_model_build_count()
    separate_results = _separate_sweeps(Engine(SCENARIO), grid)
    separate_builds = reset_model_build_count()

    # -- dimensioning workload -----------------------------------------
    reset_model_build_count()
    uncached_dim = max_tolerable_load(
        0.050, probability=PROBABILITIES[-1], **SCENARIO.to_dict()
    )
    # The keyword shim itself runs on a fresh engine, so this counts the
    # cold dimensioning cost of the cached implementation; the seed path
    # performed the same bisection plus one redundant rebuild per call.
    uncached_dim_builds = reset_model_build_count()
    cold_engine = Engine(SCENARIO, probability=PROBABILITIES[-1])
    cold_engine.dimension(0.050)
    cold_dim_builds = reset_model_build_count()
    cached_dim = engine.dimension(0.050, probability=PROBABILITIES[-1])
    dim_extra_builds = model_build_count()

    print_header("Engine batch evaluation vs. seed-style per-point rebuilds")
    print(f"grid points                    : {len(grid)}")
    print(f"quantile levels                : {PROBABILITIES}")
    print(f"sweep builds, per-point path   : {uncached_builds}")
    print(f"sweep builds, cached engine    : {cached_builds}")
    print(f"construction ratio             : {uncached_builds / cached_builds:.1f}x")
    print(f"sweep builds, one call a level : {separate_builds}")
    print(f"sweep wall time, per-point     : {uncached_elapsed * 1e3:.1f} ms")
    print(f"sweep wall time, cached        : {cached_elapsed * 1e3:.1f} ms")
    print(f"dimension builds, cold         : {uncached_dim_builds}")
    print(f"dimension builds, warm engine  : {dim_extra_builds}")
    print(f"engine fleet stats             : {engine.fleet.stats.as_dict()}")

    # Identical numbers: the cache must not change a single bit.
    assert cached_results == uncached_results
    assert separate_results == uncached_results
    assert cached_dim.max_load == uncached_dim.max_load
    assert cached_dim.max_gamers == uncached_dim.max_gamers
    assert cached_dim.rtt_at_max_load_s == uncached_dim.rtt_at_max_load_s

    # The acceptance criterion: Engine.sweep over the default grid does
    # at least 2x fewer PingTimeModel constructions than the seed path.
    assert uncached_builds >= 2 * cached_builds

    # Each distinct operating point is built exactly once.
    assert cached_builds == len(grid)

    # Separate sweep calls never build more than the seed path.
    assert separate_builds <= uncached_builds

    # The dimensioning search answers the RTT at the optimum (and
    # Brent's repeated floor and ceiling) from its own memo instead of
    # rebuilding it (the seed always paid one extra model build at the
    # optimum on top of the bisection), so no load reaches the fleet
    # twice; a warm engine never rebuilds what earlier queries already
    # evaluated.
    cold_stats = cold_engine.fleet.stats
    assert cold_stats.cache_hits == 0
    assert cold_stats.requests == 1 + cold_stats.cache_misses
    assert cold_dim_builds == cold_engine.fleet.stats.evaluations
    assert dim_extra_builds <= uncached_dim_builds

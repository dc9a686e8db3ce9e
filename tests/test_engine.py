"""Tests for the Engine, a per-scenario view over a Fleet.

The contract: every quantile is served by the engine's fleet, so hits
return *identical* floats to the uncached paths
(``Scenario.model_at_load(...).rtt_quantile(...)``, ``sweep_loads`` and
``max_tolerable_load``) and are counted in the fleet's statistics, while
the engine itself holds no per-point state.
"""

import pytest

from repro.core.dimensioning import max_tolerable_load
from repro.core.rtt import model_build_count, reset_model_build_count
from repro.engine import Engine
from repro.errors import ParameterError
from repro.fleet import Fleet
from repro.scenarios import PAPER_BASELINE, Scenario, get_scenario, sweep_loads

TICK40 = Scenario(tick_interval_s=0.040)


class TestConstruction:
    def test_accepts_scenario(self):
        assert Engine(PAPER_BASELINE).scenario is PAPER_BASELINE

    def test_accepts_parameter_mapping(self):
        engine = Engine({"erlang_order": 20})
        assert engine.scenario.erlang_order == 20

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            Engine(42)

    def test_rejects_bad_probability(self):
        with pytest.raises(ParameterError):
            Engine(PAPER_BASELINE, probability=1.5)

    def test_rejects_bad_method(self):
        with pytest.raises(ParameterError):
            Engine(PAPER_BASELINE, method="magic")

    def test_serves_through_the_given_fleet(self):
        fleet = Fleet()
        engine = Engine(TICK40, fleet=fleet)
        assert engine.fleet is fleet
        engine.rtt_quantile(0.40)
        assert fleet.stats.evaluations == 1
        assert isinstance(Engine(TICK40).fleet, Fleet)

    def test_holds_no_per_point_state(self):
        engine = Engine(TICK40)
        before = dict(vars(engine))
        engine.sweep([0.2, 0.4])
        engine.dimension(0.050)
        assert vars(engine) == before
        assert set(before) == {"scenario", "probability", "method", "fleet"}


class TestFleetServing:
    def test_cache_hit_returns_identical_result(self):
        engine = Engine(TICK40)
        reset_model_build_count()
        first = engine.rtt_quantile(0.40)
        second = engine.rtt_quantile(0.40)
        assert first == second  # bitwise identical, not approx
        assert engine.fleet.stats.cache_hits == 1
        assert model_build_count() == 1

    def test_cached_matches_uncached_path(self):
        engine = Engine(TICK40)
        for load in (0.2, 0.4, 0.6):
            uncached = TICK40.model_at_load(load).rtt_quantile(0.99999)
            assert engine.rtt_quantile(load) == uncached
            # Ask again: the hit must still agree with the uncached value.
            assert engine.rtt_quantile(load) == uncached

    def test_distinct_probabilities_are_distinct_entries(self):
        engine = Engine(TICK40)
        q99 = engine.rtt_quantile(0.40, probability=0.99)
        q99999 = engine.rtt_quantile(0.40, probability=0.99999)
        assert q99 < q99999
        assert engine.fleet.stats.evaluations == 2

    def test_clear_cache_forces_reevaluation(self):
        engine = Engine(TICK40)
        engine.rtt_quantile(0.40)
        engine.fleet.clear_cache()
        engine.rtt_quantile(0.40)
        assert engine.fleet.stats.evaluations == 2

    def test_engines_on_one_fleet_share_answers(self):
        fleet = Fleet()
        value = Engine(TICK40, fleet=fleet).rtt_quantile(0.40)
        assert Engine(TICK40, fleet=fleet).rtt_quantile(0.40) == value
        assert fleet.stats.evaluations == 1
        assert fleet.engine(TICK40).rtt_quantile(0.40) == value

    def test_rejects_subunit_gamer_loads(self):
        with pytest.raises(ParameterError, match="fewer than one gamer"):
            Engine(TICK40).rtt_quantile(1e-4)

    def test_bounded_by_the_fleet_cache(self):
        engine = Engine(TICK40, fleet=Fleet(max_cache_entries=3))
        loads = [0.2, 0.3, 0.4, 0.5, 0.6]
        series = engine.sweep(loads)
        assert len(series.points) == 5
        assert engine.fleet.cache_size() == 3
        assert engine.fleet.stats.evictions == 2
        # The answers match the scalar path bit for bit.
        assert [p.rtt_quantile_s for p in series.points] == [
            TICK40.model_at_load(load).rtt_quantile(0.99999) for load in loads
        ]

    def test_evicted_answer_recomputes_bit_identical(self):
        reference = TICK40.model_at_load(0.2).rtt_quantile(0.99999)
        engine = Engine(TICK40, fleet=Fleet(max_cache_entries=1))
        first = engine.rtt_quantile(0.2)
        engine.rtt_quantile(0.5)  # evicts the 0.2 answer
        again = engine.rtt_quantile(0.2)
        assert first == again == reference
        assert engine.fleet.stats.evaluations == 3


class TestSweep:
    def test_sweep_matches_sweep_loads(self):
        loads = [0.2, 0.4, 0.6]
        cached = Engine(TICK40).sweep(loads)
        uncached = sweep_loads(TICK40, loads)
        assert cached.rtt_ms() == uncached.rtt_ms()
        assert cached.loads() == uncached.loads()
        assert cached.label == uncached.label

    def test_sweep_builds_each_point_once(self):
        engine = Engine(TICK40)
        loads = [0.2, 0.4, 0.2, 0.4, 0.6]  # duplicates are evaluated once
        reset_model_build_count()
        series = engine.sweep(loads)
        assert len(series.points) == 5
        assert model_build_count() == 3
        assert engine.fleet.stats.evaluations == 3

    def test_repeated_sweeps_reuse_the_cache(self):
        engine = Engine(TICK40)
        reset_model_build_count()
        engine.sweep([0.2, 0.4])
        engine.sweep([0.2, 0.4])
        assert model_build_count() == 2

    def test_sweep_default_grid(self):
        series = Engine(TICK40).sweep()
        assert len(series.points) == 18

    @pytest.mark.parametrize("preset", ["paper-dsl", "multi-game-dsl"])
    def test_sweep_points_carry_the_models_own_loads(self, preset):
        scenario = get_scenario(preset)
        series = Engine(scenario).sweep()
        for point in series.points:
            model = scenario.model_at_load(point.downlink_load)
            assert point.uplink_load == model.uplink_load
            assert point.num_gamers == model.num_gamers

    def test_batch_quantiles(self):
        engine = Engine(TICK40)
        values = engine.rtt_quantiles([0.2, 0.4])
        assert values == [engine.rtt_quantile(0.2), engine.rtt_quantile(0.4)]

    def test_sweep_batch_returns_the_exact_cached_floats(self):
        # The stacked batch path must return the very same floats the
        # cache holds from earlier per-point evaluations: the batch is an
        # optimisation, not an approximation.
        loads = [0.2, 0.4, 0.6]
        warm = Engine(TICK40)
        per_point = [warm.rtt_quantile(load) for load in loads]
        series = warm.sweep(loads)
        assert [p.rtt_quantile_s for p in series.points] == per_point
        # The sweep after the per-point warm-up added no evaluations.
        assert warm.fleet.stats.evaluations == len(loads)
        assert warm.fleet.stats.cache_hits == len(loads)

        # A cold batch sweep also lands on the same floats.
        cold = Engine(TICK40)
        cold_series = cold.sweep(loads)
        assert [p.rtt_quantile_s for p in cold_series.points] == per_point
        assert cold.fleet.stats.evaluations == len(loads)

    def test_rtt_quantiles_deduplicates_within_the_batch(self):
        engine = Engine(TICK40)
        values = engine.rtt_quantiles([0.3, 0.3, 0.5])
        assert values[0] == values[1]
        assert engine.fleet.stats.evaluations == 2


class TestDimension:
    def test_matches_keyword_shim(self):
        engine_result = Engine(TICK40).dimension(0.050)
        shim_result = max_tolerable_load(0.050, **TICK40.to_dict())
        assert engine_result.max_load == shim_result.max_load
        assert engine_result.max_gamers == shim_result.max_gamers
        assert engine_result.rtt_at_max_load_s == shim_result.rtt_at_max_load_s

    def test_shim_accepts_scenario_keyword(self):
        by_scenario = max_tolerable_load(0.050, scenario=TICK40)
        by_kwargs = max_tolerable_load(0.050, **TICK40.to_dict())
        assert by_scenario.max_load == by_kwargs.max_load

    def test_shim_rejects_mixed_forms(self):
        with pytest.raises(ParameterError):
            max_tolerable_load(0.050, scenario=TICK40, tick_interval_s=0.040)

    def test_shim_keeps_required_keywords_required(self):
        # The seed signature had no defaults for the seven scenario
        # keywords; omitting one must not silently use the DSL values.
        kwargs = TICK40.to_dict()
        del kwargs["aggregation_rate_bps"]
        with pytest.raises(TypeError, match="aggregation_rate_bps"):
            max_tolerable_load(0.050, **kwargs)

    def test_optimum_read_from_cache_not_rebuilt(self):
        # The seed evaluated _rtt_at_load(best_load) a second time after
        # brentq had already evaluated it; the search answers that
        # repeat (and Brent's floor and ceiling repeats) from its own
        # memo, so no load is ever asked of the fleet twice.
        engine = Engine(TICK40)
        reset_model_build_count()
        result = engine.dimension(0.050)
        stats = engine.fleet.stats
        assert stats.cache_hits == 0
        assert stats.requests == 1 + stats.cache_misses
        assert model_build_count() == stats.evaluations == stats.cache_misses
        assert result.rtt_at_max_load_s <= 0.050 * 1.02

    def test_admits_are_counted_by_the_fleet(self):
        engine = Engine(TICK40)
        engine.dimension(0.050)
        engine.admit(0.060, load=0.3)
        stats = engine.fleet.stats
        assert stats.admits == stats.admit_exact == 2
        assert stats.admit_surface == 0
        # The admits plus their probes.
        assert stats.requests == 2 + stats.cache_hits + stats.cache_misses

    def test_redimensioning_reuses_cached_probes(self):
        engine = Engine(TICK40)
        engine.dimension(0.050)
        evaluations_after_dimension = engine.fleet.stats.evaluations
        # Re-dimensioning with a different bound reuses the floor and
        # ceiling probes from the fleet cache.
        engine.dimension(0.060)
        assert engine.fleet.stats.cache_hits >= 2
        assert engine.fleet.stats.evaluations < 2 * evaluations_after_dimension

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ParameterError):
            Engine(TICK40).dimension(0.0)

    def test_unreachable_bound_raises(self):
        with pytest.raises(ParameterError, match="cannot be met"):
            Engine(TICK40).dimension(0.001)


class TestBuildCounter:
    def test_counter_counts_constructions(self):
        reset_model_build_count()
        TICK40.model_at_load(0.3)
        TICK40.model_at_load(0.3)
        assert model_build_count() == 2

    def test_engine_constructs_fewer_models_than_uncached(self):
        loads = [0.2, 0.4, 0.6]
        reset_model_build_count()
        engine = Engine(TICK40)
        for _ in range(3):
            engine.sweep(loads)
        cached_builds = reset_model_build_count()
        for _ in range(3):
            sweep_loads(TICK40, loads)
        uncached_builds = reset_model_build_count()
        assert cached_builds == len(loads)
        assert uncached_builds == 3 * len(loads)


class TestSimulation:
    def test_simulate_from_load(self):
        engine = Engine(TICK40)
        delays = engine.simulate(3.0, load=0.05, seed=7)
        assert delays.count("rtt") > 0

    def test_make_simulation_matches_scenario(self):
        engine = Engine(TICK40)
        simulation = engine.make_simulation(num_clients=8, seed=1)
        assert simulation.config.aggregation_rate_bps == TICK40.aggregation_rate_bps
        assert simulation.workload.tick_interval_s == TICK40.tick_interval_s

    def test_requires_exactly_one_sizing(self):
        engine = Engine(TICK40)
        with pytest.raises(ParameterError):
            engine.make_simulation()
        with pytest.raises(ParameterError):
            engine.make_simulation(num_clients=8, load=0.4)

    def test_rejects_unsimulatable_server_processing(self):
        # The simulator has no server-processing stage; silently
        # dropping it would bias the validation, so it must refuse.
        engine = Engine(TICK40.derive(server_processing_s=0.010))
        with pytest.raises(ParameterError, match="server_processing_s"):
            engine.make_simulation(num_clients=8)

"""Multi-server mix models served end-to-end (ISSUE 5 tentpole).

Three layers under test:

* :class:`MixPingTimeModel` — the Section 3.2 composition (multi-class
  M/G/1 upstream, `MultiServerBurstQueue` one-pole burst waiting,
  tagged-server position delay) behaves like every other composed RTT
  model: validated, self-consistent, monotone in load, with factor
  signature ``(1, 1, K_tagged - 1)``;
* the plan/execute layer — mix requests compile into the same picklable
  :class:`EvalPlan` units, stack across tagged variants and return
  bit-identical floats on any executor;
* the serving layer — `Fleet.serve`, cache persistence and the
  mix-vs-dedicated experiment — plus the Lindley-simulation
  cross-validation of the analytical waiting-time quantiles.
"""

import pickle

import numpy as np
import pytest

from repro.core.rtt import (
    MixFlow,
    MixPingTimeModel,
    QueueingMgfStack,
    compile_eval_plans,
    execute_plan,
    model_params,
)
from repro.engine import Engine
from repro.errors import ParameterError, StabilityError
from repro.fleet import Fleet, Request
from repro.scenarios import MixScenario, get_scenario

PROBABILITY = 0.99999

MIX = get_scenario("multi-game-dsl")


def mix_model(load=0.5, tagged=0):
    return MIX.tagged_variant(tagged).model_at_load(load)


class TestMixPingTimeModel:
    def test_loads_match_the_scenario_conversions(self):
        model = mix_model(0.5)
        assert model.downlink_load == pytest.approx(0.5)
        assert model.uplink_load == pytest.approx(MIX.uplink_load_for(0.5))
        assert model.num_gamers == pytest.approx(MIX.gamers_at_load(0.5))

    def test_factor_signature_is_one_one_k_minus_one(self):
        model = mix_model()
        order = model.tagged_flow.erlang_order
        assert QueueingMgfStack.signature(model) == (1, 1, order - 1)

    def test_tagged_variants_stack_together(self):
        models = [mix_model(0.5, tagged=i) for i in range(3)]
        groups = QueueingMgfStack.group_indices(models)
        # All three game presets share K=9, so one joint group.
        assert len(groups) == 1

    def test_quantile_is_self_consistent_with_the_tail(self):
        model = mix_model(0.6)
        quantile = model.queueing_quantile(PROBABILITY)
        assert model.queueing_tail(quantile) == pytest.approx(
            1.0 - PROBABILITY, rel=1e-3
        )

    def test_rtt_quantile_monotone_in_load(self):
        quantiles = [mix_model(load).rtt_quantile(PROBABILITY) for load in (0.3, 0.5, 0.7)]
        assert quantiles == sorted(quantiles)
        assert all(q > 0.0 for q in quantiles)

    def test_every_quantile_method_evaluates(self):
        model = mix_model(0.5)
        inversion = model.rtt_quantile(PROBABILITY)
        for method in ("erlang-sum", "dominant-pole", "chernoff", "sum-of-quantiles"):
            value = model.rtt_quantile(PROBABILITY, method=method)
            assert np.isfinite(value) and value > 0.0
        # The Appendix-A expansion agrees with the numerical inversion.
        assert model.rtt_quantile(PROBABILITY, method="erlang-sum") == pytest.approx(
            inversion, rel=1e-6
        )

    def test_breakdown_components_are_positive(self):
        breakdown = mix_model(0.5).breakdown(PROBABILITY)
        assert breakdown.upstream_queueing_s > 0.0
        assert breakdown.downstream_burst_s > 0.0
        assert breakdown.packet_position_s > 0.0
        assert breakdown.rtt_quantile_s == pytest.approx(
            mix_model(0.5).rtt_quantile(PROBABILITY)
        )

    def test_validation(self):
        kwargs = MIX.model_kwargs()
        with pytest.raises(ParameterError, match="num_gamers"):
            MixPingTimeModel(num_gamers=0.5, **kwargs)
        with pytest.raises(StabilityError):
            MixPingTimeModel(num_gamers=1e6, **kwargs)
        bad = dict(kwargs)
        bad["tagged"] = 7
        with pytest.raises(ParameterError, match="tagged"):
            MixPingTimeModel(num_gamers=100.0, **bad)
        bad = dict(kwargs)
        bad["flows"] = ()
        with pytest.raises(ParameterError, match="at least one"):
            MixPingTimeModel(num_gamers=100.0, **bad)
        bad = dict(kwargs)
        bad["flows"] = tuple(
            MixFlow(f.tick_interval_s, f.client_packet_bytes, f.server_packet_bytes,
                    f.erlang_order, f.weight / 2.0)
            for f in kwargs["flows"]
        )
        with pytest.raises(ParameterError, match="sum to 1"):
            MixPingTimeModel(num_gamers=100.0, **bad)

    def test_tagged_flow_needs_position_delay_order(self):
        flows = (
            MixFlow(0.050, 60.0, 200.0, 1, 0.5),
            MixFlow(0.060, 80.0, 125.0, 9, 0.5),
        )
        with pytest.raises(ParameterError, match="erlang_order >= 2"):
            MixPingTimeModel(
                num_gamers=50.0,
                flows=flows,
                tagged=0,
                access_uplink_bps=128e3,
                access_downlink_bps=1024e3,
                aggregation_rate_bps=1e7,
            )
        # The same mix tagged on the K=9 flow is fine.
        MixPingTimeModel(
            num_gamers=50.0,
            flows=flows,
            tagged=1,
            access_uplink_bps=128e3,
            access_downlink_bps=1024e3,
            aggregation_rate_bps=1e7,
        )

    def test_flow_coercion_accepts_tuples_and_mappings(self):
        reference = mix_model(0.5)
        coerced = MixPingTimeModel(
            num_gamers=reference.num_gamers,
            flows=tuple(flow.as_dict() for flow in reference.flows),
            tagged=reference.tagged,
            access_uplink_bps=reference.access_uplink_bps,
            access_downlink_bps=reference.access_downlink_bps,
            aggregation_rate_bps=reference.aggregation_rate_bps,
        )
        assert coerced == reference


class TestMixPlans:
    def test_mix_and_single_server_models_plan_separately(self):
        single = get_scenario("paper-dsl").model_at_load(0.4)
        plans = compile_eval_plans([mix_model(0.4), single], PROBABILITY)
        assert len(plans) == 2
        assert sorted(i for plan in plans for i in plan.indices) == [0, 1]

    def test_plan_round_trips_through_pickle_bitwise(self):
        models = [mix_model(0.4, tagged=i) for i in range(3)]
        [plan] = compile_eval_plans(models, PROBABILITY)
        twin = pickle.loads(pickle.dumps(plan))
        assert execute_plan(twin).values == execute_plan(plan).values

    def test_build_models_round_trips_the_parameters(self):
        model = mix_model(0.45)
        [plan] = compile_eval_plans([model], PROBABILITY)
        assert plan.build_models() == [model]
        assert plan.build_models()[0].flows == model.flows

    def test_executed_values_match_per_model_quantiles_bitwise(self):
        models = [mix_model(load, tagged=t) for load in (0.3, 0.6) for t in (0, 1)]
        for plan in compile_eval_plans(models, PROBABILITY):
            result = execute_plan(plan)
            expected = [models[i].rtt_quantile(PROBABILITY) for i in plan.indices]
            assert list(result.values) == expected

    def test_parameter_mappings_compile_like_models(self):
        model = mix_model(0.5)
        params = model_params(model)
        [plan] = compile_eval_plans([params], PROBABILITY)
        assert execute_plan(plan).values == (model.rtt_quantile(PROBABILITY),)


class TestMixFleetServing:
    def test_fleet_answers_match_the_scalar_path_bitwise(self):
        fleet = Fleet()
        answers = fleet.serve(
            [
                Request("multi-game-dsl", downlink_load=0.4),
                Request(MIX.tagged_variant(1), downlink_load=0.4),
            ]
        )
        assert answers[0].rtt_quantile_s == MIX.model_at_load(0.4).rtt_quantile(
            PROBABILITY
        )
        assert answers[1].rtt_quantile_s == MIX.tagged_variant(1).model_at_load(
            0.4
        ).rtt_quantile(PROBABILITY)
        assert answers[0].scenario_key == MIX.cache_key()

    def test_mixed_batch_with_single_server_presets(self):
        fleet = Fleet()
        requests = [
            Request("multi-game-dsl", downlink_load=0.5),
            Request("paper-dsl", downlink_load=0.5),
            Request("multi-game-dsl", downlink_load=0.5),
        ]
        answers = fleet.serve(requests)
        assert fleet.stats.evaluations == 2  # the duplicate deduplicated
        assert answers[0].rtt_quantile_s == answers[2].rtt_quantile_s
        assert answers[0].rtt_quantile_s != answers[1].rtt_quantile_s

    def test_mix_requests_by_gamers_share_entries_with_load_requests(self):
        fleet = Fleet()
        gamers = MIX.gamers_at_load(0.4)
        first = fleet.serve([Request("multi-game-dsl", downlink_load=0.4)])[0]
        second = fleet.serve([Request("multi-game-dsl", num_gamers=gamers)])[0]
        assert second.cached
        assert second.rtt_quantile_s == first.rtt_quantile_s

    def test_inline_mix_mapping_requests(self):
        fleet = Fleet()
        [answer] = fleet.serve([{"scenario": MIX.to_dict(), "load": 0.4}])
        assert answer.rtt_quantile_s == MIX.model_at_load(0.4).rtt_quantile(PROBABILITY)

    def test_cache_persistence_round_trips_mix_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        requests = [
            Request("multi-game-dsl", downlink_load=0.4),
            Request("multi-game-dsl", downlink_load=0.6, probability=0.999),
            Request("ftth", downlink_load=0.4),
        ]
        answers = fleet.serve(requests)
        assert fleet.save_cache(path) == len(requests)

        warm = Fleet()
        assert warm.warm_start(path) == len(requests)
        warm_answers = warm.serve(requests)
        assert all(a.cached for a in warm_answers)
        assert warm.stats.evaluations == 0
        assert [a.rtt_quantile_s for a in warm_answers] == [
            a.rtt_quantile_s for a in answers
        ]

    def test_parallel_executor_serves_mixes_bit_identically(self):
        from repro.executors import ParallelExecutor

        requests = [
            Request("multi-game-dsl", downlink_load=load) for load in (0.3, 0.55)
        ] + [Request(MIX.tagged_variant(2), downlink_load=0.55)]
        reference = Fleet().serve(requests)
        fleet = Fleet()
        with ParallelExecutor(workers=2) as executor:
            answers = fleet.serve(requests, executor=executor)
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]
        assert fleet.stats.remote_plans > 0


class TestMixEngine:
    def test_sweep_uses_the_mix_label(self):
        engine = Engine(MIX)
        series = engine.sweep(loads=[0.3, 0.5])
        assert series.label == MIX.describe()
        assert [p.rtt_quantile_s for p in series.points] == [
            MIX.model_at_load(0.3).rtt_quantile(PROBABILITY),
            MIX.model_at_load(0.5).rtt_quantile(PROBABILITY),
        ]

    def test_dimension_finds_a_monotone_optimum(self):
        engine = Engine(MIX)
        result = engine.dimension(0.120)
        assert 0.0 < result.max_load <= 0.98
        # brentq stops at the load resolution (1e-3), so the RTT at the
        # optimum brackets the bound; one resolution step below meets it.
        assert result.rtt_at_max_load_s == pytest.approx(0.120, rel=0.01)
        assert engine.rtt_quantile(result.max_load - 1e-3) <= 0.120

    def test_simulate_dispatches_to_the_mix_session(self):
        # Mixes used to raise here; since the netsim grew multi-server
        # sessions, Engine.simulate serves them end to end.
        delays = Engine(MIX).simulate(2.0, load=0.15, seed=11)
        assert delays.count("rtt") > 0


class TestLindleyCrossValidation:
    """Analytical mix waiting-time quantiles vs the Lindley simulation."""

    def _queues(self):
        custom = MixScenario.from_scenarios(
            [get_scenario("half-life"), get_scenario("quake3")],
            weights=(2.0, 1.0),
            aggregation_rate_bps=6e6,
        )
        return [
            ("multi-game-dsl @ 0.5", MIX.model_at_load(0.5).downstream_queue()),
            ("multi-game-dsl @ 0.75", MIX.model_at_load(0.75).downstream_queue()),
            ("half-life+quake3 @ 0.6", custom.model_at_load(0.6).downstream_queue()),
        ]

    def test_mean_waiting_time_matches_simulation(self):
        for label, queue in self._queues():
            sim = queue.simulate_waiting_times(
                200_000, rng=np.random.default_rng(11)
            )
            assert queue.mean_waiting_time() == pytest.approx(
                float(sim.mean()), rel=0.05
            ), label

    def test_quantiles_track_the_simulated_tail(self):
        # At the analytical p-quantile the empirical tail mass must sit
        # within half a decade of 1 - p (the one-pole transform is an
        # approximation; the paper accepts the same tolerance for the
        # single-server eq. (14)).
        for label, queue in self._queues():
            sim = queue.simulate_waiting_times(
                300_000, rng=np.random.default_rng(12)
            )
            for probability in (0.95, 0.99):
                quantile = queue.waiting_time_quantile(probability)
                empirical = float((sim > quantile).mean())
                assert empirical > 0.0, label
                assert np.log10(empirical) == pytest.approx(
                    np.log10(1.0 - probability), abs=0.5
                ), (label, probability)

    def test_serving_model_and_queue_share_the_burst_transform(self):
        model = MIX.model_at_load(0.5)
        queue = model.downstream_queue()
        waiting = queue.waiting_time()
        assert model._burst_terms.atom == waiting.atom
        assert [t.rate for t in model._burst_terms.terms] == [
            t.rate for t in waiting.terms
        ]


class TestMixExperiment:
    def test_mix_comparison_runs_on_one_fleet(self):
        from repro.experiments import format_mix_comparison, run_mix_comparison

        fleet = Fleet()
        result = run_mix_comparison(loads=(0.3, 0.5), fleet=fleet)
        assert [c.label for c in result.components] == [
            "counter-strike",
            "quake3",
            "half-life",
        ]
        for comparison in result.components:
            assert len(comparison.mix_series.points) == 2
            assert len(comparison.dedicated_series.points) == 2
            # The bandwidth-proportional slice carries the same load.
            for point in comparison.dedicated_series.points:
                assert point.downlink_load in (0.3, 0.5)
        evaluations = fleet.stats.evaluations
        again = run_mix_comparison(loads=(0.3, 0.5), fleet=fleet)
        assert fleet.stats.evaluations == evaluations  # fully cached
        text = format_mix_comparison(again)
        assert "counter-strike" in text and "Mix vs dedicated" in text

    def test_close_loads_stay_distinct(self):
        # Regression: the answer lookup keys by grid position, so loads
        # closer than any fixed decimal formatting never collide.
        from repro.experiments import run_mix_comparison

        result = run_mix_comparison(loads=(0.4001, 0.4004))
        for comparison in result.components:
            rtts = [p.rtt_quantile_s for p in comparison.mix_series.points]
            assert rtts[0] != rtts[1]
            dedicated = [
                p.rtt_quantile_s for p in comparison.dedicated_series.points
            ]
            assert dedicated[0] != dedicated[1]

    def test_mix_comparison_validates_the_spec(self):
        from repro.experiments import run_mix_comparison

        with pytest.raises(ParameterError, match="MixScenario"):
            run_mix_comparison("paper-dsl", loads=(0.4,))

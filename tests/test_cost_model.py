"""Tests for cost-model scheduling: sizing, invariance, LPT dispatch.

The refactor's contract: chunking is a pure *scheduling* knob.  The
:class:`CostModel` may size plans however it likes — static priors,
folded observations, arbitrary targets — and the served floats stay
bit-identical to the legacy fixed-chunk split for every registry preset
and every quantile method, while heterogeneous batches split into
roughly equal-cost plans instead of equal-count ones.
"""

import numpy as np
import pytest

from repro.core.rtt import (
    QUANTILE_METHODS,
    CostModel,
    compile_eval_plans,
    plan_signature,
)
from repro.errors import ParameterError
from repro.executors import ParallelExecutor, SerialExecutor
from repro.fleet import Fleet, Request
from repro.scenarios import available_scenarios, get_scenario

#: Models per plan of the paper-default signature under an unobserved
#: cost model: the static split a plan layer without a cost model uses.
PAPER_CHUNK = CostModel().chunk_size_for("inversion/K9")

#: Labels the priors know about, spanning cheap and expensive signatures.
LABELS = (
    "inversion/K2",
    "inversion/K9",
    "inversion/mix-K2",
    "erlang-sum",
    "dominant-pole",
    "chernoff",
    "sum-of-quantiles",
)


def random_cost_models(count=3, seed=20260807):
    """Arbitrary-but-reproducible cost policies for the property tests."""
    rng = np.random.default_rng(seed)
    policies = []
    for _ in range(count):
        policy = CostModel(target_plan_cost_s=float(rng.uniform(2e-4, 5e-2)))
        for label in LABELS:
            if rng.random() < 0.5:
                policy.observe(
                    label,
                    int(rng.integers(1, 64)),
                    float(rng.uniform(1e-5, 1e-1)),
                )
        policies.append(policy)
    return policies


class TestCostModel:
    def test_unobserved_paper_signature_reproduces_legacy_chunk(self):
        # The default target is calibrated so the paper-default
        # signature (inversion, K=9) chunks exactly like the legacy
        # static split — the refactor changes nothing until it learns.
        assert CostModel().chunk_size_for("inversion/K9") == 32

    def test_cheaper_signatures_pack_more_models(self):
        model = CostModel()
        k9 = model.chunk_size_for("inversion/K9")
        k2 = model.chunk_size_for("inversion/K2")
        assert k2 > k9
        assert k2 <= CostModel.max_chunk

    def test_observations_override_priors(self):
        model = CostModel()
        # 10 ms per model observed: far above any prior.
        model.observe("inversion/K9", models=10, exec_s=0.1)
        assert model.predict_model_cost_s("inversion/K9") == pytest.approx(0.01)
        assert model.chunk_size_for("inversion/K9") < PAPER_CHUNK

    def test_chunk_size_is_clamped_to_sane_bounds(self):
        model = CostModel(target_plan_cost_s=1e-9)
        model.observe("erlang-sum", models=1, exec_s=10.0)
        assert model.chunk_size_for("erlang-sum") == 1
        fast = CostModel(target_plan_cost_s=10.0)
        fast.observe("chernoff", models=1000, exec_s=1e-6)
        assert fast.chunk_size_for("chernoff") == CostModel.max_chunk

    def test_rejects_non_positive_target(self):
        with pytest.raises(ParameterError):
            CostModel(target_plan_cost_s=0.0)
        with pytest.raises(ParameterError):
            CostModel(target_plan_cost_s=-1.0)

    def test_as_dict_reports_observed_and_predicted(self):
        model = CostModel()
        model.observe("inversion/K9", models=4, exec_s=0.02)
        snapshot = model.as_dict()
        entry = snapshot["inversion/K9"]
        assert entry["models"] == 4
        assert entry["exec_s"] == pytest.approx(0.02)
        assert entry["predicted_model_cost_s"] == pytest.approx(0.005)
        assert entry["chunk_size"] >= 1

    def test_predict_plan_cost_scales_with_plan_length(self):
        model = CostModel()
        plans = compile_eval_plans(
            [get_scenario("paper-dsl").model_at_load(l) for l in (0.3, 0.4)],
            0.99999,
            chunk_size=1,
        )
        single = model.predict_plan_cost_s(plans[0])
        assert single == pytest.approx(
            model.predict_model_cost_s(plan_signature(plans[0]))
        )


class TestCompileEvalPlansPolicies:
    MODELS = [
        get_scenario("paper-dsl").model_at_load(load)
        for load in (0.30, 0.35, 0.40, 0.45, 0.50)
    ]

    def test_explicit_chunk_size_keeps_working_unchanged(self):
        plans = compile_eval_plans(self.MODELS, 0.99999, chunk_size=2)
        assert [len(p.indices) for p in plans] == [2, 2, 1]

    def test_explicit_chunk_size_wins_over_cost_model(self):
        model = CostModel(target_plan_cost_s=1.0)
        plans = compile_eval_plans(
            self.MODELS, 0.99999, chunk_size=2, cost_model=model
        )
        assert [len(p.indices) for p in plans] == [2, 2, 1]

    def test_cost_model_sizes_per_signature(self):
        model = CostModel()
        model.observe("inversion/K9", models=2, exec_s=2 * 0.02)  # 20 ms/model
        plans = compile_eval_plans(self.MODELS, 0.99999, cost_model=model)
        expected = model.chunk_size_for("inversion/K9")
        assert all(len(p.indices) <= expected for p in plans)
        assert len(plans) > 1

    def test_default_split_is_the_unobserved_paper_chunk(self):
        plans = compile_eval_plans(self.MODELS, 0.99999)
        assert max(len(p.indices) for p in plans) <= PAPER_CHUNK


class TestChunkingInvariance:
    """Floats are bit-identical under arbitrary cost policies.

    Every registry preset x all quantile methods, served once with the
    legacy default policy and once per randomized cost model: the
    answers must agree bit-for-bit, because chunk sizing must never
    change *what* is evaluated, only how the work is split.
    """

    LOAD = 0.55

    def _serve(self, method, cost_model=None):
        fleet = Fleet() if cost_model is None else Fleet(cost_model=cost_model)
        answers = fleet.serve(
            [
                Request(preset, downlink_load=self.LOAD, method=method)
                for preset in available_scenarios()
            ]
        )
        return fleet, [a.rtt_quantile_s for a in answers]

    @pytest.mark.parametrize("method", QUANTILE_METHODS)
    def test_every_preset_bit_identical_under_random_policies(self, method):
        _, reference = self._serve(method)
        for index, policy in enumerate(random_cost_models()):
            _, floats = self._serve(method, cost_model=policy)
            assert floats == reference, f"method={method}, policy={index}"

    def test_single_model_chunks_match_the_default_split(self):
        # The extreme policy: every plan carries one model.
        _, reference = self._serve("inversion")
        _, floats = self._serve(
            "inversion", cost_model=CostModel(target_plan_cost_s=1e-9)
        )
        assert floats == reference


class TestFleetFoldsObservations:
    def test_served_batches_train_the_fleet_cost_model(self):
        fleet = Fleet()
        requests = [
            Request("paper-dsl", downlink_load=load) for load in (0.3, 0.4, 0.5)
        ]
        fleet.serve(requests)
        snapshot = fleet.cost_model.as_dict()
        assert "inversion/K9" in snapshot
        entry = snapshot["inversion/K9"]
        assert entry["models"] == len(requests)
        assert entry["exec_s"] > 0.0
        # The folded stats and the cost model observed the same work.
        cost = fleet.stats.plan_costs["inversion/K9"]
        assert cost["models"] == entry["models"]

    def test_fleet_lends_its_cost_model_to_the_executor(self):
        fleet = Fleet()
        executor = SerialExecutor()
        # SerialExecutor has no cost_model attribute: nothing to lend.
        fleet.serve([Request("paper-dsl", downlink_load=0.3)], executor=executor)
        with ParallelExecutor(workers=1) as pool:
            assert pool.cost_model is None
            fleet.serve([Request("paper-dsl", downlink_load=0.4)], executor=pool)
            assert pool.cost_model is fleet.cost_model

    def test_explicit_executor_cost_model_is_not_overwritten(self):
        fleet = Fleet()
        own = CostModel()
        with ParallelExecutor(workers=1) as pool:
            pool.cost_model = own
            fleet.serve([Request("paper-dsl", downlink_load=0.3)], executor=pool)
            assert pool.cost_model is own


class TestLptDispatch:
    def test_lpt_submission_returns_plan_ordered_results(self):
        models = [
            get_scenario(preset).model_at_load(load)
            for preset in ("paper-dsl", "halo", "multi-game-dsl")
            for load in (0.35, 0.55)
        ]
        plans = compile_eval_plans(models, 0.99999, chunk_size=1)
        serial = SerialExecutor().run(plans)
        trained = CostModel()
        trained.observe("inversion/K9", models=3, exec_s=0.3)
        with ParallelExecutor(workers=2, cost_model=trained) as pool:
            results = pool.run(plans)
        assert [r.values for r in results] == [r.values for r in serial]
        assert [r.indices for r in results] == [r.indices for r in serial]

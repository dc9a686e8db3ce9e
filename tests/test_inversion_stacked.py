"""Property tests: the stacked cross-model paths agree with the scalar path.

The stacked evaluator collapses the (model, abscissa) plane into single
joint array evaluations; it must be an optimisation, not an
approximation — across heterogeneous presets the stacked tail rows and
the lockstep quantile searches must return the very same floats as the
per-model API.
"""

import numpy as np
import pytest

from repro.core.inversion import (
    _stacked_tail_rows,
    quantile_from_mgf,
    quantiles_from_mgfs,
    tail_from_mgf,
)
from repro.core.rtt import QueueingMgfStack, compile_eval_plans, execute_plan
from repro.errors import ParameterError
from repro.scenarios import get_scenario

PRESETS = ("paper-dsl", "cable", "ftth", "lte")

PROBABILITY = 0.99999


def _mixed_models():
    """A heterogeneous batch: four presets at three loads each."""
    return [
        get_scenario(preset).model_at_load(load)
        for preset in PRESETS
        for load in (0.3, 0.55, 0.8)
    ]


class TestQueueingMgfStack:
    def test_mixed_presets_share_one_signature(self):
        # All access profiles keep the paper's K = 9, so a 4-preset
        # batch collapses into a single stack group.
        groups = QueueingMgfStack.group_indices(_mixed_models())
        assert len(groups) == 1

    def test_different_erlang_orders_split_groups(self):
        models = [
            get_scenario("paper-dsl").derive(erlang_order=order).model_at_load(0.5)
            for order in (2, 9, 20)
        ]
        groups = QueueingMgfStack.group_indices(models)
        assert len(groups) == 3
        assert sorted(i for idxs in groups.values() for i in idxs) == [0, 1, 2]

    def test_rejects_mixed_signatures(self):
        models = [
            get_scenario("paper-dsl").model_at_load(0.5),
            get_scenario("paper-dsl").derive(erlang_order=20).model_at_load(0.5),
        ]
        with pytest.raises(ParameterError, match="factor signature"):
            QueueingMgfStack(models)

    def test_stack_values_match_queueing_mgf(self):
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        s = np.array([[0.5 + 1.0j, -2.0 + 3.0j], [1.0 - 1.0j, 0.25 + 0.0j]])
        rows = np.array([2, 7])
        stacked = stack(s, rows)
        for position, index in enumerate(rows):
            expected = models[index].queueing_mgf(s[position])
            assert np.array_equal(stacked[position], expected)

    def test_counts_array_calls(self):
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        stack(np.array([[1.0 + 0.0j]]), np.array([0]))
        stack(np.array([[1.0 + 0.0j]]), np.array([1]))
        assert stack.array_calls == 2


class TestStackedTailRows:
    def test_rows_match_the_scalar_path_in_one_call(self):
        # Any (model, point) rows, in any order, cost one joint call.
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        indices = np.array([0, 5, 5, 11, 3, 0], dtype=np.intp)
        ts = np.array([5e-4, 3e-3, 2e-2, 1e-3, 4e-3, 2e-2])
        rows = _stacked_tail_rows(stack, indices, ts)
        assert stack.array_calls == 1
        reference = [
            tail_from_mgf(
                models[i].queueing_mgf, float(t), atom_at_zero=models[i].queueing_atom
            )
            for i, t in zip(indices, ts)
        ]
        assert [float(v) for v in rows] == reference

    def test_per_transform_grids(self):
        # Each model's own grid, of its own length, in one joint call.
        models = _mixed_models()[:3]
        stack = QueueingMgfStack(models)
        grids = [[1e-3], [2e-3, 4e-3], [1e-2, 2e-2, 3e-2]]
        indices = np.repeat(np.arange(3), [len(g) for g in grids])
        rows = _stacked_tail_rows(stack, indices, np.concatenate(grids))
        assert stack.array_calls == 1
        per_model = np.split(rows, np.cumsum([len(g) for g in grids])[:-1])
        for model, grid, tails in zip(models, grids, per_model):
            assert [float(v) for v in tails] == [model.queueing_tail(x) for x in grid]

    def test_shared_grid_matches_model_queueing_tail(self):
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        xs = np.array([1e-3, 5e-3, 1.5e-2])
        indices = np.repeat(np.arange(len(models)), len(xs))
        rows = _stacked_tail_rows(stack, indices, np.tile(xs, len(models)))
        for model, tails in zip(models, rows.reshape(len(models), len(xs))):
            assert [float(v) for v in tails] == [model.queueing_tail(float(x)) for x in xs]


def _quantiles(models, probabilities, stack_eval=None):
    """quantiles_from_mgfs over a stack of ``models``, one level each."""
    return quantiles_from_mgfs(
        probabilities,
        [m._inversion_scale_hint for m in models],
        [m.queueing_atom for m in models],
        stack_eval=QueueingMgfStack(models) if stack_eval is None else stack_eval,
    )


def _scalar_quantiles(models, probabilities):
    return [
        quantile_from_mgf(
            m.queueing_mgf,
            p,
            scale_hint=m._inversion_scale_hint,
            atom_at_zero=m.queueing_atom,
        )
        for m, p in zip(models, probabilities)
    ]


class TestLockstepQuantiles:
    def test_lockstep_matches_scalar_search_bitwise(self):
        models = _mixed_models()
        levels = [PROBABILITY] * len(models)
        assert _quantiles(models, levels) == _scalar_quantiles(models, levels)

    def test_mix_models_and_mixed_levels_match_scalar_search_bitwise(self):
        mix = get_scenario("multi-game-dsl")
        models = [mix.model_at_load(load) for load in (0.2, 0.45, 0.7)]
        levels = [0.99, 0.999, PROBABILITY]
        assert _quantiles(models, levels) == _scalar_quantiles(models, levels)

    def test_chunking_does_not_change_the_floats(self):
        # A search's trajectory does not depend on its round mates.
        models = _mixed_models()[:5]
        levels = [PROBABILITY] * len(models)
        assert _quantiles(models, levels) == (
            _quantiles(models[:2], levels[:2]) + _quantiles(models[2:], levels[2:])
        )

    def test_lockstep_uses_fewer_array_calls(self):
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        _quantiles(models, [PROBABILITY] * len(models), stack_eval=stack)
        # A per-model dispatch costs >= ~20 array calls per model; the
        # lockstep needs one call per search round only.
        assert stack.array_calls < 3 * len(models)

    def test_special_points_are_answered_without_the_stack(self):
        # A search whose tail at zero already meets the target stops at
        # 0.0 on the closed-form atom answer, without a joint call.
        models = _mixed_models()[:2]
        stack = QueueingMgfStack(models)
        quantiles = quantiles_from_mgfs([0.3, 0.4], [1e-3, 1e-3], [0.8, 1.0], stack_eval=stack)
        assert quantiles == [0.0, 0.0]
        assert stack.array_calls == 0

    def test_stack_eval_failure_propagates_without_deadlock(self):
        models = _mixed_models()[:3]

        def broken(s, rows):
            raise RuntimeError("joint evaluation exploded")

        with pytest.raises(RuntimeError, match="joint evaluation exploded"):
            _quantiles(models, [PROBABILITY] * len(models), stack_eval=broken)

    def test_invalid_probability_raises(self):
        models = _mixed_models()[:2]
        with pytest.raises(ParameterError):
            _quantiles(models, [PROBABILITY, 1.5])

    def test_mismatched_lengths_raise(self):
        models = _mixed_models()[:2]
        stack = QueueingMgfStack(models)
        with pytest.raises(ParameterError):
            quantiles_from_mgfs(
                [PROBABILITY] * 2, [1.0], [m.queueing_atom for m in models], stack_eval=stack
            )
        with pytest.raises(ParameterError):
            quantiles_from_mgfs([PROBABILITY], [1.0, 2.0], [0.0, 0.0], stack_eval=stack)


class TestPlanQuantiles:
    def test_heterogeneous_batch_is_bit_identical_to_per_model(self, plan_quantiles):
        models = _mixed_models()
        batch = plan_quantiles(models, PROBABILITY)
        reference = [m.rtt_quantile(PROBABILITY) for m in models]
        assert batch == reference

    def test_mixed_erlang_orders_group_and_agree(self, plan_quantiles):
        models = [
            get_scenario("paper-dsl").derive(erlang_order=order).model_at_load(load)
            for order in (2, 9, 20)
            for load in (0.4, 0.7)
        ]
        batch = plan_quantiles(models, PROBABILITY)
        reference = [m.rtt_quantile(PROBABILITY) for m in models]
        assert batch == reference

    def test_batch_spends_one_stacked_group_per_signature(self):
        models = _mixed_models()
        [plan] = compile_eval_plans(models, PROBABILITY)
        calls = execute_plan(plan).stacked_mgf_calls
        assert 0 < calls < 3 * len(models)

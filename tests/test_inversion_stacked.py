"""Property tests: the stacked cross-model paths agree with the scalar path.

The stacked evaluator collapses the (model, abscissa) plane into single
joint array evaluations; like the PR 2 vectorization it must be an
optimisation, not an approximation — across heterogeneous presets the
stacked tails and the lockstep quantile searches must return the very
same floats as the per-model API.
"""

import numpy as np
import pytest

from repro.core.inversion import (
    quantile_from_mgf,
    quantiles_from_mgfs,
    tail_from_mgf,
    tails_from_mgf,
    tails_from_mgfs,
)
from repro.core.rtt import (
    QueueingMgfStack,
    batch_queueing_tails,
    reset_stacked_eval_count,
    stacked_eval_count,
)
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
        before = stacked_eval_count()
        stack(np.array([[1.0 + 0.0j]]), np.array([0]))
        stack(np.array([[1.0 + 0.0j]]), np.array([1]))
        assert stack.array_calls == 2
        assert stacked_eval_count() - before == 2


class TestStackedTails:
    def test_tails_from_mgfs_without_stack_matches_per_transform(self):
        models = _mixed_models()[:4]
        xs = np.array([0.0, 1e-4, 2e-3, 1e-2])
        batch = tails_from_mgfs(
            [m.queueing_mgf for m in models],
            xs,
            atoms_at_zero=[m.queueing_atom for m in models],
        )
        for model, tails in zip(models, batch):
            reference = tails_from_mgf(
                model.queueing_mgf, xs, atom_at_zero=model.queueing_atom
            )
            assert np.array_equal(tails, reference)

    def test_tails_from_mgfs_with_stack_matches_scalar_path(self):
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        xs = np.array([0.0, 5e-4, 3e-3, 2e-2, np.inf, -1.0])
        batch = tails_from_mgfs(
            [m.queueing_mgf for m in models],
            xs,
            atoms_at_zero=stack.atoms_at_zero(),
            stack_eval=stack,
        )
        assert stack.array_calls == 1  # the whole plane in one call
        for model, tails in zip(models, batch):
            reference = np.array(
                [
                    tail_from_mgf(
                        model.queueing_mgf, float(x), atom_at_zero=model.queueing_atom
                    )
                    for x in xs
                ]
            )
            assert np.array_equal(tails, reference)

    def test_per_transform_grids(self):
        models = _mixed_models()[:3]
        stack = QueueingMgfStack(models)
        grids = [np.array([1e-3]), np.array([2e-3, 4e-3]), np.array([1e-2, 2e-2, 3e-2])]
        batch = tails_from_mgfs(
            [m.queueing_mgf for m in models],
            grids,
            atoms_at_zero=stack.atoms_at_zero(),
            stack_eval=stack,
        )
        for model, grid, tails in zip(models, grids, batch):
            assert tails.shape == grid.shape
            reference = model.queueing_tails(grid)
            assert np.array_equal(tails, reference)

    def test_batch_queueing_tails_helper(self):
        models = _mixed_models()
        xs = np.array([1e-3, 5e-3, 1.5e-2])
        batch = batch_queueing_tails(models, xs)
        for model, tails in zip(models, batch):
            reference = np.array([model.queueing_tail(float(x)) for x in xs])
            assert np.array_equal(tails, reference)

    def test_flat_scalar_list_is_a_shared_grid(self):
        # A flat list of scalars is a shared grid even when its length
        # coincidentally equals the model count — per-model grids must
        # be given as array-likes.
        models = _mixed_models()[:2]
        batch = batch_queueing_tails(models, [1e-3, 5e-3])
        for model, tails in zip(models, batch):
            assert tails.shape == (2,)
            assert np.array_equal(
                tails, np.array([model.queueing_tail(1e-3), model.queueing_tail(5e-3)])
            )


class TestLockstepQuantiles:
    def test_lockstep_matches_scalar_search_bitwise(self):
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        stacked = quantiles_from_mgfs(
            [m.queueing_mgf for m in models],
            PROBABILITY,
            scale_hints=stack.scale_hints(),
            atoms_at_zero=stack.atoms_at_zero(),
            stack_eval=stack,
        )
        scalar = [
            quantile_from_mgf(
                m.queueing_mgf,
                PROBABILITY,
                scale_hint=m._inversion_scale_hint,
                atom_at_zero=m.queueing_atom,
            )
            for m in models
        ]
        assert stacked == scalar

    def test_chunking_does_not_change_the_floats(self):
        # A search's trajectory does not depend on its round mates.
        def lockstep(models):
            stack = QueueingMgfStack(models)
            return quantiles_from_mgfs(
                [m.queueing_mgf for m in models],
                PROBABILITY,
                scale_hints=stack.scale_hints(),
                atoms_at_zero=stack.atoms_at_zero(),
                stack_eval=stack,
            )

        models = _mixed_models()[:5]
        assert lockstep(models) == lockstep(models[:2]) + lockstep(models[2:])

    def test_lockstep_uses_fewer_array_calls(self):
        models = _mixed_models()
        stack = QueueingMgfStack(models)
        quantiles_from_mgfs(
            [m.queueing_mgf for m in models],
            PROBABILITY,
            scale_hints=stack.scale_hints(),
            atoms_at_zero=stack.atoms_at_zero(),
            stack_eval=stack,
        )
        # A per-model dispatch costs >= ~20 array calls per model; the
        # lockstep needs one call per search round only.
        assert stack.array_calls < 3 * len(models)

    def test_without_stack_delegates_to_sequential(self):
        models = _mixed_models()[:2]
        mgfs = [m.queueing_mgf for m in models]
        hints = [m._inversion_scale_hint for m in models]
        atoms = [m.queueing_atom for m in models]
        assert quantiles_from_mgfs(mgfs, PROBABILITY, hints, atoms) == [
            quantile_from_mgf(mgf, PROBABILITY, hint, atom_at_zero=atom)
            for mgf, hint, atom in zip(mgfs, hints, atoms)
        ]

    def test_stack_eval_failure_propagates_without_deadlock(self):
        models = _mixed_models()[:3]

        def broken(s, rows):
            raise RuntimeError("joint evaluation exploded")

        with pytest.raises(RuntimeError, match="joint evaluation exploded"):
            quantiles_from_mgfs(
                [m.queueing_mgf for m in models],
                PROBABILITY,
                scale_hints=[m._inversion_scale_hint for m in models],
                atoms_at_zero=[m.queueing_atom for m in models],
                stack_eval=broken,
            )

    def test_invalid_probability_raises(self):
        models = _mixed_models()[:2]
        stack = QueueingMgfStack(models)
        with pytest.raises(ParameterError):
            quantiles_from_mgfs(
                [m.queueing_mgf for m in models],
                1.5,
                scale_hints=stack.scale_hints(),
                atoms_at_zero=stack.atoms_at_zero(),
                stack_eval=stack,
            )

    def test_mismatched_hint_lengths_raise(self):
        models = _mixed_models()[:2]
        with pytest.raises(ParameterError):
            quantiles_from_mgfs(
                [m.queueing_mgf for m in models], PROBABILITY, scale_hints=[1.0]
            )


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

    def test_batch_spends_one_stacked_group_per_signature(self, plan_quantiles):
        models = _mixed_models()
        reset_stacked_eval_count()
        plan_quantiles(models, PROBABILITY)
        calls = stacked_eval_count()
        assert 0 < calls < 3 * len(models)

"""Property tests: the vectorized batch paths agree with the scalar path.

The vectorized Euler inversion must be an optimisation, not an
approximation: across the access-profile presets of the registry and
every quantile method, the array-call tails, the model kernel and the
Engine batch path must return the very same floats the per-point (and
per-abscissa scalar) evaluations produce.
"""

import numpy as np
import pytest

from repro.core.inversion import _stacked_tail_rows, quantile_from_mgf, tail_from_mgf
from repro.core.rtt import QUANTILE_METHODS, QueueingMgfStack
from repro.engine import Engine
from repro.scenarios import get_scenario
from repro.testing import scalar_only

#: The access-profile presets (the per-game presets share their traffic model).
PRESETS = ("paper-dsl", "cable", "ftth", "lte")

LOADS = (0.45, 0.7)


@pytest.mark.parametrize("preset", PRESETS)
class TestTailsAcrossPresets:
    def test_vectorized_tails_match_scalar_path(self, preset):
        model = get_scenario(preset).model_at_load(0.6)
        xs = [0.0, 1e-4, 1e-3, 5e-3, 2e-2]
        vectorized = [
            tail_from_mgf(model.queueing_mgf, x, atom_at_zero=model.queueing_atom) for x in xs
        ]
        scalar = [
            tail_from_mgf(
                scalar_only(model.queueing_mgf), x, atom_at_zero=model.queueing_atom
            )
            for x in xs
        ]
        assert vectorized == scalar
        assert [model.queueing_tail(x) for x in xs] == vectorized

    def test_model_queueing_tails_helper(self, preset):
        # The stacked rows of a one-model stack are the model's own tails.
        model = get_scenario(preset).model_at_load(0.6)
        xs = np.array([1e-3, 5e-3, 1e-2])
        rows = _stacked_tail_rows(
            QueueingMgfStack([model]), np.zeros(len(xs), dtype=np.intp), xs
        )
        assert [float(v) for v in rows] == [model.queueing_tail(float(x)) for x in xs]

    def test_vectorized_quantile_matches_scalar_path(self, preset):
        model = get_scenario(preset).model_at_load(0.6)
        vectorized = quantile_from_mgf(
            model.queueing_mgf,
            0.99999,
            scale_hint=model._inversion_scale_hint,
            atom_at_zero=model.queueing_atom,
        )
        scalar = quantile_from_mgf(
            scalar_only(model.queueing_mgf),
            0.99999,
            scale_hint=model._inversion_scale_hint,
            atom_at_zero=model.queueing_atom,
        )
        # The acceptance bound is 1e-9 relative; the paths are in fact
        # bit-identical because they share weights, abscissae and MGF bits.
        assert scalar == pytest.approx(vectorized, rel=1e-9)
        assert scalar == vectorized


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("method", QUANTILE_METHODS)
class TestEngineBatchAcrossMethods:
    def test_engine_batch_matches_per_point(self, preset, method):
        scenario = get_scenario(preset)
        batch = Engine(scenario, method=method).rtt_quantiles(LOADS)
        per_point = [
            scenario.model_at_load(load).rtt_quantile(0.99999, method=method)
            for load in LOADS
        ]
        assert batch == per_point

    def test_plan_layer_matches_model_api(self, plan_quantiles, preset, method):
        scenario = get_scenario(preset)
        models = [scenario.model_at_load(load) for load in LOADS]
        batch = plan_quantiles(models, 0.99999, method=method)
        single = [m.rtt_quantile(0.99999, method=method) for m in models]
        assert batch == single

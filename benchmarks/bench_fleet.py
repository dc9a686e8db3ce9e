"""Benchmark — Fleet request serving vs. per-engine dispatch.

PR 2 vectorized the Euler inversion *within* one model: every tail
evaluation costs one MGF array call instead of one scalar call per
abscissa.  The Fleet's stacked evaluator removes the remaining axis —
the model index: a heterogeneous multi-scenario request batch is
partitioned into stack-compatible groups and every lockstep round of
the quantile searches costs **one** joint array evaluation across all
models of a group, instead of one array call per model.

Acceptance criteria asserted here (ISSUE 3):

* a mixed 4-preset request batch served through the Fleet performs
  >= 3x fewer MGF array invocations than per-engine dispatch (one
  ``quantile_from_mgf`` search per model; the observed ratio is ~30x);
* the served quantiles agree with the serial scalar
  ``model.rtt_quantile`` to <= 1e-9 relative error — and are in fact bit-identical, because the
  stacked rounds reproduce the per-model tail bits and therefore the
  exact search trajectories;
* a second pass over the same stream is answered entirely from the
  shared bounded cache: zero evaluations, zero array calls.
"""

import time

import numpy as np
import pytest

from repro.core.inversion import quantile_from_mgf
from repro.fleet import Fleet, Request
from repro.scenarios import get_scenario
from repro.testing import CountingMgf

from conftest import print_header

#: The paper's headline quantile level (Section 4).
PROBABILITY = 0.99999

#: The mixed access-profile batch: four presets sharing one load grid.
PRESETS = ("paper-dsl", "cable", "ftth", "lte")
LOADS = np.linspace(0.10, 0.85, 12)


@pytest.mark.benchmark(group="fleet-serving")
def test_fleet_vs_per_engine_dispatch(benchmark):
    requests = [
        Request(preset, downlink_load=float(load), probability=PROBABILITY)
        for preset in PRESETS
        for load in LOADS
    ]
    models_by_preset = {
        preset: [get_scenario(preset).model_at_load(float(load)) for load in LOADS]
        for preset in PRESETS
    }

    # -- per-engine dispatch: one quantile_from_mgf search per model, one
    #    MGF array call per tail evaluation.
    start = time.perf_counter()
    dispatch_calls = 0
    dispatch_quantiles = []
    for preset in PRESETS:
        for model in models_by_preset[preset]:
            wrapper = CountingMgf(model.queueing_mgf)
            queueing = quantile_from_mgf(
                wrapper,
                PROBABILITY,
                scale_hint=model._inversion_scale_hint,
                atom_at_zero=model.queueing_atom,
            )
            dispatch_calls += wrapper.calls
            dispatch_quantiles.append(model.deterministic_delay_s + queueing)
    dispatch_elapsed = time.perf_counter() - start

    # -- the Fleet: the whole mixed batch in one pass over the stacked
    #    cross-model inverter.
    fleet = Fleet()
    start = time.perf_counter()
    answers = benchmark.pedantic(lambda: fleet.serve(requests), rounds=1, iterations=1)
    fleet_elapsed = time.perf_counter() - start
    fleet_calls = fleet.stats.stacked_mgf_calls
    fleet_quantiles = [answer.rtt_quantile_s for answer in answers]

    # -- reference: the serial scalar search path, point by point.
    per_point = []
    for preset in PRESETS:
        scenario = get_scenario(preset)
        per_point.extend(
            scenario.model_at_load(float(load)).rtt_quantile(PROBABILITY)
            for load in LOADS
        )

    relative_errors = [
        abs(fleet_value - reference) / abs(reference)
        for fleet_value, reference in zip(fleet_quantiles, per_point)
    ]
    ratio = dispatch_calls / fleet_calls

    # -- warm pass: the stream repeats, the cache answers everything.
    evaluations_before = fleet.stats.evaluations
    warm_answers = fleet.serve(requests)
    warm_calls = fleet.stats.stacked_mgf_calls - fleet_calls

    print_header("Fleet request serving vs. per-engine dispatch")
    print(f"requests (presets x loads)      : {len(requests)} ({len(PRESETS)} x {len(LOADS)})")
    print(f"quantile level                  : {PROBABILITY}")
    print(f"per-engine MGF array calls      : {dispatch_calls}")
    print(f"fleet stacked MGF array calls   : {fleet_calls}")
    print(f"array-invocation ratio          : {ratio:.1f}x")
    print(f"per-engine wall time            : {dispatch_elapsed * 1e3:.1f} ms")
    print(f"fleet wall time                 : {fleet_elapsed * 1e3:.1f} ms")
    print(f"max relative quantile error     : {max(relative_errors):.2e}")
    print(f"warm-pass evaluations           : {fleet.stats.evaluations - evaluations_before}")
    print(f"warm-pass stacked MGF calls     : {warm_calls}")
    print(f"fleet cache                     : {fleet.cache_size()} entries, "
          f"hit rate {fleet.stats.hit_rate:.2f}")

    # Acceptance: measurably fewer MGF array invocations than dispatch.
    assert ratio >= 3.0

    # Acceptance: agreement with the scalar path to <= 1e-9 —
    # in fact bit-identical (same tail bits, same search trajectories).
    assert max(relative_errors) <= 1e-9
    assert fleet_quantiles == per_point

    # Acceptance: the repeated stream is served entirely from the cache.
    assert fleet.stats.evaluations == evaluations_before
    assert warm_calls == 0
    assert all(answer.cached for answer in warm_answers)
    assert [answer.rtt_quantile_s for answer in warm_answers] == fleet_quantiles

    # The dispatch baseline computed the same floats (sanity, not a gate).
    assert dispatch_quantiles == per_point

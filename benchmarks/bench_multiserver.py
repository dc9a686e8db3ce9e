"""Benchmark — stacked multi-server mix serving vs. naive per-flow dispatch.

ISSUE 5 wires the Section 3.2 multi-server mix (several game servers on
one reserved pipe) through the plan/execute/assemble serving stack: a
mix request compiles into the same picklable :class:`EvalPlan` units as
a single-server request, with factor signature ``(1, 1, K_tagged - 1)``,
so a whole batch of mix lookups — every tagged game, every load — runs
as ONE stacked lockstep search group instead of one quantile search per
flow.

Acceptance criteria asserted here:

* a batch of mix requests (3 tagged variants x a load grid) served
  through the Fleet performs >= 3x fewer MGF array invocations than
  naive per-flow dispatch (one per-model quantile search per request);
* the served quantiles are bit-identical to the serial scalar
  ``model.rtt_quantile`` on the same mix scenarios;
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

#: Every tagged view of the registry mix preset shares one load grid.
LOADS = np.linspace(0.15, 0.80, 10)


@pytest.mark.benchmark(group="multiserver-serving")
def test_stacked_mix_serving_vs_per_flow_dispatch(benchmark):
    mix = get_scenario("multi-game-dsl")
    variants = [mix.tagged_variant(index) for index in range(len(mix.components))]
    requests = [
        Request(variant, downlink_load=float(load), probability=PROBABILITY)
        for variant in variants
        for load in LOADS
    ]
    models = [
        variant.model_at_load(float(load)) for variant in variants for load in LOADS
    ]

    # -- naive per-flow dispatch: one scalar quantile search per mix
    #    model, one MGF array call per tail evaluation per model.
    start = time.perf_counter()
    dispatch_calls = 0
    dispatch_quantiles = []
    for model in models:
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

    # -- the Fleet: all tagged variants and loads in one stacked pass.
    fleet = Fleet()
    start = time.perf_counter()
    answers = benchmark.pedantic(lambda: fleet.serve(requests), rounds=1, iterations=1)
    fleet_elapsed = time.perf_counter() - start
    fleet_calls = fleet.stats.stacked_mgf_calls
    fleet_quantiles = [answer.rtt_quantile_s for answer in answers]

    # -- reference: the serial scalar search path on the same mix scenarios.
    per_point = []
    for variant in variants:
        per_point.extend(
            variant.model_at_load(float(load)).rtt_quantile(PROBABILITY)
            for load in LOADS
        )

    ratio = dispatch_calls / fleet_calls

    # -- warm pass: the stream repeats, the cache answers everything.
    evaluations_before = fleet.stats.evaluations
    warm_answers = fleet.serve(requests)
    warm_calls = fleet.stats.stacked_mgf_calls - fleet_calls

    print_header("Stacked multi-server mix serving vs. per-flow dispatch")
    print(f"requests (variants x loads)     : {len(requests)} "
          f"({len(variants)} x {len(LOADS)})")
    print(f"per-flow MGF array calls        : {dispatch_calls}")
    print(f"fleet stacked MGF array calls   : {fleet_calls}")
    print(f"array-invocation ratio          : {ratio:.1f}x")
    print(f"per-flow wall time              : {dispatch_elapsed * 1e3:.1f} ms")
    print(f"fleet wall time                 : {fleet_elapsed * 1e3:.1f} ms")
    print(f"warm-pass evaluations           : {fleet.stats.evaluations - evaluations_before}")
    print(f"warm-pass stacked MGF calls     : {warm_calls}")

    # Acceptance: measurably fewer MGF array invocations than dispatch.
    assert ratio >= 3.0

    # Acceptance: bit-identical to the scalar path (same tail
    # bits, same search trajectories) — and to the naive dispatch.
    assert fleet_quantiles == per_point
    assert dispatch_quantiles == per_point

    # Acceptance: the repeated stream is served entirely from the cache.
    assert fleet.stats.evaluations == evaluations_before
    assert warm_calls == 0
    assert all(answer.cached for answer in warm_answers)
    assert [answer.rtt_quantile_s for answer in warm_answers] == fleet_quantiles

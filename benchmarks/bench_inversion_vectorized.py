"""Benchmark — vectorized Euler inversion vs. per-abscissa scalar calls.

With PR 1's Engine cache removing model rebuilds, the inner Euler
inversion loop became the hot path: every tail evaluation used to invoke
the MGF callable once per abscissa (35 scalar calls for the default
``plain_terms + euler_terms + 1``), and every quantile search performs
dozens of tail evaluations.  The vectorized path assembles all abscissae
into one complex array and invokes the MGF once per tail evaluation.

A model's own quantile no longer goes through the callable at all: it
runs on the model's compiled product kernel
(``ComposedRttModel.tail_kernel``), which inverts the product directly,
without the generic route's per-tail dispatch (closure, scalar-fallback
checks, an error-state context per tail, lockstep round lists).

Acceptance criteria asserted here:

* >= 3x fewer MGF callable invocations per sweep point (measured with a
  counting wrapper; the actual ratio is the abscissa count, ~35x);
* a wall-clock speedup on the default 18-point load grid;
* vectorized and scalar quantiles agreeing to <= 1e-9 relative error
  (they are in fact bit-identical: both paths share the same weight
  vector, abscissae and MGF bits);
* on 200 fresh cold points over the presets perfbench leaves
  unsurfaced, drawn by its cold-request generator, the kernel route
  (``model.queueing_quantile``, kernel compile included) returns the
  floats of ``quantile_from_mgf(model.queueing_mgf, ...)`` with ``==``
  and is >= 1.25x faster over the same prebuilt models, timed
  interleaved.  The result is recorded in ``BENCH_inversion.json``.
"""

import time

import pytest

from perfbench import streams
from repro.core.inversion import quantile_from_mgf, quantiles_from_mgfs
from repro.core.rtt import QueueingMgfStack
from repro.errors import ReproError
from repro.fleet import Fleet
from repro.scenarios import Scenario, default_load_grid
from repro.testing import CountingMgf

from conftest import print_header, record_result

#: The paper's headline quantile level (Section 4).
PROBABILITY = 0.99999

#: Tight brentq tolerance so the agreement check is not solver noise.
TOLERANCE = 1e-13

SCENARIO = Scenario(tick_interval_s=0.040)


def _quantile_with_counter(model, scalar_only):
    wrapper = CountingMgf(model.queueing_mgf, accept_arrays=not scalar_only)
    value = quantile_from_mgf(
        wrapper,
        PROBABILITY,
        scale_hint=model._inversion_scale_hint,
        tolerance=TOLERANCE,
        atom_at_zero=model.queueing_atom,
    )
    return value, wrapper.calls


@pytest.mark.benchmark(group="inversion-vectorized")
def test_vectorized_inversion_vs_scalar(benchmark):
    grid = default_load_grid()  # the default 18-point 5%-90% grid
    models = [SCENARIO.model_at_load(float(load)) for load in grid]

    # -- scalar path: one MGF invocation per Euler abscissa -------------
    start = time.perf_counter()
    scalar_results = [_quantile_with_counter(model, True) for model in models]
    scalar_elapsed = time.perf_counter() - start
    scalar_quantiles = [value for value, _ in scalar_results]
    scalar_calls = [calls for _, calls in scalar_results]

    # -- vectorized path: one MGF invocation per tail evaluation --------
    start = time.perf_counter()
    vector_results = benchmark.pedantic(
        lambda: [_quantile_with_counter(model, False) for model in models],
        rounds=1,
        iterations=1,
    )
    vector_elapsed = time.perf_counter() - start
    vector_quantiles = [value for value, _ in vector_results]
    vector_calls = [calls for _, calls in vector_results]

    # -- the stacked lockstep search of a multi-model plan --------------
    batch_quantiles = quantiles_from_mgfs(
        [PROBABILITY] * len(models),
        [model._inversion_scale_hint for model in models],
        [model.queueing_atom for model in models],
        stack_eval=QueueingMgfStack(models),
        tolerance=TOLERANCE,
    )

    ratios = [s / v for s, v in zip(scalar_calls, vector_calls)]
    relative_errors = [
        abs(s - v) / abs(s) for s, v in zip(scalar_quantiles, vector_quantiles)
    ]
    speedup = scalar_elapsed / vector_elapsed

    print_header("Vectorized Euler inversion vs. per-abscissa scalar calls")
    print(f"grid points                     : {len(grid)}")
    print(f"quantile level                  : {PROBABILITY}")
    print(f"scalar MGF calls per point      : min {min(scalar_calls)}, max {max(scalar_calls)}")
    print(f"vectorized MGF calls per point  : min {min(vector_calls)}, max {max(vector_calls)}")
    print(f"invocation ratio per point      : min {min(ratios):.1f}x, max {max(ratios):.1f}x")
    print(f"scalar wall time                : {scalar_elapsed * 1e3:.1f} ms")
    print(f"vectorized wall time            : {vector_elapsed * 1e3:.1f} ms")
    print(f"wall-clock speedup              : {speedup:.1f}x")
    print(f"max relative quantile error     : {max(relative_errors):.2e}")

    # Acceptance: >= 3x fewer MGF callable invocations per sweep point.
    assert min(ratios) >= 3.0

    # Acceptance: agreement to <= 1e-9 relative error.
    assert max(relative_errors) <= 1e-9

    # The stacked search returns the exact per-point floats.
    assert batch_quantiles == vector_quantiles

    # Acceptance: a measured wall-clock speedup on the default grid (the
    # observed factor is >10x locally; 1.2x keeps slow-CI noise out of
    # the gate, and a one-shot stall re-measures before failing the PR).
    if speedup <= 1.2:
        start = time.perf_counter()
        for model in models:
            _quantile_with_counter(model, True)
        scalar_retry = time.perf_counter() - start
        start = time.perf_counter()
        for model in models:
            _quantile_with_counter(model, False)
        vector_retry = time.perf_counter() - start
        speedup = scalar_retry / vector_retry
        print(f"wall-clock speedup (retry)      : {speedup:.1f}x")
    assert speedup > 1.2


#: Cold points of the kernel gate, and the seed, length and rate of the
#: perfbench schedule they are taken from (about 10% of it is cold).
COLD_POINTS = 200
COLD_SEED = 2024
COLD_SCHEDULE_S = 12.0
COLD_RATE = 250.0

#: The kernel route must beat the generic callable route by this factor.
KERNEL_MIN_SPEEDUP = 1.25


def _cold_models():
    """``(model, probability)`` for fresh cold points, models prebuilt.

    The points are the cold requests of a perfbench ``http-mixed``
    schedule; the few the fleet rejects (fewer than one gamer, an
    unstable uplink) are skipped.
    """
    fleet = Fleet()
    schedule = streams.HttpInputs(COLD_SEED, streams.HTTP_MIX).schedule(
        COLD_SCHEDULE_S, COLD_RATE
    )
    out = []
    for _, tier, record in schedule:
        if tier != "cold":
            continue
        try:
            resolved = fleet.resolve_request(record)
        except ReproError:
            continue
        model = resolved.scenario.model_for_gamers(resolved.num_gamers)
        model.mean_queueing_delay()  # build the three factors up front
        out.append((model, resolved.probability))
        if len(out) == COLD_POINTS:
            return out
    raise AssertionError(f"the schedule holds fewer than {COLD_POINTS} cold points")


def _time_routes(cases):
    """Seconds spent by each route over ``cases``, interleaved per model."""
    kernel_s = generic_s = 0.0
    kernel, generic = [], []
    for index, (model, probability) in enumerate(cases):
        for route in ((0, 1) if index % 2 else (1, 0)):
            start = time.perf_counter()
            if route == 0:
                kernel.append(model.queueing_quantile(probability))
                kernel_s += time.perf_counter() - start
            else:
                generic.append(
                    quantile_from_mgf(
                        model.queueing_mgf,
                        probability,
                        model._inversion_scale_hint,
                        atom_at_zero=model.queueing_atom,
                    )
                )
                generic_s += time.perf_counter() - start
    return kernel, generic, kernel_s, generic_s


@pytest.mark.benchmark(group="inversion-kernel")
def test_compiled_kernel_vs_generic_callable(benchmark):
    cases = _cold_models()
    kernel, generic, kernel_s, generic_s = benchmark.pedantic(
        lambda: _time_routes(cases), rounds=1, iterations=1
    )
    speedup = generic_s / kernel_s
    if speedup < KERNEL_MIN_SPEEDUP:
        # One re-measure on fresh models before failing on a host stall.
        kernel, generic, kernel_s, generic_s = _time_routes(_cold_models())
        speedup = generic_s / kernel_s

    print_header("Compiled product kernel vs. generic callable inversion")
    print(f"cold points                     : {len(cases)}")
    print(f"generic quantile_from_mgf       : {generic_s / len(cases) * 1e3:.3f} ms/point")
    print(f"kernel (compile included)       : {kernel_s / len(cases) * 1e3:.3f} ms/point")
    print(f"speedup                         : {speedup:.2f}x")
    record_result(
        "inversion",
        "kernel_vs_generic",
        points=len(cases),
        generic_ms_per_point=generic_s / len(cases) * 1e3,
        kernel_ms_per_point=kernel_s / len(cases) * 1e3,
        speedup=speedup,
        bit_identical=kernel == generic,
    )

    assert kernel == generic
    assert speedup >= KERNEL_MIN_SPEEDUP

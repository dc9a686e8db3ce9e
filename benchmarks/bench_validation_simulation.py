"""Validation benchmark — vectorized Monte-Carlo and discrete-event checks.

Four validations, all inside CI smoke budgets:

1. the batched 2-D Lindley recursion (:mod:`repro.validate.batch`) is
   bit-identical to the scalar per-sample loop and >= 20x faster at the
   400k samples a tail quantile needs (the perf gate of the vectorized
   validation tier);
2. the D/E_K/1 burst-delay tail and the total queueing-delay quantile
   against the batched Monte-Carlo composition (the mathematics of
   Section 3, now sampled through the replication-count-invariant
   streams);
3. the validation fleet sweeps every registry preset x all five
   quantile methods x both load points within tolerance;
4. the end-to-end RTT of the Figure 2 discrete-event simulation against
   the analytical quantile — for the single-server scenario AND for the
   multi-server mix (the first independent end-to-end check of the
   one-pole eq. (14) approximation).
"""

import time

import numpy as np
import pytest

from repro.netsim import (
    AccessNetworkConfig,
    GamingSimulation,
    GamingWorkload,
    MixGamingSimulation,
)
from repro.scenarios import Scenario, get_scenario
from repro.validate import (
    ValidationFleet,
    batch_waiting_times,
    lindley_waiting_times,
    monte_carlo_queueing_delays,
    sample_burst_arrivals,
    scalar_lindley_waiting_times,
    scalar_waiting_times,
    spawn_generators,
)

from conftest import print_header, record_result

#: 400 replications x 1000 arrivals = the 400k samples of the perf gate.
N_REPS = 400
N_ARRIVALS = 1_000
SPEEDUP_GATE = 20.0


@pytest.mark.benchmark(group="validation")
def test_batched_lindley_speedup(benchmark):
    """The vectorized recursion: bit-identical and >= 20x at 400k samples."""
    scenario = Scenario(tick_interval_s=0.040).with_erlang_order(9)
    queue = scenario.model_at_load(0.5).downstream_queue()

    # Sample the arrival process once; both recursions walk the same
    # pre-sampled arrays, so the ratio times the recursion alone.
    rngs = spawn_generators(99, N_REPS)
    rows = [sample_burst_arrivals(queue, N_ARRIVALS, rng) for rng in rngs]
    services = np.stack([row[0] for row in rows])
    gap = rows[0][1]
    total_samples = services.size

    start = time.perf_counter()
    reference = scalar_lindley_waiting_times(services, gap)
    scalar_s = time.perf_counter() - start

    batched = benchmark.pedantic(
        lambda: lindley_waiting_times(services, gap), rounds=1, iterations=1
    )
    start = time.perf_counter()
    lindley_waiting_times(services, gap)
    vector_s = time.perf_counter() - start
    speedup = scalar_s / vector_s

    # The full validation path (sampling + recursion + warmup slicing),
    # recorded for the trajectory; the gate is on the recursion itself,
    # where the per-sample Python loop lives (the gamma sampling is the
    # same vectorized numpy call on both paths).
    start = time.perf_counter()
    end_to_end_scalar = scalar_waiting_times(
        queue, N_ARRIVALS - 500, N_REPS, seed=99, warmup=500
    )
    path_scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    end_to_end_batched = batch_waiting_times(
        queue, N_ARRIVALS - 500, N_REPS, seed=99, warmup=500
    )
    path_batched_s = time.perf_counter() - start

    print_header("Validation - batched Lindley recursion vs scalar loop")
    print(f"samples (reps x arrivals)  : {total_samples} ({N_REPS} x {N_ARRIVALS})")
    print(f"scalar recursion           : {scalar_s * 1e3:.1f} ms")
    print(f"vectorized recursion       : {vector_s * 1e3:.1f} ms")
    print(f"recursion speedup          : {speedup:.1f}x (gate: >= {SPEEDUP_GATE:.0f}x)")
    print(f"full path (sample+recurse) : scalar {path_scalar_s * 1e3:.1f} ms, "
          f"batched {path_batched_s * 1e3:.1f} ms "
          f"({path_scalar_s / path_batched_s:.1f}x)")

    record_result(
        "validation",
        "batched_lindley_speedup",
        samples=int(total_samples),
        n_reps=N_REPS,
        n_arrivals=N_ARRIVALS,
        scalar_s=scalar_s,
        vector_s=vector_s,
        speedup=speedup,
        path_scalar_s=path_scalar_s,
        path_batched_s=path_batched_s,
        path_speedup=path_scalar_s / path_batched_s,
        gate=SPEEDUP_GATE,
    )

    # Acceptance: an optimisation, not an approximation — and fast.
    np.testing.assert_array_equal(batched, reference)
    np.testing.assert_array_equal(end_to_end_batched, end_to_end_scalar)
    assert speedup >= SPEEDUP_GATE


@pytest.mark.benchmark(group="validation")
def test_queueing_model_against_monte_carlo(benchmark):
    scenario = Scenario(tick_interval_s=0.040).with_erlang_order(9)
    model = scenario.model_at_load(0.5)

    # 400 replications x 1000 post-warmup samples = the same 400k-sample
    # budget the old hand-rolled loop used, now through the batched
    # composition (burst Lindley + position + honest upstream mixture).
    total = benchmark.pedantic(
        lambda: monte_carlo_queueing_delays(model, 1_000, 400, seed=99),
        rounds=1,
        iterations=1,
    ).ravel()

    print_header(
        "Validation - analytical queueing delay vs Monte-Carlo (K=9, 50% load)"
    )
    tails = {}
    for x_ms in (20.0, 30.0, 40.0):
        analytic = model.queueing_tail(x_ms / 1e3)
        empirical = float((total > x_ms / 1e3).mean())
        tails[f"{x_ms:.0f}ms"] = {"model": analytic, "monte_carlo": empirical}
        print(f"P(queueing delay > {x_ms:.0f} ms): model={analytic:.3e}  "
              f"monte-carlo={empirical:.3e}")
        if empirical > 5e-5:
            assert analytic == pytest.approx(empirical, rel=0.25)

    analytic_q = 1e3 * model.queueing_quantile(0.9999)
    empirical_q = 1e3 * float(np.quantile(total, 0.9999))
    print(f"99.99% queueing quantile: model={analytic_q:.2f} ms  "
          f"monte-carlo={empirical_q:.2f} ms")
    record_result(
        "validation",
        "model_vs_monte_carlo",
        samples=int(total.size),
        analytic_q9999_ms=analytic_q,
        empirical_q9999_ms=empirical_q,
        tails=tails,
    )
    assert analytic_q == pytest.approx(empirical_q, rel=0.10)


@pytest.mark.benchmark(group="validation")
def test_validation_fleet_sweeps_every_preset(benchmark):
    """Every preset x all 5 methods x both loads, in CI smoke time."""
    fleet = ValidationFleet("all", "all")
    report = benchmark.pedantic(fleet.run, rounds=1, iterations=1)

    print_header("Validation - fleet sweep (all presets x all methods)")
    print(report.format_table())

    worst = max(report.cases, key=lambda c: abs(c.rel_error))
    record_result(
        "validation",
        "fleet_sweep",
        presets=len(fleet.presets),
        methods=len(fleet.methods),
        loads=len(fleet.loads),
        cases=len(report.cases),
        failures=len(report.failures()),
        elapsed_s=report.elapsed_s,
        worst_case={
            "preset": worst.preset,
            "method": worst.method,
            "load": worst.downlink_load,
            "rel_error": worst.rel_error,
        },
    )
    assert report.passed, report.format_table()
    # The sweep must be registry-wide: 14 presets x 5 methods x 2 loads.
    assert len(report.cases) == len(fleet.presets) * len(fleet.methods) * 2


@pytest.mark.benchmark(group="validation")
def test_model_against_discrete_event_simulation(benchmark):
    num_clients = 50
    config = AccessNetworkConfig(num_clients=num_clients, scheduler="fifo")
    workload = GamingWorkload(tick_interval_s=0.040)
    scenario = Scenario(tick_interval_s=0.040).with_erlang_order(9)
    model = scenario.model_for_gamers(num_clients)

    def run():
        simulation = GamingSimulation(config, workload, seed=77)
        return simulation, simulation.run(60.0, warmup_s=5.0)

    simulation, delays = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Validation - discrete-event simulation vs analytical model (50 gamers)")
    print(f"offered downlink load     : sim={simulation.downlink_load:.3f}  model={model.downlink_load:.3f}")
    print(f"mean RTT                  : sim={1e3 * delays.mean('rtt'):.2f} ms  model={1e3 * model.mean_rtt():.2f} ms")
    print(f"99.9% RTT                 : sim={1e3 * delays.quantile('rtt', 0.999):.2f} ms")
    print(f"99.999% RTT (analytical)  : {model.rtt_quantile_ms():.2f} ms")

    record_result(
        "validation",
        "des_single_server",
        num_clients=num_clients,
        sim_mean_rtt_ms=1e3 * delays.mean("rtt"),
        model_mean_rtt_ms=1e3 * model.mean_rtt(),
        sim_q999_ms=1e3 * delays.quantile("rtt", 0.999),
        model_q99999_ms=model.rtt_quantile_ms(),
    )

    # Loads agree by construction.
    assert simulation.downlink_load == pytest.approx(model.downlink_load)
    # Mean RTTs agree within 25% (the analytical upstream/downstream
    # abstractions are slightly conservative for periodic traffic).
    assert delays.mean("rtt") == pytest.approx(model.mean_rtt(), rel=0.25)
    # The analytical 99.999% quantile upper-bounds the simulated 99.9% RTT.
    assert delays.quantile("rtt", 0.999) <= model.rtt_quantile(0.99999)


@pytest.mark.benchmark(group="validation")
def test_mix_model_against_discrete_event_simulation(benchmark):
    """End-to-end mix DES vs the one-pole eq. (14) analytical model.

    Three game servers (CS / Quake3 / Half-Life weights 0.5/0.3/0.2)
    share the reserved pipe; the measured tagged-flow ping is the first
    discrete-event check of the mix approximation — the Monte-Carlo
    reference above shares the queueing recursion, the DES does not.
    """
    mix = get_scenario("multi-game-dsl")
    num_gamers = 50
    model = mix.model_for_gamers(num_gamers)

    def run():
        simulation = MixGamingSimulation(mix, num_gamers, seed=77)
        return simulation, simulation.run(60.0, warmup_s=5.0)

    simulation, delays = benchmark.pedantic(run, rounds=1, iterations=1)
    rel_mean = abs(model.mean_rtt() - delays.mean("rtt")) / delays.mean("rtt")

    print_header("Validation - mix discrete-event simulation vs eq. (14) model (50 gamers)")
    print(f"population split          : {simulation.flow_counts} (weights {mix.weights()})")
    print(f"offered downlink load     : sim={simulation.downlink_load:.3f}  model={model.downlink_load:.3f}")
    print(f"mean RTT                  : sim={1e3 * delays.mean('rtt'):.2f} ms  model={1e3 * model.mean_rtt():.2f} ms  (rel {rel_mean:.3f})")
    print(f"99.9% RTT                 : sim={1e3 * delays.quantile('rtt', 0.999):.2f} ms")
    print(f"99.999% RTT (analytical)  : {1e3 * model.rtt_quantile(0.99999):.2f} ms")

    record_result(
        "validation",
        "des_mix",
        num_gamers=num_gamers,
        flow_counts=list(simulation.flow_counts),
        sim_mean_rtt_ms=1e3 * delays.mean("rtt"),
        model_mean_rtt_ms=1e3 * model.mean_rtt(),
        mean_rel_error=rel_mean,
        sim_q999_ms=1e3 * delays.quantile("rtt", 0.999),
        model_q99999_ms=1e3 * model.rtt_quantile(0.99999),
    )

    # Loads agree by construction (the 50-gamer split is weight-exact).
    assert simulation.downlink_load == pytest.approx(model.downlink_load)
    # Documented band: mean tagged-flow RTT within 25% of the model.
    assert rel_mean < 0.25
    # The analytical far tail upper-bounds the simulated 99.9% RTT.
    assert delays.quantile("rtt", 0.999) <= model.rtt_quantile(0.99999)

"""Ablation benchmark — sensitivity to the server packet size P_S.

Section 4 reports that repeating the Figure 3 experiment with
P_S = 100 byte and P_S = 75 byte gives "nearly the same behaviour", and
that when P_S < P_C the uplink becomes the binding constraint (for
P_S = 75 byte a downlink load of 75/80 corresponds to an uplink load
of 1).  This ablation regenerates the curves for the three packet sizes
and checks both statements.
"""

import numpy as np
import pytest

from repro.core.rtt import DEFAULT_QUANTILE
from repro.scenarios import Scenario, sweep_loads

from conftest import print_header


def run_packet_size_ablation():
    loads = np.linspace(0.05, 0.85, 9)
    results = {}
    for server_bytes in (75.0, 100.0, 125.0):
        scenario = Scenario(
            server_packet_bytes=server_bytes, tick_interval_s=0.060, erlang_order=9
        )
        results[server_bytes] = sweep_loads(scenario, loads, probability=DEFAULT_QUANTILE)
    return loads, results


@pytest.mark.benchmark(group="ablation-packet-size")
def test_server_packet_size_sensitivity(benchmark):
    loads, results = benchmark.pedantic(run_packet_size_ablation, rounds=1, iterations=1)
    print_header("Ablation - server packet size P_S in {75, 100, 125} byte")
    for server_bytes, series in sorted(results.items()):
        rtts = ", ".join(f"{v:.1f}" for v in series.rtt_ms())
        print(f"P_S = {server_bytes:5.0f} byte : RTT(ms) = [{rtts}]")

    # "Nearly the same behaviour": at the same downlink load the RTT
    # curves for the three packet sizes agree within ~15% over the
    # downstream-dominated region (the downstream model depends on the
    # load only, not on the capacity or the packet size).
    reference = np.asarray(results[125.0].rtt_ms())
    for server_bytes in (75.0, 100.0):
        other = np.asarray(results[server_bytes].rtt_ms())
        mid = slice(1, 7)
        np.testing.assert_allclose(other[mid], reference[mid], rtol=0.15)

    # Uplink dominance for P_S < P_C: with P_S = 75 byte the uplink load
    # exceeds the downlink load, and the model refuses downlink loads
    # beyond 75/80 (uplink saturation).
    scenario_75 = Scenario(server_packet_bytes=75.0, tick_interval_s=0.060, erlang_order=9)
    model = scenario_75.model_at_load(0.5)
    assert model.uplink_load > model.downlink_load
    from repro.errors import StabilityError

    with pytest.raises(StabilityError):
        scenario_75.model_at_load(0.95)

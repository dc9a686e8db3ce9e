"""Capacity planning for a gaming service on a DSL aggregation network.

The question an operator asks (and the paper answers in Section 4): given
the capacity dedicated to gaming on the bottleneck link and a ping
budget, how many simultaneous gamers can be admitted?

This example sweeps the three burst-size Erlang orders of the paper and
several RTT budgets, and prints the maximum tolerable downlink load and
the corresponding number of gamers (eq. 37).

Run with::

    python examples/dsl_dimensioning.py
"""

from repro.core.dimensioning import max_tolerable_load
from repro.experiments.report import format_table
from repro.scenarios import Scenario


def main() -> None:
    scenario = Scenario(
        server_packet_bytes=125.0,
        tick_interval_s=0.040,
        aggregation_rate_bps=5_000_000.0,
    )

    rows = []
    for erlang_order in (2, 9, 20):
        for rtt_budget_ms in (50.0, 100.0, 150.0):
            variant = scenario.with_erlang_order(erlang_order)
            result = max_tolerable_load(
                rtt_budget_ms / 1e3, **variant.model_kwargs()
            )
            rows.append(
                [
                    erlang_order,
                    f"{rtt_budget_ms:.0f}",
                    f"{result.max_load:.1%}",
                    result.max_gamers,
                    f"{result.rtt_at_max_load_ms:.1f}",
                ]
            )

    print("Dimensioning a 5 Mbit/s gaming share (P_S = 125 byte, T = 40 ms)")
    print()
    print(
        format_table(
            ["K", "RTT budget (ms)", "max load", "max gamers", "RTT at max load (ms)"],
            rows,
        )
    )
    print()
    print(
        "The paper's reading for a 50 ms budget: ~20% / 40% / 60% load and "
        "40 / 80 / 120 gamers for K = 2 / 9 / 20."
    )
    print(
        "Note how low the tolerable load is: even smooth traffic (K = 20) "
        "cannot fill much more than ~60% of the provisioned capacity."
    )


if __name__ == "__main__":
    main()

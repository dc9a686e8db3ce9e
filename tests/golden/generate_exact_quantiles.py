"""Record the golden exact floats in ``tests/golden/exact_quantiles.json``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_exact_quantiles.py

The fixture pins, as recorded values rather than as a comparison of two
code paths that could drift together:

* the RTT quantile of every registry preset x every quantile method x
  :data:`LOADS` x :data:`PROBABILITIES`, which the scalar path
  (``Engine.rtt_quantile``) and the stacked plan path
  (``Engine.rtt_quantiles``) must both reproduce;
* the exact ``Engine.dimension`` and ``Engine.admit(exact=True)``
  answers at :data:`BUDGETS_S` for every preset that answers them;
* every point of ``Engine.sweep`` over ``default_load_grid()`` at
  :data:`SWEEP_PROBABILITY` for every preset: its downlink load, uplink
  load, gamer count and RTT quantile (the uplink load is the model's own
  eq. (37) product, which can differ by an ulp from
  ``scenario.uplink_load_for(scenario.load_for_gamers(n))``).

Floats are bit-identical only on the platform that recorded them (a
different libm, SIMD kernel or FMA contraction may move the last bits),
so the header records the interpreter, numpy, scipy and the machine.
Regenerate only on purpose: the fixture exists to catch a refactor that
moves a float.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from repro.core.rtt import QUANTILE_METHODS
from repro.engine import Engine
from repro.errors import ParameterError
from repro.scenarios import available_scenarios, default_load_grid, get_scenario

PATH = Path(__file__).with_name("exact_quantiles.json")
LOADS = (0.5, 0.7)
PROBABILITIES = (0.999, 0.99999)
#: RTT budgets of the dimension/admit records (seconds).
BUDGETS_S = (0.005, 0.030, 0.060, 0.100)
#: Quantile level of the dimension/admit records.
CAPACITY_PROBABILITY = 0.99999
#: Quantile level of the sweep records (``inversion`` method).
SWEEP_PROBABILITY = 0.99999


def cpu_model() -> str:
    """The CPU model name, when the platform exposes it."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def platform_header() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def quantile_records() -> list:
    records = []
    for name in available_scenarios():
        engine = Engine(get_scenario(name))
        for method in QUANTILE_METHODS:
            for probability in PROBABILITIES:
                stacked = engine.rtt_quantiles(LOADS, probability, method)
                for load, value in zip(LOADS, stacked):
                    scalar = Engine(engine.scenario).rtt_quantile(load, probability, method)
                    if scalar != value:
                        sys.exit(f"{name}/{method}: scalar {scalar!r} != stacked {value!r}")
                    records.append(
                        {
                            "preset": name,
                            "method": method,
                            "load": load,
                            "probability": probability,
                            "rtt_quantile_s": value,
                        }
                    )
    return records


def capacity_records() -> tuple:
    """Exact dimension/admit answers of the presets that give them."""
    dimensions, admits = [], []
    for name in available_scenarios():
        engine = Engine(get_scenario(name))
        try:
            for budget in BUDGETS_S:
                try:
                    result = engine.dimension(budget, CAPACITY_PROBABILITY)
                except ParameterError as exc:
                    if "cannot be met" not in str(exc):
                        raise
                    dimensions.append({"preset": name, "rtt_bound_s": budget, "met": False})
                else:
                    dimensions.append(
                        {
                            "preset": name,
                            "rtt_bound_s": budget,
                            "met": True,
                            "max_load": result.max_load,
                            "max_gamers": result.max_gamers,
                            "rtt_at_max_load_s": result.rtt_at_max_load_s,
                        }
                    )
                answer = engine.admit(budget, CAPACITY_PROBABILITY, exact=True)
                admits.append(
                    {
                        "preset": name,
                        "rtt_budget_s": budget,
                        "admitted": answer.admitted,
                        "max_load": answer.max_load,
                        "max_gamers": answer.max_gamers,
                        "rtt_at_max_load_s": answer.rtt_at_max_load_s,
                    }
                )
        except (ParameterError, ZeroDivisionError) as exc:
            # The preset does not answer here; drop its partial records.
            print(f"skipping {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            dimensions = [r for r in dimensions if r["preset"] != name]
            admits = [r for r in admits if r["preset"] != name]
    return dimensions, admits


def sweep_records() -> list:
    """Every ``Engine.sweep`` point of every preset on the default grid."""
    records = []
    for name in available_scenarios():
        series = Engine(get_scenario(name)).sweep(
            default_load_grid(), SWEEP_PROBABILITY, "inversion"
        )
        for point in series.points:
            records.append(
                {
                    "preset": name,
                    "downlink_load": point.downlink_load,
                    "uplink_load": point.uplink_load,
                    "num_gamers": point.num_gamers,
                    "rtt_quantile_s": point.rtt_quantile_s,
                }
            )
    return records


def main() -> None:
    dimensions, admits = capacity_records()
    fixture = {
        "platform": platform_header(),
        "loads": list(LOADS),
        "probabilities": list(PROBABILITIES),
        "capacity_probability": CAPACITY_PROBABILITY,
        "quantiles": quantile_records(),
        "dimension": dimensions,
        "admit": admits,
        "sweep_probability": SWEEP_PROBABILITY,
        "sweep": sweep_records(),
    }
    PATH.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
    print(
        f"wrote {PATH}: {len(fixture['quantiles'])} quantiles, "
        f"{len(dimensions)} dimension, {len(admits)} admit and "
        f"{len(fixture['sweep'])} sweep records"
    )


if __name__ == "__main__":
    main()

"""Serving never imports scipy: only the Chernoff bound loads it, lazily.

Every root find on the serving path runs on the in-repo Brent port, so a
fresh interpreter that imports the CLI, attaches a certified surface and
serves exact requests on every registry preset, a surface hit, a surface
admit and an exact admit must end with no ``scipy`` module loaded.  A
``chernoff`` request afterwards must still answer, importing scipy on
first use.
"""

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent(
    """
    import math
    import sys

    import repro.cli  # noqa: F401  (the daemon's entry module)
    from repro.fleet import Fleet, Request
    from repro.scenarios import available_scenarios, get_scenario
    from repro.surface import build_surface

    PRESET = "paper-dsl"
    surface = build_surface(
        get_scenario(PRESET),
        "inversion",
        tolerance=1e-3,
        probability_lo=0.9999,
        probability_hi=0.999999,
        load_lo=0.30,
        load_hi=0.60,
        probe_factor=2,
        grid_ladder=((6, 4), (9, 5), (13, 7), (17, 9)),
    )
    fleet = Fleet(probability=0.99999)
    assert fleet.attach_surfaces(surface) == 1

    methods = ("inversion", "dominant-pole", "erlang-sum", "sum-of-quantiles")
    exact = [
        Request(name, downlink_load=0.4, method=method, exact=True)
        for name in available_scenarios()
        for method in methods
    ]
    answers = fleet.serve(exact)
    assert len(answers) == len(available_scenarios()) * len(methods)
    assert all(math.isfinite(a.rtt_quantile_s) and not a.cached for a in answers)

    lo, hi = fleet.serve(
        [Request(PRESET, downlink_load=load, exact=True) for load in (0.30, 0.60)]
    )
    hits_before = fleet.stats.surface_hits
    hit = fleet.serve([Request(PRESET, downlink_load=0.45)])[0]
    assert hit.cached and fleet.stats.surface_hits == hits_before + 1

    budget_ms = 1e3 * (lo.rtt_quantile_s + hi.rtt_quantile_s) / 2.0
    fast = fleet.admit(Request(PRESET, kind="admit", rtt_budget_ms=budget_ms))
    slow = fleet.admit(
        Request(PRESET, kind="admit", rtt_budget_ms=budget_ms, exact=True)
    )
    assert (fast.source, slow.source) == ("surface", "exact")
    assert fast.admitted and slow.admitted

    assert "scipy" not in sys.modules

    chernoff = fleet.serve([Request(PRESET, downlink_load=0.4, method="chernoff")])[0]
    assert math.isfinite(chernoff.rtt_quantile_s) and chernoff.rtt_quantile_s > 0.0
    assert "scipy" in sys.modules
    print("serving stayed scipy-free")
    """
)


def test_serving_never_imports_scipy():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "serving stayed scipy-free" in result.stdout

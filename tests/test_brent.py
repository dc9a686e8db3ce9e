"""The suspendable Brent search keeps ``scipy.optimize.brentq`` as its reference.

``repro.core.inversion._brent`` is a port of scipy's ``brentq.c`` that
yields each point it needs and is sent the function value back.  Driven
on the same function with the same ``xtol`` and ``rtol``, it must return
the same root bit for bit after the same number of function calls, and
raise where scipy raises.  That includes the dominant-pole root finds of
every registry preset, which run on the port with ``rtol=1e-14``.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from repro.core import downstream, upstream
from repro.core.downstream import MultiServerBurstQueue, ServerFlow
from repro.core.inversion import _BRENT_RTOL, _brent, drive
from repro.core.upstream import MultiClassMG1Queue, TrafficClass
from repro.scenarios import available_scenarios, get_scenario


def run_brent(f, a, b, xtol, maxiter=100, rtol=_BRENT_RTOL):
    """Drive the generator on ``f``; return (root, function calls)."""
    search = _brent(a, b, xtol, maxiter, rtol=rtol)
    calls = 0
    x = next(search)
    while True:
        calls += 1
        try:
            x = search.send(f(x))
        except StopIteration as stop:
            return stop.value, calls


def run_scipy(f, a, b, xtol, maxiter=100, rtol=_BRENT_RTOL):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    root = optimize.brentq(counted, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    return root, len(calls)


def monotone_function(rng):
    """A random strictly monotone function with a root inside (a, b)."""
    root = float(rng.uniform(-5.0, 5.0))
    scale = float(10.0 ** rng.uniform(-200, 200))
    sign = float(rng.choice([-1.0, 1.0]))
    kind = rng.integers(5)
    k = float(10.0 ** rng.uniform(-2, 1))
    if kind == 0:
        shape = lambda u: u**3 + k * u
    elif kind == 1:
        shape = lambda u: math.tanh(k * u)
    elif kind == 2:
        shape = lambda u: math.expm1(k * u)
    elif kind == 3:
        shape = lambda u: math.copysign(abs(u) ** (1.0 / 3.0), u) + 1e-3 * u
    else:  # convex and decreasing, like a tail minus its target
        shape = lambda u: 1e-5 * -math.expm1(k * u)

    def f(x):
        return sign * scale * shape(x - root)

    a = root - float(rng.uniform(1e-3, 10.0))
    b = root + float(rng.uniform(1e-3, 10.0))
    if rng.random() < 0.5:
        a, b = b, a
    return f, a, b


@pytest.mark.parametrize("seed", range(4))
def test_matches_scipy_bit_for_bit(seed):
    rng = np.random.default_rng(20240601 + seed)
    for _ in range(100):
        f, a, b = monotone_function(rng)
        xtol = float(10.0 ** rng.uniform(-14, -1))
        expected, expected_calls = run_scipy(f, a, b, xtol)
        root, calls = run_brent(f, a, b, xtol)
        assert root.hex() == expected.hex()
        assert calls == expected_calls


def test_root_at_an_endpoint():
    f = lambda x: x - 1.0
    for a, b in ((1.0, 3.0), (-2.0, 1.0)):
        assert run_brent(f, a, b, 1e-12) == run_scipy(f, a, b, 1e-12)
        assert run_brent(f, a, b, 1e-12)[0] == 1.0


def test_step_function_bisects_like_scipy():
    f = lambda x: -1.0 if x < 0.3 else 2.0
    assert run_brent(f, 0.0, 1.0, 1e-9) == run_scipy(f, 0.0, 1.0, 1e-9)


def test_no_sign_change_raises_value_error():
    f = lambda x: x * x + 1.0
    with pytest.raises(ValueError, match="different signs"):
        optimize.brentq(f, -1.0, 2.0)
    with pytest.raises(ValueError, match="different signs"):
        run_brent(f, -1.0, 2.0, 2e-12)


def test_nan_raises_value_error():
    f = lambda x: math.nan if x > 0.5 else -1.0
    with pytest.raises(ValueError, match="NaN"):
        optimize.brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        run_brent(f, 0.0, 1.0, 2e-12)


def test_exhausted_maxiter_raises_runtime_error():
    f = lambda x: x**3 - 2.0
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        optimize.brentq(f, -1.0, 2.0, maxiter=3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        run_brent(f, -1.0, 2.0, 2e-12, maxiter=3)


# ----------------------------------------------------------------------
# A non-default rtol, and the dominant-pole root finds of every preset
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(2))
def test_non_default_rtol_matches_scipy_bit_for_bit(seed):
    rng = np.random.default_rng(20240701 + seed)
    for _ in range(100):
        f, a, b = monotone_function(rng)
        xtol = float(10.0 ** rng.uniform(-15, -1))
        rtol = float(10.0 ** rng.uniform(-14, -6))
        expected, expected_calls = run_scipy(f, a, b, xtol, rtol=rtol)
        root, calls = run_brent(f, a, b, xtol, rtol=rtol)
        assert root.hex() == expected.hex()
        assert calls == expected_calls


def preset_queues(name, load):
    """The M/D/1 or multi-class upstream queue and, for every preset, a
    multi-server downstream queue (a one-flow one for single-game presets)."""
    model = get_scenario(name).model_at_load(load)
    upstream, downstream = model.upstream_queue(), model.downstream_queue()
    if isinstance(downstream, MultiServerBurstQueue):
        return [upstream, downstream]
    flow = ServerFlow(
        interval_s=model.tick_interval_s,
        mean_service_s=model.mean_burst_service_s,
        order=model.erlang_order,
    )
    single_class = TrafficClass(
        num_sources=model.num_gamers,
        interval_s=model.tick_interval_s,
        packet_bits=8.0 * model.client_packet_bytes,
    )
    return [
        upstream,
        MultiClassMG1Queue.from_classes([single_class], rate_bps=model.aggregation_rate_bps),
        MultiServerBurstQueue.from_flows([flow]),
    ]


@pytest.mark.parametrize("name", available_scenarios())
def test_dominant_poles_match_scipy_with_rtol(name, monkeypatch):
    """Each dominant pole's own function and bracket, re-run on scipy."""
    finds = []

    def recording_brent(a, b, xtol, maxiter=100, rtol=_BRENT_RTOL):
        finds.append({"a": a, "b": b, "xtol": xtol, "maxiter": maxiter, "rtol": rtol})
        return _brent(a, b, xtol, maxiter, rtol=rtol)

    def recording_drive(search, f):
        finds[-1]["f"] = f
        finds[-1]["root"] = drive(search, f)
        return finds[-1]["root"]

    for module in (upstream, downstream):
        monkeypatch.setattr(module, "_brent", recording_brent)
        monkeypatch.setattr(module, "drive", recording_drive)

    for load in (0.2, 0.45, 0.7):
        for queue in preset_queues(name, load):
            before = len(finds)
            pole = queue.dominant_pole
            assert len(finds) == before + 1 and finds[-1]["root"] == pole
    for find in finds:
        assert (find["xtol"], find["rtol"]) == (1e-15, 1e-14)
        args = (find["f"], find["a"], find["b"], find["xtol"], find["maxiter"], find["rtol"])
        expected, expected_calls = run_scipy(*args)
        root, calls = run_brent(*args)
        assert root.hex() == expected.hex() == find["root"].hex()
        assert calls == expected_calls

"""The suspendable Brent search keeps ``scipy.optimize.brentq`` as its reference.

``repro.core.inversion._brent`` is a port of scipy's ``brentq.c`` that
yields each point it needs and is sent the function value back.  Driven
on the same function with the same ``xtol``, it must return the same
root bit for bit after the same number of function calls, and raise
where scipy raises.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from repro.core.inversion import _brent


def run_brent(f, a, b, xtol, maxiter=100):
    """Drive the generator on ``f``; return (root, function calls)."""
    search = _brent(a, b, xtol, maxiter)
    calls = 0
    x = next(search)
    while True:
        calls += 1
        try:
            x = search.send(f(x))
        except StopIteration as stop:
            return stop.value, calls


def run_scipy(f, a, b, xtol, maxiter=100):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    root = optimize.brentq(counted, a, b, xtol=xtol, maxiter=maxiter)
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

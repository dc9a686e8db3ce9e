"""The compiled product kernel returns the generic inversion's floats.

Every ``"inversion"`` tail and quantile of a model runs on its
:attr:`~repro.core.rtt.ComposedRttModel.tail_kernel`.  The generic
callable API (:func:`tail_from_mgf`, :func:`quantile_from_mgf`) and the
stacked rows (:func:`_stacked_tail_rows` over a
:class:`~repro.core.rtt.QueueingMgfStack`) stay the references, bit for
bit, on every registry preset: single-server and mix models, and every
Erlang order the registry holds.
"""

import math

import numpy as np
import pytest

from repro.core.inversion import (
    _EULER_A,
    _EULER_M,
    _EULER_N,
    _abscissae,
    _ProductTailKernel,
    _stacked_tail_rows,
    quantile_from_mgf,
    tail_from_mgf,
)
from repro.core.mgf import ErlangTerm, ErlangTermSum
from repro.core.rtt import MixPingTimeModel, PingTimeModel, QueueingMgfStack
from repro.scenarios import available_scenarios, get_scenario

#: Tail points from 1 ns to 10 s, plus the special points.
POINTS = [float(t) for t in np.logspace(-9, 1, 41)] + [0.0, -1e-3, math.inf, math.nan]

LEVELS = (0.9, 0.999, 0.99999)


def _registry_models():
    models = []
    for name in available_scenarios():
        scenario = get_scenario(name)
        ceiling = scenario.stable_load_ceiling(0.98)
        for fraction in (0.1, 0.5, 0.95):
            models.append((name, scenario.model_at_load(fraction * ceiling)))
    return models


MODELS = _registry_models()
IDS = [f"{name}@{model.downlink_load:.3f}" for name, model in MODELS]


def _reference_tail(model, t):
    return tail_from_mgf(model.queueing_mgf, t, atom_at_zero=model.queueing_atom)


def _erlang_orders(subject):
    """The Erlang orders of a scenario or model, single-server or mix."""
    if hasattr(subject, "components"):
        return {c.scenario.erlang_order for c in subject.components}
    if hasattr(subject, "flows"):
        return {flow.erlang_order for flow in subject.flows}
    return {subject.erlang_order}


def test_the_registry_covers_both_model_kinds_and_every_erlang_order():
    assert {type(model) for _, model in MODELS} == {PingTimeModel, MixPingTimeModel}
    registry = set().union(*(_erlang_orders(get_scenario(n)) for n in available_scenarios()))
    covered = set().union(*(_erlang_orders(model) for _, model in MODELS))
    assert covered == registry
    assert len(covered) > 1


@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=IDS)
def test_kernel_tail_is_the_generic_and_the_stacked_float(model):
    kernel = [model.queueing_tail(t) for t in POINTS]
    assert kernel == [_reference_tail(model, t) for t in POINTS]
    positive = [t for t in POINTS if 0.0 < t < math.inf]
    stacked = _stacked_tail_rows(
        QueueingMgfStack([model]), np.zeros(len(positive), dtype=np.intp), np.asarray(positive)
    )
    assert [model.queueing_tail(t) for t in positive] == [float(v) for v in stacked]


def _termwise_mgf(terms, s):
    """One Erlang-term sum at ``s``, every order raised as a float power."""
    if not terms.terms:
        return np.full(s.shape, terms.atom, dtype=complex)
    coefficients = np.array([t.coefficient for t in terms.terms], dtype=complex)
    rates = np.array([t.rate for t in terms.terms], dtype=complex)
    orders = np.array([t.order for t in terms.terms], dtype=float)
    return terms.atom + (coefficients * (rates / (rates - s[..., None])) ** orders).sum(axis=-1)


@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=IDS)
def test_product_transform_is_the_termwise_float(model):
    """Skipping unit powers and caching complex orders changes no bit."""
    positive = np.asarray([t for t in POINTS if 0.0 < t < math.inf])
    s = -_abscissae(positive, _EULER_A, _EULER_N + _EULER_M + 1)
    factors = (model._upstream_terms, model._burst_terms, model._position_terms)
    upstream, burst, position = (_termwise_mgf(f, s) for f in factors)
    np.testing.assert_array_equal(model.queueing_mgf(s), upstream * burst * position)


@pytest.mark.parametrize("model", [m for _, m in MODELS], ids=IDS)
def test_kernel_quantile_is_the_generic_float(model):
    for probability in LEVELS:
        assert model.queueing_quantile(probability) == quantile_from_mgf(
            model.queueing_mgf,
            probability,
            model._inversion_scale_hint,
            atom_at_zero=model.queueing_atom,
        )


def test_the_kernel_is_compiled_once_per_model():
    model = get_scenario("paper-dsl").model_at_load(0.4)
    kernel = model.tail_kernel
    model.queueing_quantile(0.99999)
    assert model.tail_kernel is kernel


class TestClampedTransforms:
    """A product whose transform overflows on some abscissae.

    One factor has a huge coefficient on a pole far off the real axis,
    so its powered ratio overflows to infinity where the abscissae pass
    the pole; another is a bare atom (no terms), the kernel's constant
    factor.  The non-finite values must clamp exactly as in
    :func:`tail_from_mgf`.
    """

    FACTORS = (
        ErlangTermSum(atom=0.0, terms=[ErlangTerm(1e300, complex(1.0, -1e4), 20)]),
        ErlangTermSum(atom=1.0),
        ErlangTermSum.erlang_mixture([0.5, 0.5], [1, 3], rate=200.0),
    )

    @classmethod
    def mgf(cls, s):
        upstream, burst, position = (factor.mgf(s) for factor in cls.FACTORS)
        return upstream * burst * position

    def test_the_transform_does_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.mgf(-_abscissae(np.asarray(1e-2), _EULER_A, _EULER_N + _EULER_M + 1))
        assert not np.all(np.isfinite(values))

    def test_kernel_tail_clamps_like_the_generic_tail(self):
        atom = 0.0
        kernel = _ProductTailKernel(self.FACTORS, atom)
        points = POINTS + [1e-2, 3e-3]
        values = [kernel.tail(t) for t in points]
        assert values == [tail_from_mgf(self.mgf, t, atom_at_zero=atom) for t in points]
        assert all(0.0 <= value <= 1.0 for value in values)

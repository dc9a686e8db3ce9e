"""Tests for the numerical Laplace-transform inversion (Euler algorithm)."""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from repro.core import ErlangTermSum
from repro.core import inversion as inversion_module
from repro.core.inversion import (
    _euler_weights,
    _stacked_tail_rows,
    euler_laplace_inversion,
    quantile_from_mgf,
    quantiles_from_mgfs,
    tail_from_mgf,
)
from repro.errors import ParameterError
from repro.testing import CountingMgf, scalar_only


class TestEulerInversion:
    def test_inverts_exponential_transform(self):
        # L{e^{-t}} = 1/(s+1).
        for t in (0.3, 1.0, 4.0):
            value = euler_laplace_inversion(lambda s: 1.0 / (s + 1.0), t)
            assert value == pytest.approx(math.exp(-t), abs=1e-8)

    def test_inverts_polynomial_transform(self):
        # L{t^2/2} = 1/s^3.
        value = euler_laplace_inversion(lambda s: 1.0 / s**3, 2.0)
        assert value == pytest.approx(2.0, rel=1e-7)

    def test_rejects_non_positive_time(self):
        with pytest.raises(ParameterError):
            euler_laplace_inversion(lambda s: 1.0 / s, 0.0)


class TestTailFromMgf:
    def test_exponential_tail(self):
        dist = ErlangTermSum.exponential(2.0)
        for x in (0.1, 1.0, 5.0):
            assert tail_from_mgf(dist.mgf, x) == pytest.approx(math.exp(-2.0 * x), abs=1e-7)

    def test_erlang_tail(self):
        dist = ErlangTermSum.erlang(5, 3.0)
        for x in (0.5, 2.0, 4.0):
            expected = stats.gamma.sf(x, a=5, scale=1 / 3.0)
            assert tail_from_mgf(dist.mgf, x) == pytest.approx(expected, abs=1e-7)

    def test_distribution_with_atom(self):
        dist = ErlangTermSum.exponential(1.0, weight=0.25, atom=0.75)
        assert tail_from_mgf(dist.mgf, 2.0) == pytest.approx(0.25 * math.exp(-2.0), abs=1e-7)

    def test_negative_argument_returns_one(self):
        dist = ErlangTermSum.exponential(1.0)
        assert tail_from_mgf(dist.mgf, -1.0) == 1.0

    def test_value_at_zero_recovers_continuous_mass(self):
        dist = ErlangTermSum.exponential(1.0, weight=0.3, atom=0.7)
        assert tail_from_mgf(dist.mgf, 0.0) == pytest.approx(0.3, abs=1e-6)

    def test_matches_analytic_inversion_of_a_product(self):
        a = ErlangTermSum.erlang(3, 2.0)
        b = ErlangTermSum.exponential(5.0, weight=0.6, atom=0.4)
        product = a.product(b)
        for x in (0.5, 1.5, 4.0):
            numerical = tail_from_mgf(lambda s: a.mgf(s) * b.mgf(s), x)
            assert numerical == pytest.approx(product.tail(x), abs=1e-7)

    def test_clamped_to_unit_interval(self):
        dist = ErlangTermSum.erlang(2, 1.0)
        assert 0.0 <= tail_from_mgf(dist.mgf, 1e-9) <= 1.0


class TestQuantileFromMgf:
    def test_exponential_quantile(self):
        dist = ErlangTermSum.exponential(2.0)
        expected = -math.log(1e-4) / 2.0
        assert quantile_from_mgf(dist.mgf, 0.9999, scale_hint=0.5) == pytest.approx(
            expected, rel=1e-5
        )

    def test_atom_dominated_quantile_is_zero(self):
        dist = ErlangTermSum.exponential(1.0, weight=1e-6, atom=1.0 - 1e-6)
        assert quantile_from_mgf(dist.mgf, 0.999, scale_hint=1.0) == 0.0

    def test_rejects_bad_probability(self):
        dist = ErlangTermSum.exponential(1.0)
        with pytest.raises(ParameterError):
            quantile_from_mgf(dist.mgf, 1.5, scale_hint=1.0)

    def test_rejects_bad_scale_hint(self):
        dist = ErlangTermSum.exponential(1.0)
        with pytest.raises(ParameterError):
            quantile_from_mgf(dist.mgf, 0.99, scale_hint=0.0)

    def test_matches_erlang_sum_quantile(self):
        mixture = ErlangTermSum.erlang_mixture([0.25, 0.5, 0.25], [1, 3, 6], rate=4.0)
        exact = mixture.quantile(0.99999)
        numerical = quantile_from_mgf(mixture.mgf, 0.99999, scale_hint=mixture.mean())
        assert numerical == pytest.approx(exact, rel=1e-5)

    def test_quantile_increases_with_level(self):
        dist = ErlangTermSum.erlang(4, 2.0)
        q1 = quantile_from_mgf(dist.mgf, 0.99, scale_hint=dist.mean())
        q2 = quantile_from_mgf(dist.mgf, 0.9999, scale_hint=dist.mean())
        assert q2 > q1


class TestVectorizedEuler:
    """The array path: all abscissae in one transform call."""

    def test_single_transform_invocation_for_vectorized_callable(self):
        dist = ErlangTermSum.erlang(3, 2.0)
        counting = CountingMgf(dist.mgf)
        tail_from_mgf(counting, 1.0)
        assert counting.calls == 1
        assert isinstance(counting.arguments[0], np.ndarray)
        assert counting.arguments[0].shape == (35,)  # N + M + 1 abscissae

    def test_scalar_fallback_one_invocation_per_abscissa(self):
        dist = ErlangTermSum.erlang(3, 2.0)
        counting = CountingMgf(dist.mgf, accept_arrays=False)
        tail_from_mgf(counting, 1.0)
        assert counting.calls == 35  # N + M + 1 scalar evaluations

    def test_vectorized_matches_scalar_fallback_bitwise(self):
        # The scalar fallback combines per-abscissa values with the same
        # weight vector and reduction, so the two paths agree exactly on
        # vectorized transforms wrapped into scalar-only callables.
        for dist in (
            ErlangTermSum.erlang(5, 3.0),
            ErlangTermSum.erlang_mixture([0.25, 0.5, 0.25], [1, 3, 6], rate=4.0),
        ):
            for x in (0.1, 0.9, 3.0):
                assert tail_from_mgf(scalar_only(dist.mgf), x) == tail_from_mgf(
                    dist.mgf, x
                )

    def test_weights_bit_identical_to_pow_signs(self):
        # The alternating sign is carried inside the weight vector; the
        # historical per-term (-1)**k pow produces exactly +/-1.0, so the
        # two constructions must agree bit for bit.
        for plain, euler in ((22, 12), (10, 5), (3, 2)):
            weights = _euler_weights(plain, euler)
            binomials = [math.comb(euler, m) for m in range(euler + 1)]
            reference = []
            for k in range(plain + euler + 1):
                averaged = (
                    1.0
                    if k <= plain
                    else sum(binomials[k - plain :]) / 2.0**euler
                )
                sign_and_double = 1.0 if k == 0 else 2.0 * (-1.0) ** k
                reference.append(averaged * sign_and_double)
            assert np.array_equal(weights, np.array(reference))

    def test_euler_inversion_array_call_matches_scalar_calls(self):
        value_vec = euler_laplace_inversion(lambda s: 1.0 / (s + 1.0), 1.5)
        value_scal = euler_laplace_inversion(
            scalar_only(lambda s: 1.0 / (s + 1.0)), 1.5
        )
        assert value_vec == pytest.approx(math.exp(-1.5), abs=1e-8)
        assert value_scal == pytest.approx(value_vec, rel=1e-12)


def _stack_of(mgfs):
    """A joint evaluator over plain MGF callables: row ``r`` uses ``mgfs[rows[r]]``."""

    def stack_eval(s, rows):
        return np.stack([mgfs[index](row) for index, row in zip(rows, s)])

    return stack_eval


class TestTailsBatch:
    """_stacked_tail_rows: a whole grid of points per joint array call."""

    def test_matches_single_point_evaluations_bitwise(self):
        dist = ErlangTermSum.erlang_mixture([0.2, 0.5, 0.3], [2, 4, 7], rate=3.0)
        xs = np.array([1e-3, 0.5, 2.0, 6.0])
        rows = _stacked_tail_rows(_stack_of([dist.mgf]), np.zeros(4, dtype=np.intp), xs)
        assert [float(v) for v in rows] == [tail_from_mgf(dist.mgf, float(x)) for x in xs]

    def test_one_mgf_call_for_the_whole_grid(self):
        dist = ErlangTermSum.erlang(4, 2.0)
        counting = CountingMgf(dist.mgf)
        xs = np.linspace(0.1, 3.0, 12)
        rows = _stacked_tail_rows(
            lambda s, indices: counting(s), np.zeros(12, dtype=np.intp), xs
        )
        assert counting.calls == 1
        assert counting.arguments[0].shape == (12, 35)
        assert [float(v) for v in rows] == [tail_from_mgf(dist.mgf, float(x)) for x in xs]

    def test_scalar_only_mgf_falls_back_per_point(self):
        dist = ErlangTermSum.erlang(4, 2.0)
        xs = (0.2, 1.0, 2.5)
        fallback = [tail_from_mgf(scalar_only(dist.mgf), x) for x in xs]
        rows = _stacked_tail_rows(
            _stack_of([dist.mgf]), np.zeros(3, dtype=np.intp), np.array(xs)
        )
        assert fallback == [float(v) for v in rows]

    def test_scalar_input_returns_float(self):
        dist = ErlangTermSum.exponential(2.0)
        value = tail_from_mgf(dist.mgf, 1.0)
        assert isinstance(value, float)
        [row] = _stacked_tail_rows(
            _stack_of([dist.mgf]), np.zeros(1, dtype=np.intp), np.array([1.0])
        )
        assert value == float(row)

    def test_preserves_shape_and_clamps(self):
        dists = [ErlangTermSum.erlang(2, 1.0), ErlangTermSum.erlang(5, 0.5)]
        indices = np.array([0, 1, 1, 0], dtype=np.intp)
        xs = np.array([0.5, 1.0, 2.0, 40.0])
        rows = _stacked_tail_rows(_stack_of([d.mgf for d in dists]), indices, xs)
        assert rows.shape == xs.shape
        assert np.all((rows >= 0.0) & (rows <= 1.0))


class TestTailFallbacksAndClamps:
    def test_scalar_fallback_honours_euler_parameters(self):
        # Regression: the fallback used to drop a/plain_terms/euler_terms
        # and re-evaluate with the defaults.
        dist = ErlangTermSum.erlang(3, 2.0)
        custom = dict(a=22.0, plain_terms=30, euler_terms=14)
        for x in (0.5, 1.0):
            assert tail_from_mgf(scalar_only(dist.mgf), x, **custom) == tail_from_mgf(
                dist.mgf, x, **custom
            )
        assert tail_from_mgf(dist.mgf, 0.5, **custom) != tail_from_mgf(dist.mgf, 0.5)

    def test_overflowing_mgf_stacked_rows_clamp_like_the_scalar_path(self):
        # Regression: NaN from an MGF overflowing at the abscissae used
        # to pass through np.clip while the scalar path clamped it to 0.
        def gaussian_mgf(s):
            return np.exp(0.12 * s + 0.5 * (2.0 * s) ** 2)

        xs = np.array([1e-4, 1e-3])
        rows = _stacked_tail_rows(_stack_of([gaussian_mgf]), np.zeros(2, dtype=np.intp), xs)
        single = [tail_from_mgf(gaussian_mgf, float(x), atom_at_zero=0.0) for x in xs]
        assert [float(v) for v in rows] == single
        assert np.all(np.isfinite(rows))
        assert np.all((rows >= 0.0) & (rows <= 1.0))

    def test_non_finite_points_have_closed_form_tails(self):
        # Regression: +inf/nan used to yield NaN on the batched path.
        dist = ErlangTermSum.erlang(3, 2.0)
        values = [tail_from_mgf(dist.mgf, x) for x in (-np.inf, -1.0, np.inf, np.nan)]
        assert values == [1.0, 1.0, 0.0, 0.0]


class TestAtomAtZero:
    """The atom-at-zero probe: explicit argument plus bounded fallback."""

    def test_explicit_atom_wins(self):
        dist = ErlangTermSum.exponential(1.0, weight=0.25, atom=0.75)
        assert tail_from_mgf(dist.mgf, 0.0, atom_at_zero=0.75) == 0.25

    def test_explicit_atom_skips_mgf_probes(self):
        dist = ErlangTermSum.exponential(1.0, weight=0.25, atom=0.75)
        counting = CountingMgf(dist.mgf)
        tail_from_mgf(counting, 0.0, atom_at_zero=0.75)
        assert counting.calls == 0

    def test_fallback_probe_is_graded_and_bounded(self):
        # Regression: the old probe evaluated mgf(-1e12) unconditionally
        # as its only point; the scan now grows from 1e2 (stopping at
        # the first misbehaving probe) and never exceeds the old 1e12.
        dist = ErlangTermSum.exponential(1.0, weight=0.3, atom=0.7)
        counting = CountingMgf(dist.mgf)
        value = tail_from_mgf(counting, 0.0)
        assert value == pytest.approx(0.3, abs=1e-6)
        probed = [abs(complex(s)) for s in counting.arguments]
        assert probed and probed[0] == pytest.approx(1e2)
        assert max(probed) <= 1e12

    def test_fast_atomless_distribution_resolves_zero_atom(self):
        # A rate-1e8 atomless exponential (10 ns mean): the probe must
        # reach far enough to see the atom vanish.
        dist = ErlangTermSum.exponential(1e8)
        assert tail_from_mgf(dist.mgf, 0.0) == pytest.approx(1.0, abs=1e-3)

    def test_overflowing_fitted_mgf_stays_sane(self):
        # A Gaussian-fitted transform overflows at large |s| (the old
        # -1e12 probe returned inf and the tail collapsed to 0); the
        # bounded scan stops at the first broken probe.
        def gaussian_mgf(s):
            return np.exp(0.12 * s + 0.5 * (0.04 * s) ** 2)

        value = tail_from_mgf(gaussian_mgf, 0.0)
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0
        # The caller who knows there is no atom gets the exact answer.
        assert tail_from_mgf(gaussian_mgf, 0.0, atom_at_zero=0.0) == 1.0

    def test_raising_mgf_assumed_atom_free(self):
        def exploding(s):
            raise OverflowError("no large-argument evaluation")

        assert tail_from_mgf(exploding, 0.0) == 1.0


class TestQuantileSearchMemoization:
    """No abscissa is inverted twice within one quantile search."""

    MIXTURE = ErlangTermSum.erlang_mixture([0.25, 0.5, 0.25], [1, 3, 6], rate=4.0)

    @staticmethod
    def _legacy_quantile(mgf, probability, scale_hint, recorder):
        """The seed implementation: unmemoized tails, upper/2 re-check."""

        def tail(x):
            recorder.append(x)
            return tail_from_mgf(mgf, x)

        target = 1.0 - probability
        if tail(0.0) <= target:
            return 0.0
        upper = scale_hint
        for _ in range(200):
            if tail(upper) < target:
                break
            upper *= 2.0
        return float(
            optimize.brentq(
                lambda x: tail(x) - target,
                upper / 2.0 if tail(upper / 2.0) >= target else 0.0,
                upper,
                xtol=1e-10,
            )
        )

    def test_no_duplicate_tail_evaluations(self, monkeypatch):
        evaluated = []
        original = inversion_module.tail_from_mgf

        def recording(mgf, x, atom_at_zero=None):
            evaluated.append(x)
            return original(mgf, x, atom_at_zero=atom_at_zero)

        monkeypatch.setattr(inversion_module, "tail_from_mgf", recording)
        quantile_from_mgf(
            self.MIXTURE.mgf, 0.99999, scale_hint=self.MIXTURE.mean() / 4.0
        )
        assert len(evaluated) == len(set(evaluated))

    def test_at_least_three_fewer_evaluations_than_seed(self, monkeypatch):
        legacy_calls = []
        self._legacy_quantile(
            self.MIXTURE.mgf, 0.99999, self.MIXTURE.mean() / 4.0, legacy_calls
        )

        memoized_calls = []
        original = inversion_module.tail_from_mgf

        def recording(mgf, x, atom_at_zero=None):
            memoized_calls.append(x)
            return original(mgf, x, atom_at_zero=atom_at_zero)

        monkeypatch.setattr(inversion_module, "tail_from_mgf", recording)
        quantile_from_mgf(
            self.MIXTURE.mgf, 0.99999, scale_hint=self.MIXTURE.mean() / 4.0
        )
        # The seed re-evaluated the upper/2 bracket plus both brentq
        # endpoints; the memoized search computes each point once.
        assert len(memoized_calls) <= len(legacy_calls) - 3
        assert len(set(memoized_calls)) == len(memoized_calls)


class TestQuantilesBatch:
    DISTS = [
        ErlangTermSum.erlang(4, 2.0),
        ErlangTermSum.erlang_mixture([0.3, 0.7], [2, 5], rate=3.0),
        ErlangTermSum.exponential(1.5, weight=0.6, atom=0.4),
    ]

    def test_identical_to_scalar_api(self):
        dists = self.DISTS
        batch = quantiles_from_mgfs(
            [0.9999, 0.999, 0.9999],
            [d.mean() for d in dists],
            [d.atom_mass for d in dists],
            stack_eval=_stack_of([d.mgf for d in dists]),
        )
        single = [
            quantile_from_mgf(d.mgf, p, scale_hint=d.mean(), atom_at_zero=d.atom_mass)
            for d, p in zip(dists, [0.9999, 0.999, 0.9999])
        ]
        assert batch == single

    def test_rejects_mismatched_lengths(self):
        dist = self.DISTS[0]
        with pytest.raises(ParameterError):
            quantiles_from_mgfs(
                [0.999], [1.0, 2.0], [0.0], stack_eval=_stack_of([dist.mgf])
            )

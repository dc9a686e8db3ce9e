"""Tests for the downstream D/E_K/1 model and packet-position delay."""

import cmath

import numpy as np
import pytest

from repro.core import DEKOneQueue, PacketPositionDelay, solve_all_roots, solve_root
from repro.errors import ParameterError, StabilityError


class TestRoots:
    def test_root_solves_fixed_point_equation(self):
        load, order = 0.6, 9
        for branch in range(order):
            zeta = solve_root(load, order, branch)
            rhs = cmath.exp((zeta - 1.0) / load + 2j * cmath.pi * branch / order)
            assert abs(zeta - rhs) < 1e-12

    def test_roots_lie_in_unit_disc(self):
        for load in (0.1, 0.5, 0.9):
            for zeta in solve_all_roots(load, 12):
                assert abs(zeta) < 1.0

    def test_principal_root_is_real_and_largest(self):
        roots = solve_all_roots(0.7, 9)
        principal = roots[0]
        assert abs(principal.imag) < 1e-12
        assert all(abs(z) <= abs(principal) + 1e-12 for z in roots)

    def test_roots_are_distinct(self):
        roots = solve_all_roots(0.6, 15)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                assert abs(roots[i] - roots[j]) > 1e-10

    def test_unstable_load_rejected(self):
        with pytest.raises(StabilityError):
            solve_root(1.0, 5, 0)

    def test_invalid_order_rejected(self):
        with pytest.raises(ParameterError):
            solve_root(0.5, 0, 0)


class TestDEKOneQueue:
    def test_load(self):
        queue = DEKOneQueue(order=9, mean_service_s=0.024, interval_s=0.060)
        assert queue.load == pytest.approx(0.4)

    def test_unstable_configuration_rejected(self):
        with pytest.raises(StabilityError):
            DEKOneQueue(order=9, mean_service_s=0.07, interval_s=0.060)

    def test_non_integer_order_rejected(self):
        with pytest.raises(ParameterError):
            DEKOneQueue(order=2.5, mean_service_s=0.01, interval_s=0.060)

    def test_poles_satisfy_characteristic_equation(self):
        queue = DEKOneQueue(order=9, mean_service_s=0.036, interval_s=0.060)
        for pole in queue.poles:
            assert abs(queue.characteristic_equation(pole)) < 1e-10

    def test_poles_have_positive_real_part(self):
        queue = DEKOneQueue(order=20, mean_service_s=0.045, interval_s=0.060)
        assert all(p.real > 0.0 for p in queue.poles)

    def test_waiting_time_is_a_proper_distribution(self):
        queue = DEKOneQueue(order=9, mean_service_s=0.036, interval_s=0.060)
        waiting = queue.waiting_time()
        assert waiting.total_mass == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < queue.idle_probability() < 1.0

    def test_dm1_special_case_matches_textbook(self):
        """K = 1 must reproduce the classic D/M/1 solution (Kleinrock)."""
        queue = DEKOneQueue(order=1, mean_service_s=0.5, interval_s=1.0)
        sigma = queue.roots[0].real
        # sigma solves sigma = exp(-(1-sigma)/rho).
        assert sigma == pytest.approx(np.exp(-(1 - sigma) / 0.5), abs=1e-12)
        # P(W > x) = sigma * exp(-mu (1-sigma) x) with mu = 1/0.5.
        mu = 1.0 / 0.5
        for x in (0.1, 1.0, 3.0):
            expected = sigma * np.exp(-mu * (1 - sigma) * x)
            assert queue.waiting_time_tail(x) == pytest.approx(expected, rel=1e-9)

    def test_weights_sum_below_one(self):
        queue = DEKOneQueue(order=9, mean_service_s=0.045, interval_s=0.060)
        assert 0.0 < sum(w.real for w in queue.weights) < 1.0

    def test_underflowed_roots_get_zero_weight(self):
        # At a 1e-4 load every root underflows to exactly 0; each gets
        # the empty-queue weight 0 instead of dividing 0 by 0.
        queue = DEKOneQueue(order=9, mean_service_s=1e-4 * 0.060, interval_s=0.060)
        assert all(root == 0 for root in queue.roots)
        assert queue.weights == [0j] * 9
        assert queue.idle_probability() == 1.0
        assert queue.waiting_time_tail(1e-3) == 0.0

    @pytest.mark.parametrize("order,load", [(2, 0.5), (9, 0.6), (20, 0.75)])
    def test_tail_matches_lindley_simulation(self, order, load):
        queue = DEKOneQueue(order=order, mean_service_s=load * 0.060, interval_s=0.060)
        sim = queue.simulate_waiting_times(150_000, rng=np.random.default_rng(order))
        for x in (0.01, 0.03, 0.06):
            analytic = queue.waiting_time_tail(x)
            empirical = float((sim > x).mean())
            assert analytic == pytest.approx(empirical, abs=3e-3)

    def test_mean_waiting_time_matches_simulation(self):
        queue = DEKOneQueue(order=9, mean_service_s=0.042, interval_s=0.060)
        sim = queue.simulate_waiting_times(200_000, rng=np.random.default_rng(77))
        assert queue.mean_waiting_time() == pytest.approx(float(sim.mean()), rel=0.05)

    def test_waiting_time_quantile_increases_with_load(self):
        low = DEKOneQueue(order=9, mean_service_s=0.018, interval_s=0.060)
        high = DEKOneQueue(order=9, mean_service_s=0.048, interval_s=0.060)
        assert high.waiting_time_quantile(0.9999) > low.waiting_time_quantile(0.9999)

    def test_higher_order_reduces_waiting(self):
        """For a fixed load, a larger Erlang order (smaller CoV) gives less delay."""
        bursty = DEKOneQueue(order=2, mean_service_s=0.036, interval_s=0.060)
        smooth = DEKOneQueue(order=20, mean_service_s=0.036, interval_s=0.060)
        assert smooth.waiting_time_quantile(0.9999) < bursty.waiting_time_quantile(0.9999)

    def test_simulation_rejects_bad_arguments(self):
        queue = DEKOneQueue(order=2, mean_service_s=0.01, interval_s=0.060)
        with pytest.raises(ParameterError):
            queue.simulate_waiting_times(0)


class TestPacketPositionDelay:
    def test_service_rate(self):
        delay = PacketPositionDelay(order=9, mean_service_s=0.018)
        assert delay.service_rate == pytest.approx(500.0)

    def test_uniform_position_requires_order_two(self):
        with pytest.raises(ParameterError):
            PacketPositionDelay(order=1, mean_service_s=0.01).uniform_position()

    def test_uniform_position_is_proper(self):
        dist = PacketPositionDelay(order=9, mean_service_s=0.018).uniform_position()
        assert dist.total_mass == pytest.approx(1.0)

    def test_uniform_position_mean_is_half_burst(self):
        delay = PacketPositionDelay(order=9, mean_service_s=0.018)
        assert delay.uniform_position().mean() == pytest.approx(0.009, rel=1e-9)
        assert delay.mean_uniform() == pytest.approx(0.009)

    def test_transform_matches_closed_form_eq33(self):
        """Eq. (34) (mixture form) must agree with eq. (33) (closed form)."""
        delay = PacketPositionDelay(order=7, mean_service_s=0.021)
        mixture = delay.uniform_position()
        for s in (-200.0, -50.0, 25.0, 80.0):
            assert mixture.mgf(s) == pytest.approx(
                delay.exact_transform_uniform(s), rel=1e-10
            )

    def test_transform_at_zero_is_one(self):
        delay = PacketPositionDelay(order=5, mean_service_s=0.02)
        assert delay.exact_transform_uniform(0.0) == pytest.approx(1.0)

    def test_uniform_tail_matches_monte_carlo(self, rng):
        delay = PacketPositionDelay(order=9, mean_service_s=0.018)
        dist = delay.uniform_position()
        samples = delay.sample_uniform(200_000, rng=rng)
        for x in (0.005, 0.015, 0.03):
            assert dist.tail(x) == pytest.approx(float((samples > x).mean()), abs=3e-3)

    def test_fixed_position_last_packet_is_erlang_k(self):
        delay = PacketPositionDelay(order=6, mean_service_s=0.03)
        dist = delay.fixed_position(1.0)
        from scipy import stats

        x = 0.04
        assert dist.tail(x) == pytest.approx(
            stats.gamma.sf(x, a=6, scale=0.03 / 6.0), rel=1e-9
        )

    def test_fixed_position_earlier_is_stochastically_smaller(self):
        delay = PacketPositionDelay(order=6, mean_service_s=0.03)
        early = delay.fixed_position(0.2)
        late = delay.fixed_position(1.0)
        assert early.quantile(0.999) < late.quantile(0.999)

    def test_fixed_position_rejects_out_of_range_theta(self):
        delay = PacketPositionDelay(order=6, mean_service_s=0.03)
        with pytest.raises(ParameterError):
            delay.fixed_position(0.0)

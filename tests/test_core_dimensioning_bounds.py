"""Tests for the dimensioning rules (Section 4) and the worst-case bound baseline."""

import pytest

from repro.core import DeterministicRttBound, PingTimeModel, max_gamers, max_tolerable_load
from repro.core.dimensioning import capacity_search, gamers_for_load, load_for_gamers
from repro.core.inversion import drive
from repro.errors import ParameterError
from repro.scenarios import get_scenario


def scenario_kwargs(erlang_order=9, tick=0.040, server_bytes=125.0):
    return dict(
        tick_interval_s=tick,
        client_packet_bytes=80.0,
        server_packet_bytes=server_bytes,
        erlang_order=erlang_order,
        access_uplink_bps=128e3,
        access_downlink_bps=1024e3,
        aggregation_rate_bps=5e6,
    )


class TestEq37:
    def test_load_for_gamers_paper_example(self):
        # 80 gamers, P_S = 125 byte, T = 40 ms, C = 5 Mbps -> 40% load.
        assert load_for_gamers(80, 0.040, 5e6, 125.0) == pytest.approx(0.4)

    def test_gamers_for_load_roundtrip(self):
        load = 0.37
        gamers = gamers_for_load(load, 0.040, 5e6, 125.0)
        assert load_for_gamers(gamers, 0.040, 5e6, 125.0) == pytest.approx(load)

    def test_gamers_for_load_rejects_bad_load(self):
        with pytest.raises(ParameterError):
            gamers_for_load(1.5, 0.040, 5e6, 125.0)

    def test_load_for_gamers_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            load_for_gamers(0.0, 0.040, 5e6, 125.0)


class TestMaxTolerableLoad:
    def test_paper_k9_dimensioning(self):
        """K=9, RTT<=50ms -> max load ~40%, N_max ~80 (Section 4)."""
        result = max_tolerable_load(0.050, **scenario_kwargs(erlang_order=9))
        assert result.max_load == pytest.approx(0.40, abs=0.06)
        assert 70 <= result.max_gamers <= 90

    def test_paper_k2_dimensioning(self):
        """K=2 -> max load ~20%, N_max ~40."""
        result = max_tolerable_load(0.050, **scenario_kwargs(erlang_order=2))
        assert result.max_load == pytest.approx(0.20, abs=0.05)
        assert 30 <= result.max_gamers <= 50

    def test_paper_k20_dimensioning(self):
        """K=20 -> max load ~60%, N_max ~120."""
        result = max_tolerable_load(0.050, **scenario_kwargs(erlang_order=20))
        assert result.max_load == pytest.approx(0.60, abs=0.08)
        assert 100 <= result.max_gamers <= 135

    def test_dimensioning_ordering_in_k(self):
        loads = {
            order: max_tolerable_load(0.050, **scenario_kwargs(erlang_order=order)).max_load
            for order in (2, 9, 20)
        }
        assert loads[2] < loads[9] < loads[20]

    def test_rtt_at_max_load_respects_bound(self):
        result = max_tolerable_load(0.050, **scenario_kwargs())
        assert result.rtt_at_max_load_s <= 0.050 * 1.02

    def test_looser_bound_allows_more_gamers(self):
        tight = max_tolerable_load(0.050, **scenario_kwargs())
        loose = max_tolerable_load(0.100, **scenario_kwargs())
        assert loose.max_gamers > tight.max_gamers

    def test_unreachable_bound_raises(self):
        with pytest.raises(ParameterError):
            max_tolerable_load(0.001, **scenario_kwargs())

    def test_max_gamers_wrapper(self):
        assert max_gamers(0.050, **scenario_kwargs()) == max_tolerable_load(
            0.050, **scenario_kwargs()
        ).max_gamers

    def test_result_unit_helpers(self):
        result = max_tolerable_load(0.050, **scenario_kwargs())
        assert result.rtt_bound_ms == pytest.approx(50.0)
        assert result.rtt_at_max_load_ms == pytest.approx(1e3 * result.rtt_at_max_load_s)


class TestCapacitySearch:
    @pytest.mark.parametrize("budget_s", [1e-4, 0.030, 0.050, 0.080, 1.0])
    def test_every_load_is_asked_once(self, budget_s):
        # Brent asks for the floor and the ceiling again and returns a
        # load it has evaluated; the search answers those repeats itself.
        scenario = get_scenario("paper-dsl")
        asked = []

        def rtt_at(load):
            asked.append(load)
            return scenario.model_at_load(load).rtt_quantile(0.99999)

        ceiling = scenario.stable_load_ceiling(0.98)
        best_load, rtt_at_best = drive(
            capacity_search(scenario, budget_s, ceiling, 1e-3), rtt_at
        )
        assert len(asked) == len(set(asked))
        if best_load is None:
            assert asked == [asked[0]] and rtt_at_best > budget_s
        else:
            assert best_load in asked
            assert rtt_at_best == scenario.model_at_load(best_load).rtt_quantile(0.99999)


class TestDeterministicBound:
    def _model(self):
        return PingTimeModel.from_downlink_load(0.4, **scenario_kwargs())

    def test_from_model_copies_parameters(self):
        model = self._model()
        bound = DeterministicRttBound.from_model(model)
        assert bound.num_gamers == model.num_gamers
        assert bound.tick_interval_s == model.tick_interval_s

    def test_bound_exceeds_statistical_quantile(self):
        model = self._model()
        bound = model.deterministic_bound()
        assert bound.rtt_bound_s > model.rtt_quantile(0.99999)

    def test_bound_grows_with_gamers(self):
        small = DeterministicRttBound.from_model(self._model().with_gamers(20))
        large = DeterministicRttBound.from_model(self._model().with_gamers(80))
        assert large.rtt_bound_s > small.rtt_bound_s

    def test_burst_cap_factor_increases_bound(self):
        model = self._model()
        cap1 = DeterministicRttBound.from_model(model, burst_cap_factor=1.0)
        cap3 = DeterministicRttBound.from_model(model, burst_cap_factor=3.0)
        assert cap3.rtt_bound_s > cap1.rtt_bound_s

    def test_invalid_cap_rejected(self):
        with pytest.raises(ParameterError):
            DeterministicRttBound.from_model(self._model(), burst_cap_factor=0.5)

    def test_ms_helper(self):
        bound = self._model().deterministic_bound()
        assert bound.rtt_bound_ms == pytest.approx(1e3 * bound.rtt_bound_s)

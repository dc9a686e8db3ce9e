"""Tests for the DSL scenario objects and load sweeps (Section 4)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.scenarios import (
    PAPER_BASELINE,
    PAPER_ERLANG_ORDERS,
    PAPER_SERVER_PACKET_SIZES,
    PAPER_TICK_INTERVALS_S,
    Scenario,
    default_load_grid,
    sweep_loads,
)


class TestPaperBaseline:
    def test_paper_baseline_defaults(self):
        assert PAPER_BASELINE.client_packet_bytes == 80.0
        assert PAPER_BASELINE.server_packet_bytes == 125.0
        assert PAPER_BASELINE.access_uplink_bps == 128_000.0
        assert PAPER_BASELINE.access_downlink_bps == 1_024_000.0
        assert PAPER_BASELINE.aggregation_rate_bps == 5_000_000.0

    def test_paper_parameter_sets(self):
        assert PAPER_ERLANG_ORDERS == (2, 9, 20)
        assert PAPER_TICK_INTERVALS_S == (0.040, 0.060)
        assert PAPER_SERVER_PACKET_SIZES == (75.0, 100.0, 125.0)

    def test_variants_do_not_mutate_the_original(self):
        variant = PAPER_BASELINE.with_erlang_order(20)
        assert variant.erlang_order == 20
        assert PAPER_BASELINE.erlang_order == 9

    def test_with_tick_interval(self):
        assert PAPER_BASELINE.with_tick_interval(0.040).tick_interval_s == 0.040

    def test_with_server_packet_bytes(self):
        assert PAPER_BASELINE.with_server_packet_bytes(75.0).server_packet_bytes == 75.0

    def test_rejects_order_below_two(self):
        with pytest.raises(ParameterError):
            Scenario(erlang_order=1)

    def test_model_at_load_roundtrip(self):
        model = PAPER_BASELINE.model_at_load(0.42)
        assert model.downlink_load == pytest.approx(0.42)

    def test_model_for_gamers(self):
        model = PAPER_BASELINE.model_for_gamers(60)
        assert model.num_gamers == 60

    def test_gamer_load_conversions(self):
        load = 0.37
        gamers = PAPER_BASELINE.gamers_at_load(load)
        assert PAPER_BASELINE.load_for_gamers(gamers) == pytest.approx(load)

    def test_model_kwargs_build_a_model(self):
        from repro.core import PingTimeModel

        kwargs = PAPER_BASELINE.model_kwargs()
        model = PingTimeModel(num_gamers=10, **kwargs)
        assert model.erlang_order == PAPER_BASELINE.erlang_order


class TestSweeps:
    def test_default_load_grid_range(self):
        grid = default_load_grid()
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.90)
        assert np.all(np.diff(grid) > 0)

    def test_default_load_grid_validation(self):
        with pytest.raises(ParameterError):
            default_load_grid(start=0.5, stop=0.3)

    def test_sweep_produces_one_point_per_load(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.2, 0.4, 0.6])
        assert len(series.points) == 3
        assert series.loads() == pytest.approx([0.2, 0.4, 0.6])

    def test_sweep_rtt_is_monotone_in_load(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.2, 0.4, 0.6, 0.8])
        rtts = series.rtt_ms()
        assert rtts == sorted(rtts)

    def test_sweep_point_unit_conversion(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.3])
        point = series.points[0]
        assert point.rtt_quantile_ms == pytest.approx(1e3 * point.rtt_quantile_s)

    def test_series_interpolation(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.2, 0.4])
        mid = series.interpolate_rtt_ms(0.3)
        assert series.rtt_ms()[0] <= mid <= series.rtt_ms()[1]

    def test_max_load_for_rtt_bound(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.1, 0.3, 0.5, 0.7])
        bound = series.rtt_ms()[2]
        max_load = series.max_load_for_rtt_ms(bound)
        assert max_load == pytest.approx(0.5, abs=0.02)

    def test_max_load_zero_when_bound_unreachable(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.3, 0.6])
        assert series.max_load_for_rtt_ms(1.0) == 0.0

    def test_as_rows(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.25], label="demo")
        rows = series.as_rows()
        assert rows[0]["label"] == "demo"
        assert rows[0]["load"] == pytest.approx(0.25)

    def test_default_label_mentions_order_and_tick(self):
        series = sweep_loads(PAPER_BASELINE, loads=[0.25])
        assert "K=9" in series.label


class TestSurfaceBackedSeries:
    """Satellite 1 (ISSUE 8): between-point queries route through an
    attached certified surface; without one, the linear interpolation
    error on the default grid stays within its historical envelope."""

    @pytest.fixture(scope="class")
    def engine(self):
        from repro.engine import Engine

        return Engine(PAPER_BASELINE)

    @pytest.fixture(scope="class")
    def surface(self, engine):
        from repro.surface import build_surface

        return build_surface(
            PAPER_BASELINE,
            "inversion",
            probability_lo=0.9999,
            probability_hi=0.999999,
            load_lo=0.30,
            load_hi=0.60,
            tolerance=1e-3,
            probe_factor=2,
            engine=engine,
        )

    def test_linear_interpolation_error_envelope_on_the_default_grid(self, engine):
        # Regression envelope for the uncertified baseline: on the
        # 18-point default grid the midpoint linear-interpolation error
        # against the exact inversion is ~4.2%; certify it stays there.
        series = engine.sweep()
        loads = np.asarray(series.loads())
        midpoints = ((loads[:-1] + loads[1:]) / 2.0).tolist()
        exact = engine.rtt_quantiles(midpoints)
        errors = [
            abs(series.interpolate_rtt_ms(mid) / 1e3 - value) / value
            for mid, value in zip(midpoints, exact)
        ]
        assert max(errors) <= 0.06

    def test_surface_routes_interpolation_within_the_certified_bound(
        self, engine, surface
    ):
        series = engine.sweep()
        series.attach_surface(surface)
        for load in (0.33, 0.42, 0.57):
            exact = engine.rtt_quantiles([load])[0]
            approx = series.interpolate_rtt_ms(load) / 1e3
            assert abs(approx - exact) / exact <= surface.certified_rel_bound

    def test_surface_beats_linear_interpolation_at_midpoints(self, engine, surface):
        series = engine.sweep()
        loads = np.asarray(series.loads())
        midpoints = [
            float(m) for m in (loads[:-1] + loads[1:]) / 2.0
            if surface.covers(float(m), series.probability)
        ]
        exact = engine.rtt_quantiles(midpoints)
        linear_errors = []
        surface_errors = []
        for mid, value in zip(midpoints, exact):
            linear_errors.append(
                abs(float(np.interp(mid, series.loads(), series.rtt_ms())) / 1e3 - value)
                / value
            )
            surface_errors.append(
                abs(surface.lookup(mid, series.probability) - value) / value
            )
        series.attach_surface(surface)
        for mid, err in zip(midpoints, surface_errors):
            assert err <= surface.certified_rel_bound
        assert max(surface_errors) < max(linear_errors)

    def test_outside_the_region_falls_back_to_linear(self, engine, surface):
        series = engine.sweep()
        linear = series.interpolate_rtt_ms(0.75)
        series.attach_surface(surface)
        assert series.interpolate_rtt_ms(0.75) == linear

    def test_max_load_inversion_respects_the_surface(self, engine, surface):
        series = engine.sweep(loads=[0.32, 0.40, 0.48, 0.58])
        series.attach_surface(surface)
        bound_ms = series.interpolate_rtt_ms(0.45)
        max_load = series.max_load_for_rtt_ms(bound_ms)
        assert max_load == pytest.approx(0.45, abs=1e-6)
        # Unreachable and trivially-satisfied bounds keep their contract.
        assert series.max_load_for_rtt_ms(1e-3) == 0.0
        assert series.max_load_for_rtt_ms(1e6) == pytest.approx(0.58)

    def test_attach_surface_validates_its_target(self, engine, surface):
        from repro.scenarios import get_scenario

        series = engine.sweep(loads=[0.35, 0.55])
        with pytest.raises(ParameterError, match="QuantileSurface"):
            series.attach_surface("nope")
        foreign = sweep_loads(get_scenario("ftth"), loads=[0.35, 0.55])
        with pytest.raises(ParameterError, match="different scenario"):
            foreign.attach_surface(surface)
        off_level = sweep_loads(PAPER_BASELINE, loads=[0.35, 0.55], probability=0.9)
        with pytest.raises(ParameterError, match="does not cover"):
            off_level.attach_surface(surface)

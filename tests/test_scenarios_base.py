"""Tests for the unified Scenario core type (serialization, validation,
derivation and the eq. (37) load conversions)."""

import json

import pytest

from repro.errors import ParameterError
from repro.scenarios import PAPER_BASELINE, Scenario


class TestConstructionAndValidation:
    def test_defaults_are_the_paper_dsl_baseline(self):
        s = Scenario()
        assert s.client_packet_bytes == 80.0
        assert s.server_packet_bytes == 125.0
        assert s.tick_interval_s == 0.060
        assert s.erlang_order == 9
        assert s.access_uplink_bps == 128_000.0
        assert s.access_downlink_bps == 1_024_000.0
        assert s.aggregation_rate_bps == 5_000_000.0

    def test_paper_baseline_is_the_default_scenario(self):
        assert PAPER_BASELINE == Scenario()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_packet_bytes": 0.0},
            {"server_packet_bytes": -1.0},
            {"tick_interval_s": 0.0},
            {"erlang_order": 1},
            {"access_uplink_bps": 0.0},
            {"aggregation_rate_bps": -5.0},
            {"propagation_delay_s": -0.001},
            {"server_processing_s": -0.001},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            Scenario(**kwargs)


class TestSerialization:
    def test_dict_round_trip(self):
        s = Scenario(tick_interval_s=0.040, erlang_order=20)
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip(self):
        s = Scenario(server_packet_bytes=100.0, propagation_delay_s=0.002)
        assert Scenario.from_json(s.to_json()) == s

    def test_to_json_is_valid_json(self):
        data = json.loads(Scenario().to_json())
        assert data["erlang_order"] == 9

    def test_from_dict_fills_defaults(self):
        s = Scenario.from_dict({"erlang_order": 2})
        assert s.erlang_order == 2
        assert s.server_packet_bytes == 125.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="unknown scenario parameter"):
            Scenario.from_dict({"tick_ms": 40.0})

    def test_from_dict_validates_values(self):
        with pytest.raises(ParameterError):
            Scenario.from_dict({"erlang_order": 1})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ParameterError):
            Scenario.from_json("[1, 2, 3]")

    def test_save_and_load(self, tmp_path):
        s = Scenario(erlang_order=20, tick_interval_s=0.040)
        path = tmp_path / "scenario.json"
        s.save(path)
        assert Scenario.load(path) == s

    def test_erlang_order_coerced_to_int(self):
        s = Scenario.from_dict({"erlang_order": 9.0})
        assert isinstance(s.erlang_order, int)


class TestDerive:
    def test_derive_overrides_and_keeps_the_rest(self):
        derived = PAPER_BASELINE.derive(erlang_order=2, tick_interval_s=0.040)
        assert derived.erlang_order == 2
        assert derived.tick_interval_s == 0.040
        assert derived.server_packet_bytes == PAPER_BASELINE.server_packet_bytes

    def test_derive_does_not_mutate_the_original(self):
        PAPER_BASELINE.derive(erlang_order=20)
        assert PAPER_BASELINE.erlang_order == 9

    def test_derive_rejects_unknown_names(self):
        with pytest.raises(ParameterError):
            PAPER_BASELINE.derive(tick_ms=40)

    def test_derive_revalidates(self):
        with pytest.raises(ParameterError):
            PAPER_BASELINE.derive(erlang_order=0)

    def test_named_variants_delegate_to_derive(self):
        assert PAPER_BASELINE.with_erlang_order(20).erlang_order == 20
        assert PAPER_BASELINE.with_tick_interval(0.040).tick_interval_s == 0.040
        assert PAPER_BASELINE.with_server_packet_bytes(75.0).server_packet_bytes == 75.0


class TestLoadConversions:
    def test_gamers_load_inversion_round_trip(self):
        for load in (0.05, 0.37, 0.80):
            gamers = PAPER_BASELINE.gamers_at_load(load)
            assert PAPER_BASELINE.load_for_gamers(gamers) == pytest.approx(load)

    def test_uplink_downlink_inversion_round_trip(self):
        for load in (0.1, 0.5, 0.9):
            up = PAPER_BASELINE.uplink_load_for(load)
            assert PAPER_BASELINE.downlink_load_for(up) == pytest.approx(load)

    def test_uplink_load_uses_packet_size_ratio(self):
        assert PAPER_BASELINE.uplink_load_for(0.5) == pytest.approx(0.5 * 80.0 / 125.0)

    def test_load_conversions_reject_out_of_range(self):
        with pytest.raises(ParameterError):
            PAPER_BASELINE.uplink_load_for(1.5)
        with pytest.raises(ParameterError):
            PAPER_BASELINE.downlink_load_for(0.0)

    def test_stable_load_ceiling_downlink_limited(self):
        # P_C < P_S: the downlink saturates first, ceiling is the cap itself.
        assert PAPER_BASELINE.stable_load_ceiling(0.98) == pytest.approx(0.98)

    def test_stable_load_ceiling_uplink_limited(self):
        # P_C > P_S: the uplink saturates first.
        s = PAPER_BASELINE.derive(client_packet_bytes=250.0)
        assert s.stable_load_ceiling(0.98) == pytest.approx(0.98 * 125.0 / 250.0)

    def test_stable_load_ceiling_validates(self):
        with pytest.raises(ParameterError):
            PAPER_BASELINE.stable_load_ceiling(1.2)


class TestModelConstruction:
    def test_model_at_load_round_trip(self):
        model = PAPER_BASELINE.model_at_load(0.42)
        assert model.downlink_load == pytest.approx(0.42)

    def test_model_kwargs_match_to_dict(self):
        assert PAPER_BASELINE.model_kwargs() == PAPER_BASELINE.to_dict()


class TestCacheKey:
    """Scenario.cache_key(): the Fleet's canonical sharding key."""

    def test_equal_scenarios_share_the_key(self):
        assert PAPER_BASELINE.cache_key() == Scenario().cache_key()
        rebuilt = Scenario.from_dict(PAPER_BASELINE.to_dict())
        assert rebuilt.cache_key() == PAPER_BASELINE.cache_key()

    def test_any_parameter_change_changes_the_key(self):
        base = PAPER_BASELINE
        for name, value in [
            ("tick_interval_s", 0.040),
            ("erlang_order", 20),
            ("server_packet_bytes", 200.0),
            ("aggregation_rate_bps", 6_000_000.0),
            ("propagation_delay_s", 0.005),
        ]:
            assert base.derive(**{name: value}).cache_key() != base.cache_key(), name

    def test_key_is_short_stable_hex(self):
        key = PAPER_BASELINE.cache_key()
        assert len(key) == 16
        int(key, 16)  # hex digest
        assert key == PAPER_BASELINE.cache_key()  # deterministic

    def test_canonical_json_round_trips(self):
        restored = Scenario.from_json(PAPER_BASELINE.canonical_json())
        assert restored == PAPER_BASELINE
        assert "\n" not in PAPER_BASELINE.canonical_json()

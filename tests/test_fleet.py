"""Tests for the Fleet request-serving layer.

The serving contract: answers are the very same floats the scalar
``model.rtt_quantile`` produces (the stacked batch is an optimisation,
not an approximation), the shared cache honors its entry budget with
LRU eviction, and evicted-then-recomputed answers are bit-identical to
warm-cache answers — including across save/warm_start round trips.
"""

import json
from dataclasses import replace

import pytest

from repro.errors import ExecutorBrokenError, ParameterError, StabilityError
from repro.executors import Executor, SerialExecutor
from repro.fleet import Answer, Fleet, FleetStats, Request, gamers_key
from repro.scenarios import PAPER_BASELINE, Scenario, get_scenario

TICK40 = Scenario(tick_interval_s=0.040)

PRESETS = ("paper-dsl", "cable", "ftth", "lte")


def _mixed_requests(loads=(0.3, 0.5, 0.7)):
    return [
        Request(preset, downlink_load=load) for preset in PRESETS for load in loads
    ]


class TestRequest:
    def test_requires_exactly_one_operating_point(self):
        with pytest.raises(ParameterError, match="exactly one"):
            Request("paper-dsl")
        with pytest.raises(ParameterError, match="exactly one"):
            Request("paper-dsl", downlink_load=0.4, num_gamers=10.0)

    def test_validates_ranges(self):
        with pytest.raises(ParameterError):
            Request("paper-dsl", downlink_load=1.2)
        with pytest.raises(ParameterError):
            Request("paper-dsl", num_gamers=0.5)
        with pytest.raises(ParameterError):
            Request("paper-dsl", downlink_load=0.4, probability=2.0)
        with pytest.raises(ParameterError):
            Request("paper-dsl", downlink_load=0.4, method="magic")

    def test_from_dict_accepts_short_spellings(self):
        request = Request.from_dict({"scenario": "ftth", "load": 0.4, "tag": "t1"})
        assert request.downlink_load == 0.4
        assert request.tag == "t1"
        by_gamers = Request.from_dict({"scenario": "ftth", "gamers": 40})
        assert by_gamers.num_gamers == 40.0

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ParameterError, match="unknown request field"):
            Request.from_dict({"scenario": "ftth", "laod": 0.4})

    def test_from_dict_rejects_conflicting_alias_spellings(self):
        with pytest.raises(ParameterError, match="conflicts"):
            Request.from_dict({"scenario": "ftth", "load": 0.4, "downlink_load": 0.8})

    def test_from_dict_requires_scenario(self):
        with pytest.raises(ParameterError, match="scenario"):
            Request.from_dict({"load": 0.4})

    def test_round_trips_through_dict(self):
        request = Request("lte", downlink_load=0.4, probability=0.999, tag="x")
        assert Request.from_dict(request.to_dict()) == request

    def test_scenario_object_and_mapping_specs(self):
        assert Request(TICK40, downlink_load=0.4).scenario is TICK40
        request = Request({"tick_interval_s": 0.040}, downlink_load=0.4)
        assert Fleet.resolve_scenario(request.scenario) == TICK40


class TestConstruction:
    def test_validates_budgets_and_defaults(self):
        with pytest.raises(ParameterError):
            Fleet(max_cache_entries=0)
        with pytest.raises(ParameterError):
            Fleet(probability=1.5)
        with pytest.raises(ParameterError):
            Fleet(method="magic")

    def test_stats_as_dict(self):
        stats = FleetStats(cache_hits=3, cache_misses=1)
        assert stats.as_dict()["cache_hits"] == 3
        assert stats.hit_rate == pytest.approx(0.75)
        assert FleetStats().hit_rate == 0.0


class TestServing:
    def test_answers_match_the_scalar_path_bitwise(self):
        fleet = Fleet()
        requests = _mixed_requests()
        answers = fleet.serve(requests)
        for request, answer in zip(requests, answers):
            model = get_scenario(request.scenario).model_at_load(request.downlink_load)
            assert answer.rtt_quantile_s == model.rtt_quantile(0.99999)
            assert answer.rtt_quantile_ms == 1e3 * answer.rtt_quantile_s
            assert not answer.cached

    def test_accepts_raw_dict_requests(self):
        fleet = Fleet()
        [answer] = fleet.serve([{"scenario": "ftth", "load": 0.4}])
        assert isinstance(answer, Answer)
        model = get_scenario("ftth").model_at_load(0.4)
        assert answer.rtt_quantile_s == model.rtt_quantile(0.99999)

    def test_gamer_requests_share_entries_with_load_requests(self):
        fleet = Fleet()
        gamers = get_scenario("paper-dsl").gamers_at_load(0.4)
        first = fleet.serve([Request("paper-dsl", downlink_load=0.4)])[0]
        second = fleet.serve([Request("paper-dsl", num_gamers=gamers)])[0]
        assert second.cached
        assert second.rtt_quantile_s == first.rtt_quantile_s
        assert fleet.stats.evaluations == 1

    def test_duplicate_requests_evaluate_once(self):
        fleet = Fleet()
        answers = fleet.serve([Request("paper-dsl", downlink_load=0.4)] * 3)
        assert fleet.stats.evaluations == 1
        assert fleet.stats.requests == 3
        assert len({a.rtt_quantile_s for a in answers}) == 1

    def test_per_request_probability_and_method(self):
        fleet = Fleet()
        answers = fleet.serve(
            [
                Request("paper-dsl", downlink_load=0.4),
                Request("paper-dsl", downlink_load=0.4, probability=0.99),
                Request("paper-dsl", downlink_load=0.4, method="chernoff"),
            ]
        )
        assert answers[0].probability == 0.99999
        assert answers[1].probability == 0.99
        assert answers[2].method == "chernoff"
        model = PAPER_BASELINE.model_at_load(0.4)
        assert answers[1].rtt_quantile_s == model.rtt_quantile(0.99)
        assert answers[2].rtt_quantile_s == model.rtt_quantile(0.99999, method="chernoff")
        # Three distinct cache entries for one operating point.
        assert fleet.stats.evaluations == 3

    def test_one_point_at_several_levels_shares_its_model_build(self):
        from repro.core.rtt import model_build_count, reset_model_build_count

        fleet = Fleet()
        levels = (0.99, 0.999, 0.99999)
        reset_model_build_count()
        answers = fleet.serve(
            [Request("paper-dsl", downlink_load=0.4, probability=p) for p in levels]
        )
        assert model_build_count() == 1
        assert fleet.stats.evaluations == len(levels)
        model = get_scenario("paper-dsl").model_at_load(0.4)
        assert [a.rtt_quantile_s for a in answers] == [model.rtt_quantile(p) for p in levels]

    def test_request_convenience_wrapper(self):
        fleet = Fleet()
        answer = fleet.request("ftth", downlink_load=0.4, tag="one-off")
        assert answer.tag == "one-off"
        assert answer.scenario_key == get_scenario("ftth").cache_key()

    def test_subunit_gamer_load_raises(self):
        with pytest.raises(ParameterError, match="fewer than one gamer"):
            Fleet().serve([Request("paper-dsl", downlink_load=1e-4)])

    def test_sharding_by_cache_key_unifies_equivalent_specs(self):
        fleet = Fleet()
        fleet.serve(
            [
                Request("paper-dsl", downlink_load=0.4),
                Request(PAPER_BASELINE, downlink_load=0.4),
                Request(PAPER_BASELINE.to_dict(), downlink_load=0.4),
            ]
        )
        # One entry, one evaluation: all three specs share the key
        # (in-batch duplicates count as probe-time misses but are
        # deduplicated before evaluation).
        assert fleet.cache_size() == 1
        assert fleet.stats.evaluations == 1
        assert fleet.stats.cache_misses == 3


class TestBoundedCache:
    def test_entry_budget_evicts_lru(self):
        fleet = Fleet(max_cache_entries=2)
        fleet.serve(
            [
                Request("paper-dsl", downlink_load=0.2),
                Request("paper-dsl", downlink_load=0.3),
                Request("paper-dsl", downlink_load=0.4),
            ]
        )
        assert fleet.cache_size() == 2
        assert fleet.stats.evictions == 1
        # The 0.2 entry (least recently used) was evicted.
        remaining_gamers = {key[1] for key in fleet.cached_keys()}
        scenario = get_scenario("paper-dsl")
        assert gamers_key(scenario.gamers_at_load(0.2)) not in remaining_gamers

    def test_hit_refreshes_recency(self):
        fleet = Fleet(max_cache_entries=2)
        fleet.serve([Request("paper-dsl", downlink_load=0.2)])
        fleet.serve([Request("paper-dsl", downlink_load=0.3)])
        fleet.serve([Request("paper-dsl", downlink_load=0.2)])  # touch 0.2
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])  # evicts 0.3
        answer = fleet.serve([Request("paper-dsl", downlink_load=0.2)])[0]
        assert answer.cached
        assert fleet.stats.evictions == 1

    def test_eviction_stats_count_every_eviction(self):
        fleet = Fleet(max_cache_entries=1)
        fleet.serve(_mixed_requests(loads=(0.4,)))
        assert fleet.stats.evictions == len(PRESETS) - 1
        assert fleet.cache_size() == 1

    def test_evicted_then_recomputed_is_bit_identical(self):
        fleet = Fleet(max_cache_entries=1)
        warm = fleet.serve([Request("paper-dsl", downlink_load=0.4)])[0]
        fleet.serve([Request("paper-dsl", downlink_load=0.6)])  # evicts 0.4
        recomputed = fleet.serve([Request("paper-dsl", downlink_load=0.4)])[0]
        assert not recomputed.cached
        assert recomputed.rtt_quantile_s == warm.rtt_quantile_s

    def test_scenario_eviction_does_not_change_answers(self):
        fleet = Fleet(max_cache_entries=1)
        first = fleet.serve([Request("paper-dsl", downlink_load=0.4)])[0]
        fleet.serve([Request("ftth", downlink_load=0.4)])  # evicts paper-dsl
        assert set(fleet._scenarios) == {get_scenario("ftth").cache_key()}
        again = fleet.serve([Request("paper-dsl", downlink_load=0.4)])[0]
        assert not again.cached
        assert again.rtt_quantile_s == first.rtt_quantile_s

    def test_stats_counters_are_consistent(self):
        fleet = Fleet()
        requests = _mixed_requests()
        fleet.serve(requests)
        fleet.serve(requests)
        stats = fleet.stats
        assert stats.requests == 2 * len(requests)
        assert stats.batches == 2
        assert stats.cache_hits == len(requests)
        assert stats.cache_misses == len(requests)
        assert stats.evaluations == len(requests)
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.stacked_mgf_calls > 0

    def test_clear_cache(self):
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        fleet.clear_cache()
        assert fleet.cache_size() == 0
        answer = fleet.serve([Request("paper-dsl", downlink_load=0.4)])[0]
        assert not answer.cached

    def test_unreferenced_scenarios_are_pruned(self):
        # Scenarios whose answers were all evicted must not accumulate
        # (a many-scenario stream would leak otherwise).
        fleet = Fleet(max_cache_entries=1)
        for tick_ms in (40.0, 45.0, 50.0, 55.0):
            scenario = PAPER_BASELINE.derive(tick_interval_s=tick_ms / 1e3)
            fleet.serve([Request(scenario, downlink_load=0.4)])
        referenced = {key[0] for key in fleet.cached_keys()}
        assert set(fleet._scenarios) == referenced
        assert len(fleet._scenarios) == 1


class TestPersistence:
    def test_save_and_warm_start_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        requests = _mixed_requests()
        answers = fleet.serve(requests)
        assert fleet.save_cache(path) == len(requests)

        warm = Fleet()
        assert warm.warm_start(path) == len(requests)
        assert warm.stats.warm_loaded == len(requests)
        warm_answers = warm.serve(requests)
        assert all(a.cached for a in warm_answers)
        assert warm.stats.evaluations == 0
        assert [a.rtt_quantile_s for a in warm_answers] == [
            a.rtt_quantile_s for a in answers
        ]

    def test_warm_start_preserves_lru_order(self, tmp_path):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=l) for l in (0.2, 0.3, 0.4)])
        fleet.save_cache(path)
        warm = Fleet(max_cache_entries=2)
        warm.warm_start(path)
        # The budget keeps the most recently used entries (0.3, 0.4).
        scenario = get_scenario("paper-dsl")
        kept = {key[1] for key in warm.cached_keys()}
        assert gamers_key(scenario.gamers_at_load(0.2)) not in kept
        assert len(kept) == 2

    def test_warm_start_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
        with pytest.raises(ParameterError, match="not a fleet cache"):
            Fleet().warm_start(path)
        path.write_text(
            json.dumps({"format": "repro-fleet-cache", "version": 99}), encoding="utf-8"
        )
        with pytest.raises(ParameterError, match="version"):
            Fleet().warm_start(path)

    def test_warm_start_rejects_dangling_scenario_references(self, tmp_path):
        path = tmp_path / "dangling.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-fleet-cache",
                    "version": 1,
                    "scenarios": {},
                    "entries": [
                        {
                            "scenario": "deadbeef",
                            "num_gamers": 10.0,
                            "probability": 0.99999,
                            "method": "inversion",
                            "rtt_quantile_s": 0.05,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ParameterError, match="unknown scenario"):
            Fleet().warm_start(path)

    def test_persisted_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        [answer] = fleet.serve([Request("lte", downlink_load=0.47)])
        fleet.save_cache(path)
        warm = Fleet()
        warm.warm_start(path)
        [restored] = warm.serve([Request("lte", downlink_load=0.47)])
        assert restored.cached
        assert restored.rtt_quantile_s == answer.rtt_quantile_s  # bitwise

    def test_experiment_runs_on_a_shared_fleet(self):
        # The multi-preset comparison experiment piggybacks on a warm fleet.
        from repro.experiments import run_access_comparison

        fleet = Fleet()
        first = run_access_comparison(loads=(0.3, 0.5), fleet=fleet)
        evaluations = fleet.stats.evaluations
        second = run_access_comparison(loads=(0.3, 0.5), fleet=fleet)
        assert fleet.stats.evaluations == evaluations  # fully cached
        for preset in first.series_by_preset:
            assert (
                first.series_by_preset[preset].rtt_ms()
                == second.series_by_preset[preset].rtt_ms()
            )


class TestWarmStartHardening:
    """Corrupted or mismatched cache files raise the typed error."""

    def _valid_payload(self):
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        scenario = get_scenario("paper-dsl")
        return {
            "format": "repro-fleet-cache",
            "version": 1,
            "scenarios": {scenario.cache_key(): scenario.to_dict()},
            "entries": [
                {
                    "scenario": scenario.cache_key(),
                    "num_gamers": 10.0,
                    "probability": 0.99999,
                    "method": "inversion",
                    "rtt_quantile_s": 0.05,
                }
            ],
        }

    def test_invalid_json_raises_typed_error(self, tmp_path):
        from repro.errors import CacheFormatError

        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CacheFormatError, match="not valid JSON") as excinfo:
            Fleet().warm_start(path)
        assert excinfo.value.path == str(path)

    def test_cache_format_error_is_a_parameter_error(self):
        from repro.errors import CacheFormatError, ReproError

        assert issubclass(CacheFormatError, ParameterError)
        assert issubclass(CacheFormatError, ReproError)

    def test_malformed_scenario_names_the_key(self, tmp_path):
        from repro.errors import CacheFormatError

        payload = self._valid_payload()
        key = next(iter(payload["scenarios"]))
        payload["scenarios"][key] = {"no_such_field": 1.0}
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="malformed") as excinfo:
            Fleet().warm_start(path)
        assert excinfo.value.key == key

    def test_entry_missing_field_names_the_key(self, tmp_path):
        from repro.errors import CacheFormatError

        payload = self._valid_payload()
        del payload["entries"][0]["num_gamers"]
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="missing field") as excinfo:
            Fleet().warm_start(path)
        assert excinfo.value.key == "num_gamers"

    def test_entry_with_non_numeric_value_raises(self, tmp_path):
        from repro.errors import CacheFormatError

        payload = self._valid_payload()
        payload["entries"][0]["rtt_quantile_s"] = "fast"
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="non-numeric"):
            Fleet().warm_start(path)

    def test_entry_with_non_string_scenario_reference_raises(self, tmp_path):
        from repro.errors import CacheFormatError

        payload = self._valid_payload()
        payload["entries"][0]["scenario"] = {"nested": 1}
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="non-string scenario"):
            Fleet().warm_start(path)

    def test_entry_with_unknown_method_raises(self, tmp_path):
        from repro.errors import CacheFormatError

        payload = self._valid_payload()
        payload["entries"][0]["method"] = "magic"
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="unknown method") as excinfo:
            Fleet().warm_start(path)
        assert excinfo.value.key == "magic"

    def test_sections_must_have_the_right_shape(self, tmp_path):
        from repro.errors import CacheFormatError

        path = tmp_path / "cache.json"
        payload = self._valid_payload()
        payload["scenarios"] = ["not", "a", "dict"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="scenarios"):
            Fleet().warm_start(path)
        payload = self._valid_payload()
        payload["entries"] = {"not": "a list"}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="entries"):
            Fleet().warm_start(path)
        payload = self._valid_payload()
        payload["entries"] = ["not an object"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CacheFormatError, match="not a JSON object"):
            Fleet().warm_start(path)

    def test_valid_entries_before_a_corrupt_one_are_kept(self, tmp_path):
        from repro.errors import CacheFormatError

        payload = self._valid_payload()
        payload["entries"].append({"scenario": "deadbeef"})
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        fleet = Fleet()
        with pytest.raises(CacheFormatError):
            fleet.warm_start(path)
        assert fleet.cache_size() == 1  # the good entry survived


class TestAtomicSaveCache:
    """save_cache must never leave a truncated file behind (ISSUE 5)."""

    def test_failed_write_preserves_the_previous_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        fleet.save_cache(path)
        before = path.read_text(encoding="utf-8")

        fleet.serve([Request("ftth", downlink_load=0.4)])
        monkeypatch.setattr(
            "repro.fleet.os.replace",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError, match="disk full"):
            fleet.save_cache(path)
        # The previous cache file is untouched and still loads cleanly.
        assert path.read_text(encoding="utf-8") == before
        warm = Fleet()
        assert warm.warm_start(path) == 1
        # No orphaned temporary files pollute the directory.
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_successful_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        assert fleet.save_cache(path) == 1
        fleet.serve([Request("ftth", downlink_load=0.4)])
        assert fleet.save_cache(path) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        warm = Fleet()
        assert warm.warm_start(path) == 2

    def test_saved_file_keeps_ordinary_permissions(self, tmp_path):
        # mkstemp creates 0600 temp files; a fresh cache must get the
        # umask-derived mode a plain open() would have, so sibling
        # readers (monitoring jobs, other services) keep access.
        import os as _os
        import stat

        path = tmp_path / "cache.json"
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        fleet.save_cache(path)
        umask = _os.umask(0o022)
        _os.umask(umask)
        mode = stat.S_IMODE(path.stat().st_mode)
        assert mode == 0o666 & ~umask

    def test_save_writes_through_a_symlinked_path(self, tmp_path):
        # Regression: the atomic replace must land on the symlink's
        # TARGET (like write_text did), not swap the link for a file.
        import os as _os

        shared = tmp_path / "shared" / "fleet-cache.json"
        shared.parent.mkdir()
        link = tmp_path / "cache.json"
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        fleet.save_cache(shared)
        link.symlink_to(shared)

        fleet.serve([Request("ftth", downlink_load=0.4)])
        assert fleet.save_cache(link) == 2
        assert link.is_symlink()  # the link survives
        warm = Fleet()
        assert warm.warm_start(shared) == 2  # the shared file was updated
        assert _os.path.realpath(link) == str(shared)

    def test_resave_preserves_an_operator_restricted_mode(self, tmp_path):
        # An operator may chmod the cache (it encodes their topology);
        # rewriting it must keep that mode, exactly like the plain
        # write_text it replaced did.
        import stat

        path = tmp_path / "cache.json"
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        fleet.save_cache(path)
        path.chmod(0o600)
        fleet.serve([Request("ftth", downlink_load=0.4)])
        assert fleet.save_cache(path) == 2
        assert stat.S_IMODE(path.stat().st_mode) == 0o600


class TestWarmStartCanonicalization:
    """warm_start keys must round through the serving gamers key."""

    def test_perturbed_gamers_values_still_hit(self, tmp_path):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        [answer] = fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        fleet.save_cache(path)

        # Simulate an externally generated file: the gamers value drifts
        # below the 9-decimal canonical rounding (e.g. a writer that
        # recomputed it in higher precision).
        payload = json.loads(path.read_text(encoding="utf-8"))
        [entry] = payload["entries"]
        entry["num_gamers"] = entry["num_gamers"] + 1e-11
        path.write_text(json.dumps(payload), encoding="utf-8")

        warm = Fleet()
        assert warm.warm_start(path) == 1
        [restored] = warm.serve([Request("paper-dsl", downlink_load=0.4)])
        assert restored.cached
        assert restored.rtt_quantile_s == answer.rtt_quantile_s

    def test_loaded_keys_are_canonical(self, tmp_path):
        path = tmp_path / "cache.json"
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        fleet.save_cache(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["entries"][0]["num_gamers"] += 1e-11
        path.write_text(json.dumps(payload), encoding="utf-8")
        warm = Fleet()
        warm.warm_start(path)
        for key in warm.cached_keys():
            assert key[1] == gamers_key(key[1])


class TestBatchValidationAtomicity:
    """A poisoned batch must not mutate stats, cache order or scenarios."""

    def _snapshot(self, fleet):
        return (
            fleet.stats.as_dict(),
            fleet.cached_keys(),
            list(fleet._scenarios),
        )

    def test_unstable_gamer_request_leaves_state_untouched(self):
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=l) for l in (0.2, 0.4)])
        fleet.serve([Request("paper-dsl", downlink_load=0.2)])  # 0.2 is MRU
        before = self._snapshot(fleet)
        with pytest.raises(StabilityError):
            fleet.serve(
                [
                    Request("ftth", downlink_load=0.3),  # fresh scenario
                    Request("paper-dsl", downlink_load=0.4),  # would be a hit
                    Request("paper-dsl", num_gamers=1e9),  # unstable
                ]
            )
        assert self._snapshot(fleet) == before

    def test_unstable_uplink_request_leaves_state_untouched(self):
        # Client packets larger than server packets: the uplink
        # saturates while the downlink load still looks fine.
        heavy_uplink = PAPER_BASELINE.derive(client_packet_bytes=200.0)
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        before = self._snapshot(fleet)
        with pytest.raises(StabilityError, match="uplink"):
            fleet.serve([Request(heavy_uplink, downlink_load=0.8)])
        assert self._snapshot(fleet) == before

    def test_subunit_gamer_request_leaves_state_untouched(self):
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        before = self._snapshot(fleet)
        with pytest.raises(ParameterError, match="fewer than one gamer"):
            fleet.serve(
                [
                    Request("paper-dsl", downlink_load=0.5),
                    Request("paper-dsl", downlink_load=1e-4),
                ]
            )
        assert self._snapshot(fleet) == before

    def test_valid_batches_still_account_normally(self):
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        assert fleet.stats.batches == 1
        assert fleet.stats.requests == 1
        assert fleet.stats.cache_misses == 1


class TestServeExecutor:
    """serve(executor=...) plugs any executor into the execute phase."""

    def test_parallel_executor_returns_identical_floats(self):
        from repro.executors import ParallelExecutor

        requests = _mixed_requests(loads=(0.3, 0.6))
        reference = Fleet().serve(requests)
        fleet = Fleet()
        with ParallelExecutor(workers=2) as executor:
            answers = fleet.serve(requests, executor=executor)
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]
        assert fleet.stats.remote_plans > 0
        assert fleet.stats.plans_executed >= fleet.stats.remote_plans

    def test_warm_pass_skips_the_executor_entirely(self):
        from repro.executors import ParallelExecutor

        requests = _mixed_requests(loads=(0.4,))
        fleet = Fleet()
        fleet.serve(requests)
        plans_before = fleet.stats.plans_executed
        with ParallelExecutor(workers=2) as executor:
            warm = fleet.serve(requests, executor=executor)
        assert all(a.cached for a in warm)
        assert fleet.stats.plans_executed == plans_before
        assert fleet.stats.remote_plans == 0  # the pool never spun up


class _DamagingExecutor(Executor):
    """Runs the plans serially, then hands ``damage(results)`` back."""

    def __init__(self, damage):
        self.damage = damage

    def run(self, plans):
        return self.damage(SerialExecutor().run(plans))


class _DeadExecutor(Executor):
    def run(self, plans):
        raise ExecutorBrokenError("the pool died")


BAD_HOST = "10.0.0.9:19333"


def _damage_last(**changes):
    def damage(results):
        last = results[-1]
        fields = {name: change(getattr(last, name)) for name, change in changes.items()}
        return [*results[:-1], replace(last, host=BAD_HOST, **fields)]

    return damage


class TestMismatchedExecutorResults:
    """Results that do not answer their plans are a broken executor."""

    # Two plans: the inversion group and the dominant-pole request.
    REQUESTS = [
        Request("paper-dsl", downlink_load=0.3),
        Request("cable", downlink_load=0.5),
        Request("ftth", downlink_load=0.4, method="dominant-pole"),
    ]

    DAMAGES = {
        "short-list": lambda results: results[:-1],
        "short-values": _damage_last(values=lambda values: values[:-1]),
        "mismatched-indices": _damage_last(indices=lambda indices: tuple(i + 1 for i in indices)),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_raises_the_typed_error_and_leaves_no_trace(self, damage):
        control = Fleet()
        with pytest.raises(ExecutorBrokenError):
            control.serve(self.REQUESTS, executor=_DeadExecutor())
        fleet = Fleet()
        with pytest.raises(ExecutorBrokenError) as raised:
            fleet.serve(self.REQUESTS, executor=_DamagingExecutor(self.DAMAGES[damage]))
        if damage != "short-list":
            assert raised.value.host == BAD_HOST
            assert BAD_HOST in str(raised.value)
        # Exactly the state a dead pool leaves: the planning counters
        # only, no plan folded in and nothing cached.
        assert fleet.stats.as_dict() == control.stats.as_dict()
        assert fleet.cached_keys() == []
        assert fleet.serve(self.REQUESTS) == Fleet().serve(self.REQUESTS)


class TestPlanCosts:
    def test_costs_keyed_by_signature(self):
        fleet = Fleet()
        fleet.serve(_mixed_requests(loads=(0.4,)))
        costs = fleet.stats.plan_costs
        assert costs  # at least one signature
        for signature, cost in costs.items():
            assert signature.startswith("inversion/K")
            assert cost["plans"] >= 1
            assert cost["models"] >= cost["plans"]
            assert cost["exec_s"] >= 0.0
        assert sum(c["plans"] for c in costs.values()) == fleet.stats.plans_executed

    def test_mix_requests_use_the_mix_signature(self):
        fleet = Fleet()
        fleet.serve([Request("multi-game-dsl", downlink_load=0.5)])
        assert any(
            signature.startswith("inversion/mix-K")
            for signature in fleet.stats.plan_costs
        )

    def test_stats_dict_includes_plan_costs(self):
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4)])
        payload = fleet.stats.as_dict()
        assert "plan_costs" in payload
        assert payload["plan_costs"] == fleet.stats.plan_costs

    def test_non_inversion_methods_get_their_own_bucket(self):
        fleet = Fleet()
        fleet.serve([Request("paper-dsl", downlink_load=0.4, method="chernoff")])
        assert "chernoff" in fleet.stats.plan_costs

    def test_plan_signature_shapes(self):
        from repro.core.rtt import compile_eval_plans, plan_signature

        model = get_scenario("paper-dsl").model_at_load(0.4)
        plans = compile_eval_plans([model], 0.99999, "inversion")
        assert all(
            plan_signature(plan).startswith("inversion/K") for plan in plans
        )
        plans = compile_eval_plans([model], 0.99999, "chernoff")
        assert all(plan_signature(plan) == "chernoff" for plan in plans)

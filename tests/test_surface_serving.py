"""Tests for the surface serving tier: fleet probe, daemon, CLI.

The contract under test (ISSUE 8): a fleet with attached certified
surfaces answers warm in-region streams in O(1) without executing a
single evaluation plan, while exact-float requests, out-of-region
points and uncovered (scenario, method) pairs fall through to the
exact stacked path with floats bit-identical to a surface-less fleet.
"""

import asyncio
import json

import pytest

from repro.engine import Engine
from repro.errors import ParameterError, ReproError, SurfaceFormatError
from repro.fleet import AsyncFleet, Fleet, Request
from repro.scenarios import get_scenario
from repro.serve import ServingDaemon
from repro.serve.coalescer import RequestCoalescer, _flight_key
from repro.surface import build_surface, save_surfaces

from test_serve_daemon import HttpClient

#: Shared fast-build region (paper-dsl's many-gamers regime).
BUILD_KWARGS = dict(
    probability_lo=0.9999,
    probability_hi=0.999999,
    load_lo=0.30,
    load_hi=0.60,
    tolerance=1e-3,
    probe_factor=2,
    grid_ladder=((9, 5), (13, 7), (17, 9)),
)

IN_REGION_LOADS = [0.32, 0.38, 0.44, 0.50, 0.56]


@pytest.fixture(scope="module")
def paper_surface():
    return build_surface(get_scenario("paper-dsl"), "inversion", **BUILD_KWARGS)


@pytest.fixture(scope="module")
def surface_dir(paper_surface, tmp_path_factory):
    path = tmp_path_factory.mktemp("surfaces")
    save_surfaces(paper_surface, path)
    return path


def in_region_requests():
    return [
        Request("paper-dsl", downlink_load=load, probability=0.99999)
        for load in IN_REGION_LOADS
    ]


class TestFleetSurfaceTier:
    def test_attach_returns_the_surface_count(self, paper_surface):
        fleet = Fleet()
        assert fleet.surfaces is None
        assert fleet.attach_surfaces(paper_surface) == 1
        assert len(fleet.surfaces) == 1

    def test_attach_from_path(self, paper_surface, surface_dir):
        from repro.surface import surface_filename

        fleet = Fleet()
        assert fleet.attach_surfaces(surface_dir) == 1
        single_file = surface_dir / surface_filename(paper_surface.scenario_key)
        assert fleet.attach_surfaces(str(single_file)) == 1

    def test_attach_corrupt_path_raises(self, tmp_path):
        (tmp_path / "bad.json").write_text("{ not json")
        with pytest.raises(SurfaceFormatError):
            Fleet().attach_surfaces(tmp_path)

    def test_in_region_stream_executes_zero_plans(self, paper_surface):
        fleet = Fleet()
        fleet.attach_surfaces(paper_surface)
        answers = fleet.serve(in_region_requests())
        stats = fleet.stats
        assert stats.surface_hits == len(IN_REGION_LOADS)
        assert stats.surface_misses == 0
        assert stats.surface_fallbacks == 0
        assert stats.plans_executed == 0
        assert stats.evaluations == 0
        assert stats.cache_misses == 0
        assert all(answer.cached for answer in answers)

    def test_surface_answers_stay_within_the_certified_bound(self, paper_surface):
        requests = in_region_requests()
        exact = Fleet().serve(requests)
        fleet = Fleet()
        fleet.attach_surfaces(paper_surface)
        approx = fleet.serve(requests)
        for a, e in zip(approx, exact):
            relative = abs(a.rtt_quantile_s - e.rtt_quantile_s) / e.rtt_quantile_s
            assert relative <= paper_surface.certified_rel_bound

    def test_exact_requests_bypass_the_surface_bit_identically(self, paper_surface):
        requests = [
            Request("paper-dsl", downlink_load=load, probability=0.99999, exact=True)
            for load in IN_REGION_LOADS
        ]
        reference = Fleet().serve(
            [Request("paper-dsl", downlink_load=load, probability=0.99999)
             for load in IN_REGION_LOADS]
        )
        fleet = Fleet()
        fleet.attach_surfaces(paper_surface)
        answers = fleet.serve(requests)
        assert [a.rtt_quantile_s for a in answers] == [
            r.rtt_quantile_s for r in reference
        ]
        assert fleet.stats.surface_hits == 0
        assert fleet.stats.surface_fallbacks == len(requests)
        assert fleet.stats.plans_executed > 0

    def test_out_of_region_requests_fall_back_bit_identically(self, paper_surface):
        requests = [Request("paper-dsl", downlink_load=0.75, probability=0.99999)]
        reference = Fleet().serve(requests)
        fleet = Fleet()
        fleet.attach_surfaces(paper_surface)
        answers = fleet.serve(requests)
        assert answers[0].rtt_quantile_s == reference[0].rtt_quantile_s
        assert fleet.stats.surface_fallbacks == 1
        assert fleet.stats.surface_hits == 0

    def test_uncovered_scenario_counts_a_miss(self, paper_surface):
        fleet = Fleet()
        fleet.attach_surfaces(paper_surface)
        fleet.serve([Request("ftth", downlink_load=0.40)])
        assert fleet.stats.surface_misses == 1
        assert fleet.stats.surface_hits == 0

    def test_max_bound_policy_forces_fallback(self, paper_surface):
        fleet = Fleet()
        fleet.attach_surfaces(
            paper_surface, max_bound=paper_surface.certified_rel_bound / 10.0
        )
        fleet.serve(in_region_requests()[:1])
        assert fleet.stats.surface_hits == 0
        assert fleet.stats.surface_fallbacks == 1

    def test_invalid_max_bound_is_rejected(self, paper_surface):
        with pytest.raises(ReproError):
            Fleet().attach_surfaces(paper_surface, max_bound=0.0)

    def test_lru_cache_wins_over_the_surface(self, paper_surface):
        fleet = Fleet()
        fleet.attach_surfaces(paper_surface)
        request = Request("paper-dsl", downlink_load=0.44, probability=0.99999)
        exact_request = Request(
            "paper-dsl", downlink_load=0.44, probability=0.99999, exact=True
        )
        [exact_answer] = fleet.serve([exact_request])  # populates the LRU
        hits_before = fleet.stats.surface_hits
        [warm] = fleet.serve([request])
        assert warm.rtt_quantile_s == exact_answer.rtt_quantile_s
        assert fleet.stats.cache_hits == 1
        assert fleet.stats.surface_hits == hits_before  # LRU answered first

    def test_surface_values_are_not_planted_in_the_exact_cache(self, paper_surface):
        fleet = Fleet()
        fleet.attach_surfaces(paper_surface)
        request = Request("paper-dsl", downlink_load=0.50, probability=0.99999)
        fleet.serve([request])
        assert fleet.cache_size() == 0  # the LRU holds exact values only
        fleet.serve([request])
        assert fleet.stats.surface_hits == 2
        assert fleet.stats.cache_hits == 0


class TestRequestExactFlag:
    def test_exact_defaults_to_false(self):
        assert Request("paper-dsl", downlink_load=0.4).exact is False

    def test_exact_must_be_boolean(self):
        with pytest.raises(ParameterError):
            Request("paper-dsl", downlink_load=0.4, exact=1)

    def test_dict_round_trip(self):
        request = Request("paper-dsl", downlink_load=0.4, exact=True)
        data = request.to_dict()
        assert data["exact"] is True
        assert Request.from_dict(data).exact is True
        # The flag is elided when false, keeping old request files valid.
        assert "exact" not in Request("paper-dsl", downlink_load=0.4).to_dict()

    def test_from_dict_accepts_exact(self):
        request = Request.from_dict(
            {"scenario": "paper-dsl", "load": 0.4, "exact": True}
        )
        assert request.exact is True


class TestAsyncAndCoalescer:
    def test_async_fleet_attach_passthrough(self, paper_surface):
        async_fleet = AsyncFleet()
        assert async_fleet.attach_surfaces(paper_surface) == 1
        assert async_fleet.fleet.surfaces is not None

    def test_flight_key_separates_exact_from_surface_served(self, paper_surface):
        fleet = Fleet()
        plain = fleet.resolve_request(
            Request("paper-dsl", downlink_load=0.4, probability=0.99999)
        )
        exact = fleet.resolve_request(
            Request("paper-dsl", downlink_load=0.4, probability=0.99999, exact=True)
        )
        assert plain.key == exact.key
        assert _flight_key(plain) != _flight_key(exact)
        assert _flight_key(exact)[-1] is True

    def test_coalesced_in_region_stream_executes_zero_plans(self, paper_surface):
        async def main():
            coalescer = RequestCoalescer(max_batch=8, max_delay_ms=1.0)
            coalescer.fleet.attach_surfaces(paper_surface)
            answers = await coalescer.submit_many(in_region_requests())
            await coalescer.aclose()
            return answers, coalescer.fleet.stats

        answers, stats = asyncio.run(main())
        assert len(answers) == len(IN_REGION_LOADS)
        assert stats.surface_hits == len(IN_REGION_LOADS)
        assert stats.plans_executed == 0


def run_with_daemon(test, **daemon_kwargs):
    async def main():
        daemon_kwargs.setdefault("port", 0)
        daemon_kwargs.setdefault("coalesce_ms", 1.0)
        async with ServingDaemon(**daemon_kwargs) as daemon:
            async with HttpClient(daemon.host, daemon.port) as client:
                return await test(daemon, client)

    return asyncio.run(main())


class TestDaemonSurfaces:
    def test_in_region_rtt_round_trip_executes_zero_plans(
        self, paper_surface, surface_dir
    ):
        async def scenario(daemon, client):
            answers = []
            for load in IN_REGION_LOADS:
                status, _, payload = await client.request_json(
                    "POST", "/v1/rtt", {"scenario": "paper-dsl", "load": load}
                )
                assert status == 200
                answers.append(payload)
            status, _, stats = await client.request_json("GET", "/stats")
            assert status == 200
            return daemon, answers, stats

        daemon, answers, stats = run_with_daemon(scenario, surfaces=surface_dir)
        assert daemon.surfaces_loaded == 1
        assert stats["server"]["surfaces_loaded"] == 1
        assert stats["fleet"]["surface_hits"] == len(IN_REGION_LOADS)
        assert stats["fleet"]["plans_executed"] == 0
        assert all(a["cached"] for a in answers)
        exact = Fleet().serve(in_region_requests())
        for answer, reference in zip(answers, exact):
            relative = (
                abs(answer["rtt_quantile_s"] - reference.rtt_quantile_s)
                / reference.rtt_quantile_s
            )
            assert relative <= paper_surface.certified_rel_bound

    def test_exact_request_falls_back_bit_identically(self, surface_dir):
        record = {
            "scenario": "paper-dsl", "load": 0.44, "exact": True,
        }
        [reference] = Fleet().serve(
            [Request("paper-dsl", downlink_load=0.44)]
        )

        async def scenario(daemon, client):
            status, _, payload = await client.request_json("POST", "/v1/rtt", record)
            assert status == 200
            status, _, stats = await client.request_json("GET", "/stats")
            return payload, stats

        payload, stats = run_with_daemon(scenario, surfaces=surface_dir)
        assert payload["rtt_quantile_s"] == reference.rtt_quantile_s
        assert stats["fleet"]["surface_fallbacks"] == 1
        assert stats["fleet"]["surface_hits"] == 0

    def test_stats_without_surfaces_reports_zero_loaded(self):
        async def scenario(daemon, client):
            status, _, stats = await client.request_json("GET", "/stats")
            return stats

        stats = run_with_daemon(scenario)
        assert stats["server"]["surfaces_loaded"] == 0
        assert stats["fleet"]["surface_hits"] == 0

    def test_missing_surfaces_path_fails_startup(self, tmp_path):
        daemon = ServingDaemon(port=0, surfaces=tmp_path / "nope.json")
        with pytest.raises(SurfaceFormatError):
            asyncio.run(daemon.run())


class TestCli:
    def test_surface_build_info_and_fleet_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "surfaces"
        out_dir.mkdir()
        exit_code = main(
            [
                "surface", "build",
                "--scenario", "paper-dsl",
                "--out", str(out_dir),
                "--tolerance", "1e-3",
                "--probability-lo", "0.9999",
                "--load-lo", "0.30", "--load-hi", "0.60",
                "--json",
            ]
        )
        build_payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert build_payload["surfaces_saved"] == 1
        [summary] = build_payload["surfaces"]
        assert summary["method"] == "inversion"
        assert summary["certified_rel_bound"] <= 1e-3

        exit_code = main(["surface", "info", str(out_dir), "--json"])
        info_payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert info_payload["surfaces"] == build_payload["surfaces"]

        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(
            json.dumps({"scenario": "paper-dsl", "load": 0.44}) + "\n"
        )
        exit_code = main(
            [
                "fleet",
                "--requests", str(requests_file),
                "--surfaces", str(out_dir),
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        [answer] = [json.loads(line) for line in captured.out.splitlines()]
        assert answer["cached"] is True
        stats = json.loads(captured.err)
        assert stats["surface_hits"] == 1
        assert stats["plans_executed"] == 0

    def test_surface_info_on_missing_path_is_a_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(["surface", "info", str(tmp_path / "missing.json")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_surface_build_rejects_empty_methods(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "surface", "build",
                "--scenario", "paper-dsl",
                "--out", str(tmp_path / "s.json"),
                "--methods", " , ",
            ]
        )
        assert exit_code == 2
        assert "at least one" in capsys.readouterr().err

    def test_serve_parser_accepts_surfaces(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--surfaces", "surfaces/"])
        assert args.surfaces == "surfaces/"
        args = build_parser().parse_args(["serve"])
        assert args.surfaces is None


class TestEngineSurfaces:
    def test_engine_build_surface_attaches_and_serves(self):
        engine = Engine(get_scenario("paper-dsl"))
        index = engine.build_surface(
            methods=("inversion",), **BUILD_KWARGS
        )
        assert len(index) == 1
        series = engine.sweep()
        assert series.surface is not None
        mid = series.interpolate_rtt_ms(0.45) / 1e3
        exact = get_scenario("paper-dsl").model_at_load(0.45).rtt_quantile(0.99999)
        surface = next(iter(index))
        assert abs(mid - exact) / exact <= surface.certified_rel_bound

    def test_attach_surface_rejects_foreign_scenarios(self, paper_surface):
        engine = Engine(get_scenario("ftth"))
        with pytest.raises(ParameterError):
            engine.attach_surface(paper_surface)

    def test_attach_index_filters_to_matching_scenario(self, paper_surface):
        from repro.surface import SurfaceIndex

        index = SurfaceIndex()
        index.add(paper_surface)
        assert Engine(get_scenario("paper-dsl")).attach_surface(index) == 1
        assert Engine(get_scenario("ftth")).attach_surface(index) == 0

"""Admission-control serving mode: engine, fleet, daemon, CLI.

The contract: ``Request(kind="admit", rtt_budget_ms=...)`` answers "can
this pipe keep the ping-time quantile under budget, and at what
capacity" by inverting the load->quantile relation — through an
attached certified surface when one brackets the answer (O(1), zero
evaluation plans executed), and through the exact search otherwise.  An
unmeetable budget is a *negative answer*, never an error; malformed
requests raise typed errors (no bare KeyError/ValueError escapes).
"""

import asyncio
import gc
import json

import pytest

from repro.core.rtt import ComposedRttModel
from repro.engine import Engine
from repro.errors import ParameterError, ReproError
from repro.fleet import AdmissionAnswer, Fleet, Request
from repro.scenarios import available_scenarios, get_scenario
from repro.serve import RequestCoalescer, ServingDaemon
from repro.surface import build_surface
from repro import cli
from repro.core.dimensioning import AdmissionResult

PRESET = "paper-dsl"
PROBABILITY = 0.99999


@pytest.fixture(scope="module")
def paper_surface():
    """A small certified surface bracketing the mid-load regime."""
    return build_surface(
        get_scenario(PRESET),
        "inversion",
        tolerance=1e-3,
        probability_lo=0.9999,
        probability_hi=0.999999,
        load_lo=0.30,
        load_hi=0.60,
        probe_factor=2,
        grid_ladder=((6, 4), (9, 5), (13, 7), (17, 9)),
    )


@pytest.fixture(scope="module")
def in_region_budget_ms():
    """A budget whose max-load root lies strictly inside the region."""
    engine = Engine(get_scenario(PRESET), probability=PROBABILITY)
    return 1e3 * (engine.rtt_quantile(0.30) + engine.rtt_quantile(0.60)) / 2.0


class TestRequestValidation:
    def test_admit_requires_a_budget(self):
        with pytest.raises(ParameterError, match="rtt_budget_ms"):
            Request(PRESET, kind="admit")

    def test_admit_rejects_non_positive_budget(self):
        with pytest.raises(ParameterError):
            Request(PRESET, kind="admit", rtt_budget_ms=0.0)

    def test_admit_accepts_at_most_one_proposed_point(self):
        with pytest.raises(ParameterError):
            Request(
                PRESET,
                kind="admit",
                rtt_budget_ms=50.0,
                downlink_load=0.4,
                num_gamers=10,
            )

    def test_admit_needs_no_operating_point(self):
        request = Request(PRESET, kind="admit", rtt_budget_ms=50.0)
        assert request.kind == "admit"

    def test_rtt_kind_rejects_a_budget(self):
        with pytest.raises(ParameterError):
            Request(PRESET, downlink_load=0.4, rtt_budget_ms=50.0)

    def test_unknown_kind_is_typed(self):
        with pytest.raises(ParameterError, match="kind"):
            Request(PRESET, kind="dimension")

    def test_from_dict_coerces_and_round_trips(self):
        record = {
            "scenario": PRESET,
            "kind": "admit",
            "rtt_budget_ms": "60",
            "gamers": 10,
        }
        request = Request.from_dict(record)
        assert request.rtt_budget_ms == 60.0
        encoded = request.to_dict()
        assert encoded["kind"] == "admit"
        assert encoded["rtt_budget_ms"] == 60.0
        assert Request.from_dict(encoded) == request

    def test_from_dict_rejects_unparseable_budget(self):
        with pytest.raises(ParameterError):
            Request.from_dict(
                {"scenario": PRESET, "kind": "admit", "rtt_budget_ms": "soon"}
            )

    def test_rtt_to_dict_omits_admit_fields(self):
        encoded = Request(PRESET, downlink_load=0.4).to_dict()
        assert "kind" not in encoded
        assert "rtt_budget_ms" not in encoded


class TestEngineAdmit:
    def test_admit_matches_dimension_exactly(self):
        engine = Engine(get_scenario(PRESET), probability=PROBABILITY)
        dimensioned = engine.dimension(0.060)
        admitted = engine.admit(0.060)
        assert admitted.max_load == dimensioned.max_load
        assert admitted.max_gamers == dimensioned.max_gamers
        assert admitted.rtt_at_max_load_s == dimensioned.rtt_at_max_load_s
        assert admitted.source == "exact"

    def test_unmeetable_budget_is_a_negative_answer(self):
        engine = Engine(get_scenario(PRESET), probability=PROBABILITY)
        result = engine.admit(1e-4)
        assert result.admitted is False
        assert result.max_load == 0.0
        assert result.max_gamers == 0
        assert result.rtt_at_max_load_s > 1e-4

    def test_proposed_point_decides_admission(self):
        engine = Engine(get_scenario(PRESET), probability=PROBABILITY)
        capacity = engine.admit(0.060)
        few = engine.admit(0.060, num_gamers=min(10, capacity.max_gamers))
        assert few.admitted is True
        crowded = engine.admit(0.060, load=0.97)
        assert crowded.admitted is False
        assert crowded.proposed_load == 0.97

    def test_bad_parameters_raise_typed_errors(self):
        engine = Engine(get_scenario(PRESET))
        with pytest.raises(ParameterError):
            engine.admit(-1.0)
        with pytest.raises(ParameterError):
            engine.admit(0.060, load=0.4, num_gamers=10)
        with pytest.raises(ParameterError):
            engine.admit(0.060, load=1.5)
        with pytest.raises(ParameterError):
            engine.admit(0.060, num_gamers=-1)

    def test_result_serialization(self):
        result = AdmissionResult(
            rtt_budget_s=0.05,
            probability=PROBABILITY,
            admitted=True,
            max_load=0.4,
            max_gamers=100,
            rtt_at_max_load_s=0.049,
        )
        assert result.rtt_budget_ms == pytest.approx(50.0)
        assert result.rtt_at_max_load_ms == pytest.approx(49.0)
        encoded = result.to_dict()
        assert encoded["admitted"] is True
        assert encoded["source"] == "exact"
        assert "proposed_load" not in encoded


class TestExactCapacityAllPresets:
    """Exact admit/dimension answer on every registry preset.

    cable, lte and unreal-tournament used to raise "fewer than one
    gamer" (the one-gamer floor load mapped back to 0.9999999999999999
    gamers); ftth, cloud-gaming and satellite-leo raised a bare
    ZeroDivisionError (every D/E_K/1 root underflows to 0 at the 1e-4
    floor load).
    """

    @pytest.mark.parametrize("preset", available_scenarios())
    def test_admit_and_dimension_answer(self, preset):
        engine = Engine(get_scenario(preset), probability=PROBABILITY)
        for budget in (0.030, 0.060, 0.100):
            admitted = engine.admit(budget, exact=True)
            if admitted.max_load == 0.0:
                assert admitted.admitted is False
                with pytest.raises(ParameterError, match="cannot be met"):
                    engine.dimension(budget)
                continue
            dimensioned = engine.dimension(budget)
            assert admitted.max_load == dimensioned.max_load
            assert admitted.rtt_at_max_load_s == dimensioned.rtt_at_max_load_s
            assert admitted.max_gamers >= 1

    def test_one_gamer_beyond_half_the_ceiling_is_a_typed_error(self):
        # One gamer loads this 30 kbit/s pipe to ~0.56: the floor is
        # capped at half the ceiling, which holds fewer than one gamer.
        engine = Engine(get_scenario(PRESET).derive(aggregation_rate_bps=30_000.0))
        with pytest.raises(ParameterError, match="fewer than one gamer"):
            engine.dimension(0.5)


class TestFleetAdmit:
    def test_fleet_admit_counts_and_answers(self):
        fleet = Fleet(probability=PROBABILITY)
        answer = fleet.admit(
            Request(PRESET, kind="admit", rtt_budget_ms=60.0, num_gamers=10)
        )
        assert isinstance(answer, AdmissionAnswer)
        assert answer.admitted is True
        assert answer.source == "exact"
        assert fleet.stats.admits == 1
        assert fleet.stats.admit_exact == 1
        encoded = answer.to_dict()
        assert encoded["kind"] == "admit"
        assert encoded["scenario_key"] == answer.scenario_key

    def test_mixed_batch_keeps_request_order(self):
        fleet = Fleet(probability=PROBABILITY)
        answers = fleet.serve(
            [
                Request(PRESET, downlink_load=0.4),
                Request(PRESET, kind="admit", rtt_budget_ms=60.0),
                Request(PRESET, downlink_load=0.5),
            ]
        )
        assert [type(a).__name__ for a in answers] == [
            "Answer",
            "AdmissionAnswer",
            "Answer",
        ]

    def test_batched_exact_admits_share_probe_rounds(self):
        budgets = (40.0, 60.0, 80.0)
        requests = [
            Request(PRESET, kind="admit", rtt_budget_ms=budget, exact=True)
            for budget in budgets
        ]
        fleet = Fleet(probability=PROBABILITY)
        answers = fleet.serve(requests)
        single = Fleet(probability=PROBABILITY)
        expected = [single.admit(request) for request in requests]
        assert [a.result for a in answers] == [e.result for e in expected]
        # One serve batch per round of the three searches, not per probe.
        assert fleet.stats.batches < single.stats.batches

    def test_dict_requests_default_probability_and_method(self):
        fleet = Fleet(probability=PROBABILITY)
        answer = fleet.admit(
            {"scenario": PRESET, "kind": "admit", "rtt_budget_ms": 60.0}
        )
        assert answer.probability == PROBABILITY
        assert answer.method == "inversion"

    def test_unknown_scenario_is_a_typed_error(self):
        fleet = Fleet()
        with pytest.raises(ParameterError, match="unknown scenario"):
            fleet.admit({"scenario": "nope", "kind": "admit", "rtt_budget_ms": 50.0})

    def test_bad_admit_poisons_nothing(self):
        # An invalid admit in a batch raises before any request is
        # served (the all-or-nothing contract _plan_batch already has).
        fleet = Fleet(probability=PROBABILITY)
        with pytest.raises(ParameterError):
            fleet.serve(
                [
                    Request(PRESET, downlink_load=0.4),
                    {"scenario": "nope", "kind": "admit", "rtt_budget_ms": 50.0},
                ]
            )
        assert fleet.stats.requests == 0


class TestSurfaceAdmit:
    def test_in_region_admit_executes_zero_plans(
        self, paper_surface, in_region_budget_ms
    ):
        fleet = Fleet(probability=PROBABILITY)
        fleet.attach_surfaces(paper_surface)
        plans_before = fleet.stats.plans_executed
        answer = fleet.admit(
            Request(PRESET, kind="admit", rtt_budget_ms=in_region_budget_ms)
        )
        assert answer.source == "surface"
        assert fleet.stats.plans_executed == plans_before
        assert fleet.stats.admit_surface == 1

    def test_surface_and_exact_agree_within_certified_bound(
        self, paper_surface, in_region_budget_ms
    ):
        fleet = Fleet(probability=PROBABILITY)
        fleet.attach_surfaces(paper_surface)
        request = dict(
            scenario=PRESET, kind="admit", rtt_budget_ms=in_region_budget_ms
        )
        fast = fleet.admit(Request(**{**request, "scenario": PRESET}))
        exact = fleet.admit(Request(PRESET, kind="admit",
                                    rtt_budget_ms=in_region_budget_ms, exact=True))
        assert fast.source == "surface" and exact.source == "exact"
        assert fast.max_load == pytest.approx(exact.max_load, rel=5e-3)
        assert fleet.stats.admit_surface == 1
        assert fleet.stats.admit_exact == 1

    def test_out_of_region_budget_falls_back_to_exact(self, paper_surface):
        engine = Engine(get_scenario(PRESET), probability=PROBABILITY)
        below_region = 1e3 * engine.rtt_quantile(0.30) * 0.5
        fleet = Fleet(probability=PROBABILITY)
        fleet.attach_surfaces(paper_surface)
        answer = fleet.admit(
            Request(PRESET, kind="admit", rtt_budget_ms=below_region)
        )
        assert answer.source == "exact"

    def test_tightened_max_bound_applies_to_admits(
        self, paper_surface, in_region_budget_ms
    ):
        fleet = Fleet(probability=PROBABILITY)
        fleet.attach_surfaces(paper_surface)
        request = Request(PRESET, kind="admit", rtt_budget_ms=in_region_budget_ms)
        assert fleet.admit(request).source == "surface"
        fleet.attach_surfaces([], max_bound=paper_surface.certified_rel_bound / 10.0)
        fleet.serve([Request(PRESET, downlink_load=0.45)])
        assert fleet.stats.surface_fallbacks == 1
        assert fleet.admit(request).source == "exact"
        engine = fleet.engine(PRESET)
        assert engine.admit(in_region_budget_ms / 1e3).source == "exact"

    def test_engine_dimension_routes_through_the_surface(
        self, paper_surface, in_region_budget_ms
    ):
        scenario = get_scenario(PRESET)
        exact = Engine(scenario, probability=PROBABILITY).dimension(
            in_region_budget_ms / 1e3
        )
        engine = Engine(scenario, probability=PROBABILITY)
        engine.attach_surface(paper_surface)
        surfaced = engine.dimension(in_region_budget_ms / 1e3)
        # The surface answered: no quantile was evaluated on the stack.
        stats = engine.fleet.stats
        assert stats.evaluations == 0
        # The dimension counts as one surface admit; no probe was served.
        assert stats.requests == stats.admits == stats.admit_surface == 1
        assert surfaced.max_load == pytest.approx(exact.max_load, rel=5e-3)
        assert surfaced.max_gamers in (exact.max_gamers - 1, exact.max_gamers)


def _live_models() -> int:
    gc.collect()
    return sum(isinstance(item, ComposedRttModel) for item in gc.get_objects())


class TestExactAdmitStorm:
    def test_exact_admits_are_counted_and_bounded(self):
        before = _live_models()
        fleet = Fleet(max_cache_entries=16, probability=PROBABILITY)
        presets = ("paper-dsl", "ftth", "cable", "lte")
        for index in range(80):
            answer = fleet.admit(
                Request(
                    presets[index % 4],
                    kind="admit",
                    rtt_budget_ms=30.0 + index,
                    exact=True,
                )
            )
            assert answer.source == "exact"
        stats = fleet.stats
        assert stats.admits == stats.admit_exact == 80
        assert stats.evaluations > 80
        assert stats.plans_executed > 80
        # Every probe is a request: the admits plus their probes.
        assert stats.requests == 80 + stats.cache_hits + stats.cache_misses
        assert fleet.cache_size() <= 16
        assert _live_models() <= before


class TestCoalescerAdmit:
    def test_identical_admits_are_single_flighted(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(probability=PROBABILITY))
            record = {
                "scenario": PRESET,
                "kind": "admit",
                "rtt_budget_ms": 60.0,
                "gamers": 10,
            }
            answers = await asyncio.gather(
                *(coalescer.submit(dict(record)) for _ in range(4))
            )
            stats = coalescer.stats
            await coalescer.aclose()
            return answers, stats

        answers, stats = asyncio.run(main())
        assert all(a.admitted for a in answers)
        assert stats.admits == 1
        assert stats.deduped_inflight == 3

    def test_distinct_admit_tuples_do_not_share_a_flight(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(probability=PROBABILITY))
            answers = await asyncio.gather(
                coalescer.submit(
                    {"scenario": PRESET, "kind": "admit", "rtt_budget_ms": 60.0}
                ),
                coalescer.submit(
                    {"scenario": PRESET, "kind": "admit", "rtt_budget_ms": 80.0}
                ),
            )
            stats = coalescer.stats
            await coalescer.aclose()
            return answers, stats

        answers, stats = asyncio.run(main())
        assert stats.admits == 2
        assert stats.deduped_inflight == 0
        assert answers[0].max_load < answers[1].max_load

    def test_bad_admit_raises_in_its_caller_only(self):
        async def main():
            coalescer = RequestCoalescer(Fleet())
            with pytest.raises(ParameterError):
                await coalescer.submit(
                    {"scenario": "nope", "kind": "admit", "rtt_budget_ms": 50.0}
                )
            good = await coalescer.submit(
                {"scenario": PRESET, "kind": "admit", "rtt_budget_ms": 60.0}
            )
            await coalescer.aclose()
            return good

        assert asyncio.run(main()).max_gamers > 0

    def test_fleet_state_is_written_on_the_loop_only(
        self, paper_surface, in_region_budget_ms
    ):
        requests = [
            Request(PRESET, downlink_load=0.7),  # LRU hit (out of region)
            Request(PRESET, downlink_load=0.45),  # surface hit
            Request("ftth", downlink_load=0.41),  # cold exact
            Request(PRESET, kind="admit", rtt_budget_ms=in_region_budget_ms),
            Request("ftth", kind="admit", rtt_budget_ms=60.0, exact=True),
            Request(PRESET, kind="admit", rtt_budget_ms=45.0, exact=True),
        ]

        async def main():
            fleet = Fleet(probability=PROBABILITY)
            fleet.attach_surfaces(paper_surface)
            fleet.serve([Request(PRESET, downlink_load=0.7)])
            loop = asyncio.get_running_loop()
            hopped = []
            original = loop.run_in_executor

            def spy(executor, func, *args):
                hopped.append(func)
                return original(executor, func, *args)

            loop.run_in_executor = spy
            coalescer = RequestCoalescer(fleet, max_delay_ms=1.0)
            answers = await coalescer.submit_many(requests)
            await coalescer.aclose()
            return fleet, hopped, answers

        fleet, hopped, answers = asyncio.run(main())
        assert answers[0].cached and answers[1].cached and not answers[2].cached
        assert [a.source for a in answers[3:]] == ["surface", "exact", "exact"]
        assert fleet.stats.surface_hits == 1
        assert fleet.stats.cache_hits >= 1
        fleet_methods = {
            func.__name__ for func in hopped if getattr(func, "__self__", None) is fleet
        }
        assert fleet_methods == {"_execute_plans"}

    def test_aclose_waits_for_an_exact_admit_in_flight(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(probability=PROBABILITY))
            admit = asyncio.ensure_future(
                coalescer.submit(
                    Request(PRESET, kind="admit", rtt_budget_ms=60.0, exact=True)
                )
            )
            await asyncio.sleep(0.005)  # the search is between probes
            await coalescer.aclose()
            return admit.done(), await admit

        done, answer = asyncio.run(main())
        assert done
        assert answer.source == "exact" and answer.admitted

    def test_concurrent_exact_admits_share_windows(self):
        budgets = [40.0 + 5.0 * index for index in range(8)]

        async def main():
            fleet = Fleet(probability=PROBABILITY)
            coalescer = RequestCoalescer(fleet, max_delay_ms=2.0)
            answers = await coalescer.submit_many(
                [
                    Request(PRESET, kind="admit", rtt_budget_ms=budget, exact=True)
                    for budget in budgets
                ]
            )
            await coalescer.aclose()
            return fleet.stats, answers

        stats, answers = asyncio.run(main())
        probes = stats.coalesced_requests + stats.deduped_inflight
        assert stats.admits == stats.admit_exact == len(budgets)
        assert stats.plans_executed > 0
        assert 0 < stats.coalesced_batches < probes
        reference = Fleet(probability=PROBABILITY)
        for budget, answer in zip(budgets, answers):
            expected = reference.admit(
                Request(PRESET, kind="admit", rtt_budget_ms=budget, exact=True)
            )
            assert answer.result == expected.result


async def _post(reader, writer, path, record):
    body = json.dumps(record).encode()
    writer.write(
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    status_line = (await reader.readline()).decode().strip()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = json.loads(await reader.readexactly(int(headers["content-length"])))
    return int(status_line.split()[1]), payload


class TestDaemonAdmit:
    def test_admit_endpoint_round_trip_and_error_taxonomy(self):
        async def main():
            async with ServingDaemon(port=0, probability=PROBABILITY) as daemon:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                ok = await _post(
                    reader,
                    writer,
                    "/v1/admit",
                    {"scenario": PRESET, "rtt_budget_ms": 60.0, "gamers": 10},
                )
                bad = await _post(
                    reader,
                    writer,
                    "/v1/admit",
                    {"scenario": "nope", "rtt_budget_ms": 60.0},
                )
                served = daemon.admits_served
                writer.close()
                return ok, bad, served

        (ok_status, ok_payload), (bad_status, bad_payload), served = asyncio.run(
            main()
        )
        assert ok_status == 200
        assert ok_payload["kind"] == "admit"
        assert ok_payload["admitted"] is True
        assert ok_payload["source"] == "exact"
        assert bad_status == 400
        assert bad_payload["type"] == "ParameterError"
        assert served == 1

    def test_admit_records_may_ride_the_generic_rtt_endpoint(self):
        # kind="admit" is a first-class request: the generic endpoint
        # accepts it too, when spelled explicitly.
        async def main():
            async with ServingDaemon(port=0, probability=PROBABILITY) as daemon:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                status, payload = await _post(
                    reader,
                    writer,
                    "/v1/rtt",
                    {"scenario": PRESET, "kind": "admit", "rtt_budget_ms": 60.0},
                )
                writer.close()
                return status, payload

        status, payload = asyncio.run(main())
        assert status == 200
        assert payload["kind"] == "admit"


class TestCliAdmit:
    def test_admit_subcommand_text_output(self, capsys):
        code = cli.main(
            [
                "admit",
                "--rtt-budget-ms",
                "60",
                "--scenario",
                PRESET,
                "--gamers",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "admitted" in out and "yes" in out

    def test_admit_subcommand_json_output(self, capsys):
        code = cli.main(
            ["admit", "--rtt-budget-ms", "60", "--scenario", PRESET, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["kind"] == "admit"
        assert payload["result"]["admitted"] is True

    def test_admit_rejects_conflicting_proposals(self, capsys):
        code = cli.main(
            [
                "admit",
                "--rtt-budget-ms",
                "60",
                "--scenario",
                PRESET,
                "--load",
                "0.4",
                "--gamers",
                "10",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_admit_unknown_scenario_exits_2(self, capsys):
        code = cli.main(["admit", "--rtt-budget-ms", "60", "--scenario", "nope"])
        assert code == 2
        assert "error" in capsys.readouterr().err

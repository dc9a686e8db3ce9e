"""Tests for the coalescer's inline hit tier and its accounting.

A request the warm tiers can answer (an answer-cache hit, or a
certified-surface hit for a request not marked ``exact``) is answered at
submission without a window; everything else is windowed and
single-flighted.  Every submission must be counted exactly once, and
every float must match the serial fleet (or the surface's own lookup).
"""

import asyncio
import random

import pytest

from repro.fleet import Fleet, Request
from repro.scenarios import get_scenario
from repro.serve import RequestCoalescer
from repro.surface import build_surface

from test_serve_coalescer import _SlowExecutor
from test_surface_serving import BUILD_KWARGS, IN_REGION_LOADS

PROBABILITY = 0.99999

#: Unsurfaced points warmed into the answer cache before each test.
WARM = [Request("ftth", downlink_load=load) for load in (0.30, 0.40, 0.50)]


@pytest.fixture(scope="module")
def paper_surface():
    return build_surface(get_scenario("paper-dsl"), "inversion", **BUILD_KWARGS)


def _fleet(surface, **kwargs):
    fleet = Fleet(**kwargs)
    fleet.attach_surfaces(surface)
    fleet.serve(WARM)
    return fleet


def _in_region(load, **kwargs):
    return Request("paper-dsl", downlink_load=load, probability=PROBABILITY, **kwargs)


def _delta(after, before):
    return {key: after[key] - before[key] for key in ("requests", "batches",
            "cache_hits", "surface_hits", "surface_fallbacks", "cache_misses",
            "inline_hits", "coalesced_batches", "coalesced_requests",
            "deduped_inflight", "admits", "plans_executed", "evaluations")}


def _run(coalescer, requests):
    async def main():
        answers = await coalescer.submit_many(requests)
        await coalescer.aclose()
        return answers

    before = coalescer.stats.as_dict()
    answers = asyncio.run(main())
    return answers, _delta(coalescer.stats.as_dict(), before)


class TestInlineHits:
    def test_an_all_hit_stream_opens_no_window(self, paper_surface):
        fleet = _fleet(paper_surface)
        requests = WARM + [_in_region(load) for load in IN_REGION_LOADS]
        answers, delta = _run(RequestCoalescer(fleet, max_delay_ms=60_000), requests)
        assert all(answer.cached for answer in answers)
        assert delta["inline_hits"] == len(requests)
        assert delta["cache_hits"] == len(WARM)
        assert delta["surface_hits"] == len(IN_REGION_LOADS)
        assert delta["coalesced_batches"] == delta["coalesced_requests"] == 0
        assert delta["batches"] == delta["plans_executed"] == 0
        assert [a.rtt_quantile_s for a in answers[len(WARM):]] == [
            paper_surface.lookup(load, PROBABILITY) for load in IN_REGION_LOADS
        ]

    def test_exact_in_region_request_is_windowed_bit_identically(self, paper_surface):
        fleet = _fleet(paper_surface)
        [reference] = Fleet().serve([_in_region(0.44)])
        [answer], delta = _run(RequestCoalescer(fleet), [_in_region(0.44, exact=True)])
        assert answer.rtt_quantile_s == reference.rtt_quantile_s
        assert answer.cached is False
        assert delta["inline_hits"] == 0
        assert delta["coalesced_batches"] == delta["coalesced_requests"] == 1
        assert delta["surface_fallbacks"] == 1
        assert delta["surface_hits"] == 0

    def test_exact_request_hitting_the_cache_is_answered_inline(self, paper_surface):
        fleet = _fleet(paper_surface)
        [reference] = fleet.serve([_in_region(0.44, exact=True)])
        [answer], delta = _run(RequestCoalescer(fleet), [_in_region(0.44, exact=True)])
        assert answer.rtt_quantile_s == reference.rtt_quantile_s
        assert answer.rtt_quantile_s != paper_surface.lookup(0.44, PROBABILITY)
        assert answer.cached is True
        assert delta["inline_hits"] == delta["cache_hits"] == 1
        assert delta["coalesced_batches"] == delta["surface_fallbacks"] == 0

    def test_an_evicted_key_recomputes_through_a_window(self, paper_surface):
        fleet = _fleet(paper_surface, max_cache_entries=1)
        first, second = (Request("cable", downlink_load=load) for load in (0.3, 0.5))
        reference = Fleet().serve([first])[0].rtt_quantile_s
        coalescer = RequestCoalescer(fleet, max_delay_ms=0.0)

        async def main():
            # One at a time: each submission evicts the previous answer.
            return [await coalescer.submit(r) for r in (first, second, first)]

        before = fleet.stats.as_dict()
        answers = asyncio.run(main())
        delta = _delta(fleet.stats.as_dict(), before)
        assert answers[2].cached is False
        assert answers[2].rtt_quantile_s == answers[0].rtt_quantile_s == reference
        assert delta["inline_hits"] == 0
        assert delta["coalesced_batches"] == delta["evaluations"] == 3
        assert fleet.cached_keys() == [fleet.resolve_request(first).key]

    def test_a_miss_already_in_flight_single_flights(self, paper_surface):
        fleet = _fleet(paper_surface)
        coalescer = RequestCoalescer(
            fleet, max_batch=1, max_delay_ms=60_000, executor=_SlowExecutor()
        )
        out_of_region = _in_region(0.75)

        async def main():
            first = asyncio.ensure_future(coalescer.submit(out_of_region))
            await asyncio.sleep(0)  # window 1 flushed; its evaluation is in flight
            duplicate = asyncio.ensure_future(coalescer.submit(out_of_region))
            answers = await asyncio.gather(first, duplicate)
            await coalescer.aclose()
            return answers

        before = fleet.stats.as_dict()
        first, duplicate = asyncio.run(main())
        delta = _delta(fleet.stats.as_dict(), before)
        assert duplicate.rtt_quantile_s == first.rtt_quantile_s
        assert duplicate.cached is True
        assert delta["deduped_inflight"] == 1
        assert delta["inline_hits"] == 0
        assert delta["coalesced_requests"] == delta["evaluations"] == 1


class TestAccounting:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixed_concurrent_traffic_is_counted_once(self, paper_surface, seed):
        rng = random.Random(seed)
        cold = [Request("cable", downlink_load=0.20 + 0.05 * i) for i in range(6)]
        kinds = {
            "lru": lambda: rng.choice(WARM),
            "surface": lambda: _in_region(round(rng.uniform(0.31, 0.59), 3)),
            "out-of-region": lambda: _in_region(rng.choice((0.20, 0.70))),
            "exact": lambda: _in_region(rng.choice(IN_REGION_LOADS), exact=True),
            "cold": lambda: rng.choice(cold),
            "surface-admit": lambda: Request(
                "paper-dsl", kind="admit", rtt_budget_ms=rng.choice((60.0, 80.0))
            ),
            "exact-admit": lambda: Request(
                "paper-dsl", kind="admit", rtt_budget_ms=rng.choice((45.0, 60.0)),
                exact=True,
            ),
        }
        weights = {"lru": 8, "surface": 6, "out-of-region": 3, "exact": 3,
                   "cold": 6, "surface-admit": 2, "exact-admit": 1}
        names = rng.choices(list(weights), weights=list(weights.values()), k=80)
        requests = [kinds[name]() for name in names]
        assert {"lru", "surface", "exact-admit", "cold"} <= set(names)

        fleet = _fleet(paper_surface, max_cache_entries=64)
        coalescer = RequestCoalescer(
            fleet, max_batch=4, max_delay_ms=1.0, executor=_SlowExecutor(0.005)
        )
        submit_rtt = coalescer._submit_rtt
        rtt_submissions = []

        async def counted(request):
            rtt_submissions.append(request)
            return await submit_rtt(request)

        coalescer._submit_rtt = counted

        async def main():
            async def one(request):
                await asyncio.sleep(rng.uniform(0.0, 0.02))
                return await coalescer.submit(request)

            answers = await asyncio.gather(*(one(r) for r in requests))
            await coalescer.aclose()
            return answers

        before = fleet.stats.as_dict()
        answers = asyncio.run(main())
        delta = _delta(fleet.stats.as_dict(), before)
        stats = fleet.stats

        assert stats.requests == (
            stats.cache_hits + stats.surface_hits + stats.cache_misses + stats.admits
        )
        admit_submissions = sum(1 for r in requests if r.kind == "admit")
        assert (
            delta["inline_hits"] + delta["coalesced_requests"]
            + delta["deduped_inflight"] + delta["admits"]
        ) == len(rtt_submissions) + admit_submissions
        assert delta["requests"] == (
            delta["inline_hits"] + delta["coalesced_requests"] + delta["admits"]
        )
        assert all(
            delta[key] > 0
            for key in ("inline_hits", "coalesced_requests", "deduped_inflight", "admits")
        )

        rtt = [(r, a) for r, a in zip(requests, answers) if r.kind == "rtt"]
        exact = Fleet().serve([r for r, _ in rtt])
        for (request, answer), reference in zip(rtt, exact):
            allowed = [reference.rtt_quantile_s]
            point = (answer.downlink_load, answer.probability)
            if request.scenario == "paper-dsl" and not request.exact and (
                paper_surface.covers(*point)
            ):
                allowed.append(paper_surface.lookup(*point))
            assert answer.rtt_quantile_s in allowed
        admit_reference = Fleet()
        admit_reference.attach_surfaces(paper_surface)
        for request, answer in zip(requests, answers):
            if request.kind == "admit":
                assert answer == admit_reference.admit(request)

"""Tests for the request coalescer: windows, dedup, fault recovery."""

import asyncio

import pytest

from repro.errors import ExecutorBrokenError, ReproError
from repro.executors import SerialExecutor
from repro.fleet import AsyncFleet, Fleet, Request
from repro.serve import RequestCoalescer

REQUESTS = [
    Request("ftth", downlink_load=0.40, tag="a"),
    Request("paper-dsl", downlink_load=0.30, tag="b"),
    Request("lte", num_gamers=900, tag="c"),
]


class _SlowExecutor(SerialExecutor):
    """Serial executor that parks each execution on the loop first."""

    def __init__(self, delay_s=0.02):
        self.delay_s = delay_s
        self.runs = 0

    async def run_async(self, plans):
        self.runs += 1
        await asyncio.sleep(self.delay_s)
        return await super().run_async(plans)


class _GatedExecutor(SerialExecutor):
    """Serial executor whose first execution waits for ``gate`` to be set."""

    def __init__(self, gate):
        self.gate = gate
        self.runs = 0

    async def run_async(self, plans):
        self.runs += 1
        if self.runs == 1:
            await self.gate.wait()
        return await super().run_async(plans)


async def _until(condition, timeout_s=10.0):
    """Yield to the loop until ``condition()`` holds."""

    async def poll():
        while not condition():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout_s)


class _BreakOnceExecutor(SerialExecutor):
    """Raises ExecutorBrokenError on the first execution, then recovers."""

    def __init__(self):
        self.runs = 0

    async def run_async(self, plans):
        self.runs += 1
        if self.runs == 1:
            raise ExecutorBrokenError("worker killed under the batch")
        return await super().run_async(plans)


class TestConstruction:
    def test_rejects_fleet_plus_fleet_kwargs(self):
        with pytest.raises(ReproError, match="not both"):
            RequestCoalescer(Fleet(), max_cache_entries=10)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ReproError, match="max_batch"):
            RequestCoalescer(max_batch=0)
        with pytest.raises(ReproError, match="max_delay_ms"):
            RequestCoalescer(max_delay_ms=-1.0)

    def test_wraps_a_plain_fleet(self):
        fleet = Fleet()
        coalescer = RequestCoalescer(fleet)
        assert coalescer.fleet is fleet
        assert isinstance(coalescer.async_fleet, AsyncFleet)

    def test_builds_its_own_fleet_from_kwargs(self):
        coalescer = RequestCoalescer(max_cache_entries=7)
        assert coalescer.fleet.max_cache_entries == 7


class TestWindowing:
    def test_flush_on_size(self):
        async def main():
            fleet = Fleet()
            # The delay is effectively infinite: only size can flush.
            coalescer = RequestCoalescer(fleet, max_batch=3, max_delay_ms=60_000)
            answers = await asyncio.gather(*(coalescer.submit(r) for r in REQUESTS))
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["a", "b", "c"]
        assert fleet.stats.coalesced_batches == 1
        assert fleet.stats.coalesced_requests == 3
        assert fleet.stats.batches == 1

    def test_flush_at_end_of_turn(self):
        async def main():
            fleet = Fleet()
            # The window never fills and the delay is effectively
            # infinite: with nothing executing, it flushes at the end of
            # the turn both requests were submitted in.
            coalescer = RequestCoalescer(fleet, max_batch=100, max_delay_ms=60_000)
            answers = await asyncio.gather(
                *(coalescer.submit(r) for r in REQUESTS[:2])
            )
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["a", "b"]
        assert fleet.stats.coalesced_batches == 1
        assert fleet.stats.coalesced_requests == 2

    def test_oversized_burst_splits_into_full_windows(self):
        async def main():
            fleet = Fleet()
            # Two windows flush on size; the rump is held behind them
            # and flushes when the first one finishes.
            coalescer = RequestCoalescer(fleet, max_batch=2, max_delay_ms=5.0)
            requests = [
                Request("ftth", downlink_load=round(0.30 + 0.01 * i, 3), tag=str(i))
                for i in range(5)
            ]
            answers = await coalescer.submit_many(requests)
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["0", "1", "2", "3", "4"]
        # 5 requests at max_batch=2: two full windows plus the held rump.
        assert fleet.stats.coalesced_batches == 3
        assert fleet.stats.coalesced_requests == 5

    def test_lone_idle_miss_does_not_wait_for_the_delay(self):
        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(fleet, max_batch=100, max_delay_ms=60_000)
            answer = await asyncio.wait_for(coalescer.submit(REQUESTS[0]), 10.0)
            return fleet, answer

        fleet, answer = asyncio.run(main())
        assert answer.tag == "a"
        assert fleet.stats.coalesced_batches == 1
        assert fleet.stats.coalesced_requests == 1

    def test_misses_held_behind_an_executing_window_share_one_window(self):
        async def main():
            fleet = Fleet()
            executor = _GatedExecutor(asyncio.Event())
            coalescer = RequestCoalescer(
                fleet, max_batch=100, max_delay_ms=60_000, executor=executor
            )
            first = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            await _until(lambda: coalescer.inflight_windows == 1)
            held = []
            for request in REQUESTS[1:]:
                held.append(asyncio.ensure_future(coalescer.submit(request)))
                await asyncio.sleep(0.002)  # one arrival per loop turn
            assert coalescer.pending == 2
            assert coalescer.inflight_windows == 1
            executor.gate.set()
            answers = await asyncio.wait_for(asyncio.gather(first, *held), 10.0)
            return fleet, executor, answers

        fleet, executor, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["a", "b", "c"]
        # Window 1 carried the first miss; the two that arrived while it
        # executed flushed together when it finished.
        assert executor.runs == 2
        assert fleet.stats.coalesced_batches == 2
        assert fleet.stats.coalesced_requests == 3

    def test_held_window_flushes_at_max_delay(self):
        async def main():
            loop = asyncio.get_running_loop()
            fleet = Fleet()
            executor = _GatedExecutor(asyncio.Event())
            coalescer = RequestCoalescer(
                fleet, max_batch=100, max_delay_ms=20.0, executor=executor
            )
            first = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            await _until(lambda: coalescer.inflight_windows == 1)
            start = loop.time()
            held = asyncio.ensure_future(coalescer.submit(REQUESTS[1]))
            await asyncio.sleep(0)
            assert coalescer.pending == 1  # held, not flushed this turn
            answer = await asyncio.wait_for(held, 10.0)
            waited_s = loop.time() - start
            # Window 1 is still executing: only the delay bound flushed.
            assert not first.done()
            executor.gate.set()
            await first
            return fleet, executor, answer, waited_s

        fleet, executor, answer, waited_s = asyncio.run(main())
        assert answer.tag == "b"
        assert waited_s >= 0.015
        assert executor.runs == 2
        assert fleet.stats.coalesced_batches == 2

    def test_answers_bit_identical_to_fleet_serve(self):
        reference = Fleet().serve(REQUESTS)

        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=3, max_delay_ms=60_000)
            return await coalescer.submit_many(REQUESTS)

        answers = asyncio.run(main())
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]


class TestSingleFlight:
    def test_duplicate_of_inflight_miss_attaches(self):
        async def main():
            fleet = Fleet()
            executor = _SlowExecutor()
            coalescer = RequestCoalescer(
                fleet, max_batch=1, max_delay_ms=60_000, executor=executor
            )
            first = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            await asyncio.sleep(0)  # flush window 1; its evaluation is in flight
            duplicate = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            answers = await asyncio.gather(first, duplicate)
            return fleet, executor, answers

        fleet, executor, (first, duplicate) = asyncio.run(main())
        assert executor.runs == 1
        assert fleet.stats.evaluations == 1
        assert fleet.stats.deduped_inflight == 1
        assert fleet.stats.coalesced_requests == 1  # the rider is not re-batched
        assert duplicate.cached is True
        assert duplicate.rtt_quantile_s == first.rtt_quantile_s
        assert duplicate.tag == first.tag

    def test_distinct_points_are_not_deduped(self):
        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(
                fleet, max_batch=1, max_delay_ms=60_000, executor=_SlowExecutor()
            )
            answers = await asyncio.gather(
                *(coalescer.submit(r) for r in REQUESTS)
            )
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert fleet.stats.deduped_inflight == 0
        assert fleet.stats.coalesced_requests == 3

    def test_inflight_error_reaches_the_attached_caller(self):
        class _FailingExecutor(_SlowExecutor):
            async def run_async(self, plans):
                await asyncio.sleep(self.delay_s)
                raise ValueError("boom")

        async def main():
            coalescer = RequestCoalescer(
                Fleet(), max_batch=1, max_delay_ms=60_000,
                executor=_FailingExecutor(),
            )
            first = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            await asyncio.sleep(0)
            duplicate = asyncio.ensure_future(coalescer.submit(REQUESTS[0]))
            return await asyncio.gather(first, duplicate, return_exceptions=True)

        results = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)

    def test_key_is_released_after_the_window(self):
        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(fleet, max_batch=1, max_delay_ms=60_000)
            await coalescer.submit(REQUESTS[0])
            await coalescer.drain()
            # The point is now a plain cache hit, not an in-flight rider.
            answer = await coalescer.submit(REQUESTS[0])
            return fleet, answer

        fleet, answer = asyncio.run(main())
        assert fleet.stats.deduped_inflight == 0
        assert answer.cached is True
        assert fleet.stats.cache_hits == 1


class TestErrorRouting:
    def test_bad_request_raises_at_submit(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=2, max_delay_ms=5.0)
            return await asyncio.gather(
                coalescer.submit(REQUESTS[0]),
                coalescer.submit({"scenario": "ftth", "load": 1.5}),
                return_exceptions=True,
            )

        good, bad = asyncio.run(main())
        # The malformed request never entered the window; its neighbour
        # was answered normally.
        assert isinstance(bad, ReproError)
        assert good.tag == "a"
        assert good.rtt_quantile_s > 0.0

    def test_unknown_scenario_raises_at_submit(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=1)
            await coalescer.submit({"scenario": "no-such-preset", "load": 0.4})

        with pytest.raises(ReproError, match="no-such-preset"):
            asyncio.run(main())

    def test_submit_after_aclose_raises(self):
        async def main():
            coalescer = RequestCoalescer(Fleet(), max_batch=4)
            await coalescer.aclose()
            await coalescer.aclose()  # idempotent
            await coalescer.submit(REQUESTS[0])

        with pytest.raises(ReproError, match="closed"):
            asyncio.run(main())


class TestFaultRecovery:
    def test_broken_executor_window_is_retried_once(self):
        reference = Fleet().serve(REQUESTS)

        async def main():
            fleet = Fleet()
            executor = _BreakOnceExecutor()
            coalescer = RequestCoalescer(
                fleet, max_batch=3, max_delay_ms=60_000, executor=executor
            )
            answers = await coalescer.submit_many(REQUESTS)
            return executor, answers

        executor, answers = asyncio.run(main())
        assert executor.runs == 2
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]

    def test_persistently_broken_executor_surfaces_the_error(self):
        class _AlwaysBroken(SerialExecutor):
            async def run_async(self, plans):
                raise ExecutorBrokenError("pool keeps dying")

        async def main():
            coalescer = RequestCoalescer(
                Fleet(), max_batch=1, executor=_AlwaysBroken()
            )
            await coalescer.submit(REQUESTS[0])

        with pytest.raises(ExecutorBrokenError, match="keeps dying"):
            asyncio.run(main())

    def test_executor_failures_are_counted_per_host(self, capsys):
        class _BreakOnceWithHost(SerialExecutor):
            def __init__(self):
                self.runs = 0

            async def run_async(self, plans):
                self.runs += 1
                if self.runs == 1:
                    raise ExecutorBrokenError(
                        "worker daemon unreachable",
                        host="10.0.0.7:9101",
                        plan_count=len(plans),
                    )
                return await super().run_async(plans)

        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(
                fleet, max_batch=3, max_delay_ms=60_000, executor=_BreakOnceWithHost()
            )
            await coalescer.submit_many(REQUESTS)
            return fleet

        fleet = asyncio.run(main())
        assert fleet.stats.executor_failures == {"10.0.0.7:9101": 1}
        assert fleet.stats.as_dict()["executor_failures"] == {"10.0.0.7:9101": 1}
        err = capsys.readouterr().err
        assert "executor failure on 10.0.0.7:9101" in err
        assert "retrying the window once" in err

    def test_failures_without_host_context_count_as_local(self):
        class _AlwaysBroken(SerialExecutor):
            async def run_async(self, plans):
                raise ExecutorBrokenError("pool keeps dying")

        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(
                fleet, max_batch=1, executor=_AlwaysBroken()
            )
            with pytest.raises(ExecutorBrokenError):
                await coalescer.submit(REQUESTS[0])
            return fleet

        fleet = asyncio.run(main())
        # One count for the in-window retry, one for the final failure.
        assert fleet.stats.executor_failures == {"local": 2}


class TestDrain:
    def test_drain_flushes_the_partial_window(self):
        async def main():
            fleet = Fleet()
            coalescer = RequestCoalescer(fleet, max_batch=100, max_delay_ms=60_000)
            pending = [
                asyncio.ensure_future(coalescer.submit(r)) for r in REQUESTS
            ]
            await asyncio.sleep(0)
            assert coalescer.pending == 3
            await coalescer.drain()
            assert coalescer.pending == 0
            assert coalescer.inflight_windows == 0
            answers = await asyncio.gather(*pending)
            return fleet, answers

        fleet, answers = asyncio.run(main())
        assert [a.tag for a in answers] == ["a", "b", "c"]
        assert fleet.stats.coalesced_batches == 1

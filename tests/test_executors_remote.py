"""Tests for :class:`RemoteExecutor` and the daemon's worker mode.

The distributed contract under test: plans fanned out over worker
daemons return floats bit-identical to :class:`SerialExecutor`, typed
plan errors propagate across the wire unchanged, a dead host's queue is
absorbed by the survivors (failover), and only a fully-unreachable
fleet raises :class:`~repro.errors.ExecutorBrokenError` — carrying the
host identity and stranded-plan count.
"""

import asyncio
import contextlib

import pytest

from repro.core.rtt import EvalPlan, compile_eval_plans, execute_plan, model_params
from repro.errors import ExecutorBrokenError, ParameterError
from repro.executors import RemoteExecutor
from repro.fleet import AsyncFleet, Fleet, Request
from repro.scenarios import get_scenario
from repro.serve import ServingDaemon

PROBABILITY = 0.99999


def make_plans(loads=(0.3, 0.4, 0.5, 0.6), preset="paper-dsl", chunk_size=1):
    models = [get_scenario(preset).model_at_load(load) for load in loads]
    return compile_eval_plans(models, PROBABILITY, chunk_size=chunk_size)


def run_distributed(test, workers=2, **daemon_kwargs):
    """Run ``await test(daemons)`` against N live worker-mode daemons."""

    async def main():
        async with contextlib.AsyncExitStack() as stack:
            daemons = [
                await stack.enter_async_context(
                    ServingDaemon(port=0, worker_mode=True, **daemon_kwargs)
                )
                for _ in range(workers)
            ]
            return await test(daemons)

    return asyncio.run(main())


class TestHostParsing:
    @pytest.mark.parametrize(
        "spec", ["", "localhost", ":9101", "host:", "host:nan", "host:0", "host:70000"]
    )
    def test_rejects_malformed_host_specs(self, spec):
        with pytest.raises(ParameterError):
            RemoteExecutor([spec] if spec else [])

    def test_rejects_duplicate_hosts(self):
        with pytest.raises(ParameterError, match="twice"):
            RemoteExecutor("127.0.0.1:9101,127.0.0.1:9101")

    def test_accepts_comma_separated_string(self):
        executor = RemoteExecutor("a:1, b:2")
        assert executor.hosts == ["a:1", "b:2"]
        assert executor.workers == 2

    def test_validates_timeouts(self):
        with pytest.raises(ParameterError):
            RemoteExecutor("a:1", timeout_s=0.0)
        with pytest.raises(ParameterError):
            RemoteExecutor("a:1", connect_timeout_s=0.0)
        with pytest.raises(ParameterError):
            RemoteExecutor("a:1", recheck_down_s=-1.0)

    def test_validates_connections_per_host(self):
        with pytest.raises(ParameterError):
            RemoteExecutor("a:1", connections_per_host=0)
        executor = RemoteExecutor("a:1,b:2", connections_per_host=3)
        assert executor.workers == 6


class TestRemoteExecution:
    def test_results_bit_identical_to_serial_for_any_host_count(self):
        plans = make_plans()
        serial = [execute_plan(plan) for plan in plans]

        for workers in (1, 2, 3):
            async def scenario(daemons):
                executor = RemoteExecutor(
                    [f"127.0.0.1:{d.port}" for d in daemons]
                )
                try:
                    return await executor.run_async(plans)
                finally:
                    executor.close()

            results = run_distributed(scenario, workers=workers)
            assert [r.values for r in results] == [r.values for r in serial]
            assert [r.indices for r in results] == [r.indices for r in serial]
            assert all(r.host is not None for r in results)
            assert all(r.wire_s > 0.0 for r in results)

    def test_work_spreads_over_the_hosts(self):
        plans = make_plans(loads=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7))

        async def scenario(daemons):
            executor = RemoteExecutor([f"127.0.0.1:{d.port}" for d in daemons])
            try:
                results = await executor.run_async(plans)
                return results, executor.host_stats()
            finally:
                executor.close()

        results, stats = run_distributed(scenario, workers=2)
        assert sum(entry["plans"] for entry in stats.values()) == len(plans)
        assert all(entry["plans"] > 0 for entry in stats.values())
        assert {r.host for r in results} == set(stats)

    def test_keep_alive_connections_are_reused_across_runs(self):
        plans = make_plans(loads=(0.3, 0.5))

        async def scenario(daemons):
            executor = RemoteExecutor([f"127.0.0.1:{daemons[0].port}"])
            try:
                first = await executor.run_async(plans)
                second = await executor.run_async(plans)
                return first, second, daemons[0].connections_accepted
            finally:
                executor.close()

        first, second, accepted = run_distributed(scenario, workers=1)
        assert [r.values for r in first] == [r.values for r in second]
        assert accepted == 1  # one connection served both runs

    def test_multiple_connections_per_host_stay_bit_identical(self):
        plans = make_plans(loads=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
        serial = [execute_plan(plan) for plan in plans]

        async def scenario(daemons):
            executor = RemoteExecutor(
                [f"127.0.0.1:{daemons[0].port}"], connections_per_host=2
            )
            try:
                results = await executor.run_async(plans)
                return results, daemons[0].connections_accepted
            finally:
                executor.close()

        results, accepted = run_distributed(scenario, workers=1)
        assert [r.values for r in results] == [r.values for r in serial]
        assert accepted == 2  # one keep-alive connection per slot

    def test_empty_plan_list_never_touches_the_network(self):
        executor = RemoteExecutor("127.0.0.1:1")  # nothing listens there
        assert asyncio.run(executor.run_async([])) == []
        assert executor.run([]) == []

    def test_plan_errors_propagate_and_do_not_mark_the_host_down(self):
        bad = EvalPlan(
            probabilities=(PROBABILITY,),
            method="inversion",
            indices=(0,),
            model_params=(
                {
                    **model_params(get_scenario("paper-dsl").model_at_load(0.4)),
                    "num_gamers": -1.0,
                },
            ),
        )
        good = make_plans(loads=(0.4,))[0]

        async def scenario(daemons):
            executor = RemoteExecutor([f"127.0.0.1:{daemons[0].port}"])
            try:
                with pytest.raises(ParameterError):
                    await executor.run_async([bad])
                results = await executor.run_async([good])
                return results, executor.host_stats()
            finally:
                executor.close()

        results, stats = run_distributed(scenario, workers=1)
        [entry] = stats.values()
        assert entry["failures"] == 0 and not entry["down"]
        assert results[0].values == execute_plan(good).values

    def test_worker_pids_differ_when_workers_run_out_of_process(self):
        # In-process test daemons share this pid; a daemon given its own
        # ParallelExecutor executes plans in pool processes, which is
        # what the PlanResult.worker_pid folding keys on.
        import os

        from repro.executors import ParallelExecutor

        plans = make_plans(loads=(0.35,))

        async def scenario(daemons):
            executor = RemoteExecutor([f"127.0.0.1:{daemons[0].port}"])
            try:
                return await executor.run_async(plans)
            finally:
                executor.close()

        async def main():
            pool = ParallelExecutor(workers=1)
            try:
                async with ServingDaemon(
                    port=0, worker_mode=True, executor=pool
                ) as daemon:
                    return await scenario([daemon])
            finally:
                pool.close()

        results = asyncio.run(main())
        assert results[0].worker_pid != os.getpid()
        assert results[0].values == execute_plan(plans[0]).values


class TestFailover:
    def test_dead_host_fails_over_to_the_survivors(self):
        plans = make_plans(loads=(0.3, 0.4, 0.5, 0.6))
        serial = [execute_plan(plan) for plan in plans]

        async def scenario(daemons):
            # A listener that drops every connection on sight: the
            # deterministic stand-in for a SIGKILLed worker daemon.
            async def slam(reader, writer):
                writer.close()

            dead = await asyncio.start_server(slam, "127.0.0.1", 0)
            dead_port = dead.sockets[0].getsockname()[1]
            executor = RemoteExecutor(
                [f"127.0.0.1:{dead_port}", f"127.0.0.1:{daemons[0].port}"]
            )
            try:
                results = await executor.run_async(plans)
                return results, executor.host_stats(), dead_port
            finally:
                executor.close()
                dead.close()
                await dead.wait_closed()

        results, stats, dead_port = run_distributed(scenario, workers=1)
        # The stream completed, bit-identical, entirely on the survivor.
        assert [r.values for r in results] == [r.values for r in serial]
        dead_entry = stats[f"127.0.0.1:{dead_port}"]
        assert dead_entry["down"] and dead_entry["failures"] >= 1
        assert dead_entry["plans"] == 0
        assert sum(r.redispatches for r in results) >= 1

    def test_unresponsive_host_times_out_and_fails_over(self):
        plans = make_plans(loads=(0.45,))

        async def scenario(daemons):
            async def hang(reader, writer):
                await asyncio.sleep(60.0)

            silent = await asyncio.start_server(hang, "127.0.0.1", 0)
            silent_port = silent.sockets[0].getsockname()[1]
            executor = RemoteExecutor(
                [f"127.0.0.1:{silent_port}", f"127.0.0.1:{daemons[0].port}"],
                timeout_s=0.3,
            )
            try:
                results = await executor.run_async(plans)
                return results, executor.host_stats(), silent_port
            finally:
                executor.close()
                silent.close()
                await silent.wait_closed()

        results, stats, silent_port = run_distributed(scenario, workers=1)
        assert results[0].values == execute_plan(plans[0]).values
        assert stats[f"127.0.0.1:{silent_port}"]["down"]
        assert results[0].redispatches == 1

    def test_every_host_dead_raises_structured_executor_error(self):
        plans = make_plans(loads=(0.3, 0.5))

        async def main():
            executor = RemoteExecutor(
                ["127.0.0.1:9", "127.0.0.1:13"], connect_timeout_s=0.5
            )
            try:
                with pytest.raises(ExecutorBrokenError) as excinfo:
                    await executor.run_async(plans)
                return excinfo.value, executor.host_stats()
            finally:
                executor.close()

        error, stats = asyncio.run(main())
        assert error.host in stats
        assert error.plan_count == len(plans)
        assert error.cause is not None
        assert all(entry["down"] for entry in stats.values())

    def test_sync_run_raises_the_same_typed_error(self):
        executor = RemoteExecutor("127.0.0.1:9", connect_timeout_s=0.5)
        with pytest.raises(ExecutorBrokenError):
            executor.run(make_plans(loads=(0.4,)))
        executor.close()

    def test_down_hosts_are_retried_on_a_later_run(self):
        plans = make_plans(loads=(0.4,))

        async def scenario(daemons):
            executor = RemoteExecutor(
                [f"127.0.0.1:{daemons[0].port}"], connect_timeout_s=0.5
            )
            try:
                daemons[0]._server.close()  # refuse new connections
                await daemons[0]._server.wait_closed()
                daemons[0]._server = None
                with pytest.raises(ExecutorBrokenError):
                    await executor.run_async(plans)
                assert executor.host_stats()[executor.hosts[0]]["down"]
                # The worker comes back; the very next run is offered
                # the whole fleet again (no cooldown wait when every
                # host is down).
                await daemons[0].start()
                executor._hosts[0].port = daemons[0].port
                executor._hosts[0].name = f"127.0.0.1:{daemons[0].port}"
                return await executor.run_async(plans)
            finally:
                executor.close()

        results = run_distributed(scenario, workers=1)
        assert results[0].values == execute_plan(plans[0]).values

    def test_front_end_without_worker_mode_is_not_a_worker(self):
        # POSTing a plan frame to a daemon without --worker-mode hits a
        # 404 JSON response, which the executor treats as a host
        # failure: a misconfigured fleet fails loudly, with the host
        # named, instead of silently hanging.
        plans = make_plans(loads=(0.4,))

        async def main():
            async with ServingDaemon(port=0) as daemon:  # no worker_mode
                executor = RemoteExecutor([f"127.0.0.1:{daemon.port}"])
                try:
                    with pytest.raises(ExecutorBrokenError) as excinfo:
                        await executor.run_async(plans)
                    return excinfo.value
                finally:
                    executor.close()

        error = asyncio.run(main())
        assert error.host is not None


class TestWeightedTailPull:
    """The cost-weighted pull: slow hosts decline the batch tail."""

    def _executor_with_observed(self, means):
        """An executor whose hosts have the given mean wire times."""
        executor = RemoteExecutor(
            ",".join(f"h{i}:{1000 + i}" for i in range(len(means)))
        )
        for state, mean in zip(executor._hosts, means):
            state.plans = 10
            state.wire_s = 10 * mean
        return executor

    def test_slow_host_yields_only_in_the_tail(self):
        executor = self._executor_with_observed([0.01, 0.05])
        slow = executor._hosts[1]
        # Plenty of work left: everyone pulls.
        assert not executor._should_yield_tail(slow, queue_len=5, alive_slots=2)
        # Tail: the 5x-slower host leaves the stragglers to the fast one.
        assert executor._should_yield_tail(slow, queue_len=1, alive_slots=2)

    def test_fastest_host_never_yields(self):
        executor = self._executor_with_observed([0.01, 0.05])
        fast = executor._hosts[0]
        assert not executor._should_yield_tail(fast, queue_len=1, alive_slots=2)

    def test_unobserved_hosts_pull_optimistically(self):
        executor = self._executor_with_observed([0.01, 0.05])
        executor._hosts[1].plans = 0
        executor._hosts[1].wire_s = 0.0
        cold = executor._hosts[1]
        assert not executor._should_yield_tail(cold, queue_len=1, alive_slots=2)

    def test_down_hosts_do_not_skew_the_minimum(self):
        executor = self._executor_with_observed([0.001, 0.05, 0.06])
        executor._hosts[0].down_since = 1.0  # the fast host died
        survivor = executor._hosts[1]
        # Against the remaining alive means, 0.05 is not 2x slower.
        assert not executor._should_yield_tail(survivor, queue_len=1, alive_slots=2)

    def test_single_slot_never_yields(self):
        executor = self._executor_with_observed([0.05])
        assert not executor._should_yield_tail(
            executor._hosts[0], queue_len=1, alive_slots=1
        )

    def test_tail_policy_keeps_results_bit_identical(self):
        plans = make_plans(loads=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7))
        serial = [execute_plan(plan) for plan in plans]

        async def scenario(daemons):
            executor = RemoteExecutor([f"127.0.0.1:{d.port}" for d in daemons])
            # Pre-bias the observations so host 0 looks 100x slower:
            # the tail-yield branch runs, the answers must not change.
            executor._hosts[0].plans = 10
            executor._hosts[0].wire_s = 10.0
            executor._hosts[1].plans = 10
            executor._hosts[1].wire_s = 0.1
            try:
                return await executor.run_async(plans)
            finally:
                executor.close()

        results = run_distributed(scenario, workers=2)
        assert [r.values for r in results] == [r.values for r in serial]
        assert [r.indices for r in results] == [r.indices for r in serial]


class TestFleetIntegration:
    def test_fleet_folds_per_host_counters(self):
        requests = [
            Request(preset, downlink_load=load)
            for preset in ("paper-dsl", "ftth", "multi-game-dsl")
            for load in (0.3, 0.5)
        ]
        reference = Fleet().serve(requests)

        async def scenario(daemons):
            executor = RemoteExecutor([f"127.0.0.1:{d.port}" for d in daemons])
            fleet = Fleet()
            try:
                answers = await AsyncFleet(fleet).serve_async(
                    requests, executor=executor
                )
                return answers, fleet.stats
            finally:
                executor.close()

        answers, stats = run_distributed(scenario, workers=2)
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]
        assert sum(entry["plans"] for entry in stats.hosts.values()) == (
            stats.plans_executed
        )
        assert all(entry["wire_s"] > 0.0 for entry in stats.hosts.values())
        as_dict = stats.as_dict()
        assert as_dict["hosts"] == stats.hosts
        assert "executor_failures" in as_dict

    def test_remote_results_train_the_fleet_cost_model(self):
        # Host-stamped results folded by _assemble must land in both
        # the plan_costs stats and the fleet's CostModel, so remote
        # batches train the chunking policy exactly like local ones.
        requests = [
            Request("paper-dsl", downlink_load=load) for load in (0.3, 0.4, 0.5)
        ]

        async def scenario(daemons):
            executor = RemoteExecutor([f"127.0.0.1:{d.port}" for d in daemons])
            fleet = Fleet()
            try:
                answers = await AsyncFleet(fleet).serve_async(
                    requests, executor=executor
                )
                return answers, fleet
            finally:
                executor.close()

        answers, fleet = run_distributed(scenario, workers=2)
        assert len(answers) == len(requests)
        assert sum(e["plans"] for e in fleet.stats.hosts.values()) > 0
        entry = fleet.cost_model.as_dict()["inversion/K9"]
        assert entry["models"] == len(requests)
        assert entry["exec_s"] > 0.0
        cost = fleet.stats.plan_costs["inversion/K9"]
        assert cost["models"] == entry["models"]

"""Tests for the plan/execute layer and the executors that run it.

The contract under test: an :class:`EvalPlan` is picklable and
self-contained (no live ``Engine``/``PingTimeModel`` references), and
executing it — in-process or in a worker process — produces floats bit-identical to per-model
``rtt_quantile`` calls.
"""

import asyncio
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro

from repro.core import rtt
from repro.core.rtt import (
    CostModel,
    EvalPlan,
    PingTimeModel,
    compile_eval_plans,
    execute_plan,
    model_build_count,
    model_params,
    reset_model_build_count,
)
from repro.errors import ParameterError
from repro.executors import Executor, ParallelExecutor, SerialExecutor
from repro.fleet import AsyncFleet, Fleet, Request
from repro.scenarios import get_scenario

PROBABILITY = 0.99999


def _models(loads=(0.3, 0.6), presets=("paper-dsl", "ftth")):
    return [get_scenario(p).model_at_load(l) for p in presets for l in loads]


class TestCompileEvalPlans:
    def test_plans_cover_every_model_exactly_once(self):
        models = _models()
        plans = compile_eval_plans(models, PROBABILITY)
        covered = sorted(i for plan in plans for i in plan.indices)
        assert covered == list(range(len(models)))

    def test_levels_are_one_per_model_or_shared(self):
        models = _models()
        levels = [0.99, 0.999, 0.9999, 0.99999]
        plans = compile_eval_plans(models, levels)
        for plan in plans:
            assert plan.probabilities == tuple(levels[i] for i in plan.indices)
        with pytest.raises(ParameterError):
            compile_eval_plans(models, levels[:2])
        with pytest.raises(ParameterError):
            compile_eval_plans(models, [0.99, 1.5, 0.9, 0.9])

    def test_a_point_keeps_its_levels_in_one_plan(self):
        models = _models(loads=(0.3, 0.4, 0.5), presets=("paper-dsl",))
        levels = (0.999, 0.99999)
        batch = [m for _ in levels for m in models]
        plans = compile_eval_plans(
            batch, [p for p in levels for _ in models], chunk_size=2
        )
        # Three points, two levels each: one plan per point, not a
        # chunk boundary between the two entries of a point.
        assert [plan.indices for plan in plans] == [(0, 3), (1, 4), (2, 5)]
        reset_model_build_count()
        for plan in plans:
            execute_plan(plan)
        assert model_build_count() == len(models)

    def test_groups_by_erlang_order(self):
        models = [
            get_scenario("paper-dsl").derive(erlang_order=order).model_at_load(0.4)
            for order in (2, 9, 2, 9)
        ]
        plans = compile_eval_plans(models, PROBABILITY)
        assert len(plans) == 2
        orders = {
            plan.model_params[0]["erlang_order"]: set(plan.indices) for plan in plans
        }
        assert orders == {2: {0, 2}, 9: {1, 3}}

    def test_chunking_respects_chunk_size(self):
        models = [get_scenario("paper-dsl").model_at_load(0.1 + 0.02 * i) for i in range(7)]
        plans = compile_eval_plans(models, PROBABILITY, chunk_size=3)
        assert [len(plan) for plan in plans] == [3, 3, 1]
        paper_chunk = CostModel().chunk_size_for("inversion/K9")
        assert all(len(p) <= paper_chunk for p in compile_eval_plans(models, PROBABILITY))

    def test_accepts_parameter_mappings(self):
        model = get_scenario("cable").model_at_load(0.5)
        [plan] = compile_eval_plans([model_params(model)], PROBABILITY)
        assert plan.build_models()[0] == model

    def test_non_inversion_methods_chunk_in_batch_order(self):
        models = [
            get_scenario("paper-dsl").derive(erlang_order=order).model_at_load(0.4)
            for order in (2, 9)
        ]
        [plan] = compile_eval_plans(models, PROBABILITY, method="sum-of-quantiles")
        assert plan.indices == (0, 1)

    def test_validates_arguments(self):
        models = _models(loads=(0.4,), presets=("paper-dsl",))
        with pytest.raises(ParameterError):
            compile_eval_plans(models, 1.5)
        with pytest.raises(ParameterError):
            compile_eval_plans(models, PROBABILITY, method="magic")
        with pytest.raises(ParameterError):
            compile_eval_plans(models, PROBABILITY, chunk_size=0)


class TestExecutePlan:
    @pytest.mark.parametrize("method", ["inversion", "chernoff"])
    def test_one_point_at_several_levels_builds_one_model(self, method):
        model = get_scenario("paper-dsl").model_at_load(0.4)
        levels = (0.99, 0.999, 0.99999)
        [plan] = compile_eval_plans([model] * len(levels), levels, method=method)
        reset_model_build_count()
        result = execute_plan(plan)
        assert model_build_count() == 1
        assert list(result.values) == [model.rtt_quantile(p, method=method) for p in levels]

    def test_values_match_per_model_quantiles_bitwise(self):
        models = _models()
        for plan in compile_eval_plans(models, PROBABILITY):
            result = execute_plan(plan)
            expected = [
                models[i].rtt_quantile(PROBABILITY) for i in plan.indices
            ]
            assert list(result.values) == expected
            assert result.evaluations == len(plan)
            assert result.stacked_mgf_calls > 0
            assert result.worker_pid == os.getpid()

    def test_a_single_search_runs_the_scalar_path(self, monkeypatch):
        stacks = []

        class CountingStack(rtt.QueueingMgfStack):
            def __init__(self, models):
                stacks.append(len(models))
                super().__init__(models)

        monkeypatch.setattr(rtt, "QueueingMgfStack", CountingStack)
        model = get_scenario("ftth").model_at_load(0.4)
        [plan] = compile_eval_plans([model], PROBABILITY)
        result = execute_plan(plan)
        assert result.values == (model.rtt_quantile(PROBABILITY),)
        assert result.stacked_mgf_calls == 0
        # A one-model group runs on the model's compiled kernel: no stack.
        assert stacks == []
        execute_plan(compile_eval_plans(_models(), PROBABILITY)[0])
        assert stacks and min(stacks) > 1

    def test_fallback_methods_run_per_model(self):
        models = _models(loads=(0.5,))
        [plan] = compile_eval_plans(models, PROBABILITY, method="sum-of-quantiles")
        result = execute_plan(plan)
        assert list(result.values) == [
            m.rtt_quantile(PROBABILITY, method="sum-of-quantiles") for m in models
        ]
        assert result.stacked_mgf_calls == 0

    def test_plan_is_picklable_and_carries_no_live_references(self):
        models = _models()
        plans = compile_eval_plans(models, PROBABILITY)
        restored = pickle.loads(pickle.dumps(plans))
        for plan, twin in zip(plans, restored):
            assert execute_plan(twin).values == execute_plan(plan).values
        # The payload is plain floats, not model or engine objects.
        for plan in plans:
            for params in plan.model_params:
                assert all(isinstance(v, (int, float)) for v in params.values())

    def test_build_models_round_trips_the_parameters(self):
        model = get_scenario("lte").model_at_load(0.45)
        [plan] = compile_eval_plans([model], PROBABILITY)
        assert plan.build_models() == [model]


class TestSerialExecutor:
    def test_matches_direct_execution(self):
        models = _models()
        plans = compile_eval_plans(models, PROBABILITY)
        with SerialExecutor() as executor:
            results = executor.run(plans)
        assert [r.values for r in results] == [execute_plan(p).values for p in plans]

    def test_run_async_offloads_to_a_thread(self):
        models = _models(loads=(0.4,))
        plans = compile_eval_plans(models, PROBABILITY)

        async def main():
            return await SerialExecutor().run_async(plans)

        results = asyncio.run(main())
        assert [r.values for r in results] == [execute_plan(p).values for p in plans]

    def test_base_executor_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Executor().run([])


class TestParallelExecutor:
    def test_workers_validation(self):
        with pytest.raises(ParameterError):
            ParallelExecutor(workers=0)
        assert ParallelExecutor().workers >= 1

    def test_empty_plan_list_needs_no_pool(self):
        executor = ParallelExecutor(workers=2)
        assert executor.run([]) == []
        assert executor._pool is None
        executor.close()

    def test_results_bit_identical_to_serial_and_remote(self):
        models = _models()
        plans = compile_eval_plans(models, PROBABILITY, chunk_size=2)
        with ParallelExecutor(workers=2) as executor:
            results = executor.run(plans)
        serial = [execute_plan(p) for p in plans]
        assert [r.values for r in results] == [r.values for r in serial]
        assert [r.indices for r in results] == [r.indices for r in serial]
        assert [r.stacked_mgf_calls for r in results] == [
            r.stacked_mgf_calls for r in serial
        ]
        assert all(r.worker_pid != os.getpid() for r in results)

    def test_run_async_wraps_pool_futures(self):
        models = _models(loads=(0.4,))
        plans = compile_eval_plans(models, PROBABILITY)

        async def main():
            with ParallelExecutor(workers=2) as executor:
                return await executor.run_async(plans)

        results = asyncio.run(main())
        assert [r.values for r in results] == [execute_plan(p).values for p in plans]

    def test_close_is_idempotent_and_pool_restarts(self):
        models = _models(loads=(0.4,), presets=("paper-dsl",))
        plans = compile_eval_plans(models, PROBABILITY)
        executor = ParallelExecutor(workers=1)
        first = executor.run(plans)
        executor.close()
        executor.close()
        second = executor.run(plans)  # lazily recreates the pool
        executor.close()
        assert [r.values for r in first] == [r.values for r in second]

    def test_broken_pool_raises_typed_error_and_respawns(self):
        # ISSUE 5: a dead worker used to poison the executor forever —
        # every later run hit the same BrokenProcessPool.  Now the pool
        # is disposed with a typed error and the next run respawns it.
        from concurrent.futures.process import BrokenProcessPool

        from repro.errors import ExecutorBrokenError, ReproError

        models = _models(loads=(0.4,), presets=("paper-dsl",))
        plans = compile_eval_plans(models, PROBABILITY)
        executor = ParallelExecutor(workers=1)
        try:
            first = executor.run(plans)
            # Kill the worker mid-life: os._exit bypasses all cleanup,
            # exactly like the OOM-killer or a crash would.
            killer = executor._pool.submit(os._exit, 1)
            with pytest.raises(BrokenProcessPool):
                killer.result()
            with pytest.raises(ExecutorBrokenError):
                executor.run(plans)
            assert executor._pool is None  # the dead pool was disposed
            second = executor.run(plans)  # a fresh pool spawns lazily
            assert [r.values for r in second] == [r.values for r in first]
        finally:
            executor.close()
        assert issubclass(ExecutorBrokenError, ReproError)

    def test_broken_pool_recovery_in_run_async(self):
        from repro.errors import ExecutorBrokenError

        models = _models(loads=(0.4,), presets=("paper-dsl",))
        plans = compile_eval_plans(models, PROBABILITY)

        async def main():
            executor = ParallelExecutor(workers=1)
            try:
                first = await executor.run_async(plans)
                killer = executor._pool.submit(os._exit, 1)
                with pytest.raises(Exception):
                    killer.result()  # wait until the pool notices the death
                with pytest.raises(ExecutorBrokenError):
                    await executor.run_async(plans)
                assert executor._pool is None
                second = await executor.run_async(plans)
                return first, second
            finally:
                executor.close()

        first, second = asyncio.run(main())
        assert [r.values for r in second] == [r.values for r in first]

    def test_worker_errors_propagate(self):
        bad = EvalPlan(
            probabilities=(PROBABILITY,),
            method="inversion",
            indices=(0,),
            model_params=(
                {**model_params(get_scenario("paper-dsl").model_at_load(0.4)), "num_gamers": -1.0},
            ),
        )
        with ParallelExecutor(workers=1) as executor:
            with pytest.raises(ParameterError):
                executor.run([bad])

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_spawn_worker_exits_when_its_parent_is_killed(self):
        # A spawn worker holds both ends of its call queue and never sees
        # EOF; without the parent watch it outlives a SIGKILLed parent.
        script = textwrap.dedent(
            """
            import time
            from repro.core.rtt import compile_eval_plans
            from repro.executors import ParallelExecutor
            from repro.scenarios import get_scenario

            executor = ParallelExecutor(workers=1, mp_context="spawn", timeout_s=60)
            plans = compile_eval_plans([get_scenario("paper-dsl").model_at_load(0.4)], 0.999)
            [result] = executor.run(plans)
            print(result.worker_pid, flush=True)
            time.sleep(60)
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        worker = None
        try:
            worker = int(parent.stdout.readline())
            parent.send_signal(signal.SIGKILL)
            parent.wait()
            deadline = time.monotonic() + 5.0
            while _process_alive(worker) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _process_alive(worker)
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
            parent.stdout.close()
            if worker is not None and _process_alive(worker):
                os.kill(worker, signal.SIGKILL)


def _process_alive(pid):
    """Whether ``pid`` runs; a zombie no init has reaped yet counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestParallelExecutorTimeout:
    def test_timeout_validation(self):
        with pytest.raises(ParameterError):
            ParallelExecutor(workers=1, timeout_s=0.0)
        with pytest.raises(ParameterError):
            ParallelExecutor(workers=1, timeout_s=-1.0)
        assert ParallelExecutor(workers=1).timeout_s is None

    def test_batch_budget_scales_with_queue_depth(self):
        executor = ParallelExecutor(workers=2, timeout_s=1.5)
        # Per-plan budget x the plans each worker may have to run.
        assert executor._batch_budget_s(1) == 1.5
        assert executor._batch_budget_s(2) == 1.5
        assert executor._batch_budget_s(3) == 3.0
        assert executor._batch_budget_s(5) == 4.5
        assert ParallelExecutor(workers=2)._batch_budget_s(10) is None

    def test_generous_timeout_changes_nothing(self):
        models = _models(loads=(0.3, 0.5), presets=("paper-dsl",))
        plans = compile_eval_plans(models, PROBABILITY, chunk_size=1)
        serial = [execute_plan(p) for p in plans]
        with ParallelExecutor(workers=2, timeout_s=120.0) as executor:
            assert [r.values for r in executor.run(plans)] == [
                r.values for r in serial
            ]

            async def main():
                return await executor.run_async(plans)

            assert [r.values for r in asyncio.run(main())] == [
                r.values for r in serial
            ]

    def test_hung_pool_raises_timeout_error_and_recovers(self):
        import time

        from repro.errors import ExecutorBrokenError, ExecutorTimeoutError

        models = _models(loads=(0.4,), presets=("paper-dsl",))
        plans = compile_eval_plans(models, PROBABILITY)
        executor = ParallelExecutor(workers=1, timeout_s=0.5)
        try:
            first = executor.run(plans)  # spawn the pool while healthy
            # Wedge the single worker: the next batch queues behind a
            # sleep far longer than its budget — the stand-in for an
            # infinite loop or a stuck syscall.
            executor._pool.submit(time.sleep, 60.0)
            with pytest.raises(ExecutorTimeoutError) as excinfo:
                executor.run(plans)
            assert excinfo.value.plan_count == len(plans)
            assert executor._pool is None  # the hung pool was disposed
            second = executor.run(plans)  # a fresh pool spawns lazily
            assert [r.values for r in second] == [r.values for r in first]
        finally:
            executor.close()
        assert issubclass(ExecutorTimeoutError, ExecutorBrokenError)

    def test_hung_pool_timeout_in_run_async(self):
        import time

        from repro.errors import ExecutorTimeoutError

        models = _models(loads=(0.4,), presets=("paper-dsl",))
        plans = compile_eval_plans(models, PROBABILITY)

        async def main():
            executor = ParallelExecutor(workers=1, timeout_s=0.5)
            try:
                first = await executor.run_async(plans)
                executor._pool.submit(time.sleep, 60.0)
                with pytest.raises(ExecutorTimeoutError):
                    await executor.run_async(plans)
                assert executor._pool is None
                second = await executor.run_async(plans)
                return first, second
            finally:
                executor.close()

        first, second = asyncio.run(main())
        assert [r.values for r in second] == [r.values for r in first]


class TestPlanQuantilesExecutor:
    def test_executor_parameter_is_bit_identical(self, plan_quantiles):
        models = _models()
        reference = plan_quantiles(models, PROBABILITY)
        with SerialExecutor() as serial:
            assert plan_quantiles(models, PROBABILITY, executor=serial) == reference
        with ParallelExecutor(workers=2) as parallel:
            assert plan_quantiles(models, PROBABILITY, executor=parallel) == reference

    def test_empty_batch(self, plan_quantiles):
        assert plan_quantiles([], PROBABILITY) == []


class TestAsyncFleet:
    def test_serve_async_matches_sync_serve(self):
        requests = [
            Request(preset, downlink_load=load)
            for preset in ("paper-dsl", "ftth")
            for load in (0.3, 0.5)
        ]
        reference = Fleet().serve(requests)

        async def main():
            fleet = AsyncFleet(max_cache_entries=100)
            first = await fleet.serve_async(requests)
            second = await fleet.serve_async(requests)  # warm pass
            return fleet, first, second

        fleet, first, second = asyncio.run(main())
        assert [a.rtt_quantile_s for a in first] == [
            a.rtt_quantile_s for a in reference
        ]
        assert all(a.cached for a in second)
        assert fleet.stats.cache_hits == len(requests)

    def test_serve_async_with_parallel_executor(self):
        requests = [Request("paper-dsl", downlink_load=l) for l in (0.3, 0.5)]
        reference = Fleet().serve(requests)

        async def main():
            with ParallelExecutor(workers=2) as executor:
                fleet = AsyncFleet(executor=executor)
                return fleet, await fleet.serve_async(requests)

        fleet, answers = asyncio.run(main())
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]
        assert fleet.stats.remote_plans > 0

    def test_request_async_convenience(self):
        async def main():
            fleet = AsyncFleet()
            return await fleet.request_async("paper-dsl", downlink_load=0.4, tag="t")

        answer = asyncio.run(main())
        assert answer.tag == "t"
        assert answer.rtt_quantile_s == Fleet().request(
            "paper-dsl", downlink_load=0.4
        ).rtt_quantile_s

    def test_wrapping_an_existing_fleet(self):
        fleet = Fleet(max_cache_entries=10)
        facade = AsyncFleet(fleet)
        assert facade.fleet is fleet
        with pytest.raises(ParameterError):
            AsyncFleet(fleet, max_cache_entries=10)

    def test_persistence_passthrough(self, tmp_path):
        path = tmp_path / "cache.json"

        async def main():
            fleet = AsyncFleet()
            await fleet.serve_async([Request("paper-dsl", downlink_load=0.4)])
            return fleet.save_cache(path)

        assert asyncio.run(main()) == 1
        warm = AsyncFleet()
        assert warm.warm_start(path) == 1

"""In-process executors: serial reference and the process-pool fan-out.

* :class:`SerialExecutor` runs the plans in-process, in order — the
  reference implementation and the zero-dependency default;
* :class:`ParallelExecutor` fans the plans out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; the stacked groups
  behind the plans are embarrassingly parallel, so a cold multi-scenario
  stream scales with the worker count (see
  ``benchmarks/bench_parallel.py``) while returning answers
  bit-identical to the serial path.

Both executors also expose :meth:`~repro.executors.Executor.run_async`
for asyncio callers (used by :class:`repro.fleet.AsyncFleet`): the
serial executor offloads to the event loop's default thread pool, the
parallel executor wraps its process-pool futures directly, so the event
loop stays free while plans execute.

Example::

    from repro import Fleet, ParallelExecutor, Request

    fleet = Fleet()
    with ParallelExecutor(workers=4) as executor:
        answers = fleet.serve(requests, executor=executor)
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import math
import multiprocessing
import os
import threading
import time
from typing import Iterable, List, Optional, Sequence, Union

from ..core.rtt import CostModel, EvalPlan, PlanResult, execute_plan
from ..errors import ExecutorBrokenError, ExecutorTimeoutError, ParameterError
from .base import Executor

__all__ = ["SerialExecutor", "ParallelExecutor"]

#: Seconds between a pool worker's checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: end the worker once its parent is gone.

    A spawn-method worker holds both ends of its call queue, so it never
    sees EOF when the parent is killed and would live on as an orphan.
    A daemon thread polls ``os.getppid()`` and exits the worker as soon
    as it no longer names ``parent_pid`` (the orphan was re-parented).
    A worker that ``parent_pid`` did not start itself (a forkserver's
    child) is not watched.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    if os.getppid() == parent_pid:
        threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


class SerialExecutor(Executor):
    """Runs every plan in-process, in order (the reference executor)."""

    workers = 1

    def run(self, plans: Iterable[EvalPlan]) -> List[PlanResult]:
        return [execute_plan(plan) for plan in plans]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Fans plans out over a process pool; floats identical to serial.

    Parameters
    ----------
    workers:
        Number of worker processes (default: the machine's CPU count).
    mp_context:
        Optional :mod:`multiprocessing` start-method name (``"fork"``,
        ``"spawn"``, ``"forkserver"``) or context object, forwarded to
        :class:`concurrent.futures.ProcessPoolExecutor`.  The platform
        default is used when omitted.
    timeout_s:
        Optional per-plan execution budget in wall-clock seconds.  A
        batch of ``n`` plans on ``w`` workers is given
        ``timeout_s * ceil(n / w)`` from submission (each plan may have
        to queue behind ``ceil(n / w) - 1`` others on its worker);
        overrunning it raises the typed
        :class:`~repro.errors.ExecutorTimeoutError` **after the pool is
        disposed** (its processes killed best-effort), so a hung worker
        — an infinite loop, a stuck syscall — costs one retried window
        instead of wedging the serving path forever.  ``None`` (the
        default) keeps the wait-forever behavior.
    cost_model:
        Optional :class:`~repro.core.rtt.CostModel` driving
        longest-predicted-processing-time-first (LPT) dispatch: plans
        are *submitted* to the pool in descending predicted cost, so
        the expensive chunks start first and no worker idles while one
        tail plan finishes last.  A :class:`~repro.fleet.Fleet` lends
        its measured model automatically when this is ``None``
        (:meth:`~repro.fleet.Fleet._share_cost_model`); results are
        always returned in the callers' plan order, and the floats are
        identical under any dispatch order.

    The pool is created lazily on the first :meth:`run` /
    :meth:`run_async` call and persists across calls (a long-running
    service pays the spawn cost once); :meth:`close` shuts it down.
    Because every plan is self-contained and every result carries its
    own counters, the answers — and the folded statistics — are
    bit-identical to :class:`SerialExecutor` for any worker count.

    A killed or crashed worker breaks a
    :class:`~concurrent.futures.ProcessPoolExecutor` permanently; this
    executor translates that into a typed
    :class:`~repro.errors.ExecutorBrokenError` **and disposes the dead
    pool**, so the next call spawns a fresh one instead of failing
    forever — the recovery a long-running serving process needs.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        mp_context: Union[str, multiprocessing.context.BaseContext, None] = None,
        timeout_s: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if int(workers) < 1:
            raise ParameterError("workers must be at least 1")
        if timeout_s is not None and float(timeout_s) <= 0.0:
            raise ParameterError("timeout_s must be positive (or None)")
        self.workers = int(workers)
        self.timeout_s = None if timeout_s is None else float(timeout_s)
        self.cost_model = cost_model
        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "idle" if self._pool is None else "running"
        return f"ParallelExecutor(workers={self.workers}, pool={state})"

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context,
                initializer=_exit_with_parent,
                initargs=(os.getpid(),),
            )
        return self._pool

    def _submit(
        self, plans: Sequence[EvalPlan]
    ) -> List["concurrent.futures.Future[PlanResult]"]:
        """Submit the plans, longest predicted processing time first.

        A :class:`~concurrent.futures.ProcessPoolExecutor` starts
        queued work in submission order, so submitting in descending
        predicted cost schedules LPT — the expensive chunks can no
        longer land last and gate the batch tail — while the returned
        future list stays in the *callers'* plan order (the assembly
        phase zips results against its plan list positionally).
        Without a cost model the plans are submitted as given.
        """
        pool = self._ensure_pool()
        cost_model = self.cost_model
        if cost_model is None or len(plans) <= 1:
            return [pool.submit(execute_plan, plan) for plan in plans]
        order = sorted(
            range(len(plans)),
            key=lambda i: cost_model.predict_plan_cost_s(plans[i]),
            reverse=True,
        )
        futures: List[Optional["concurrent.futures.Future[PlanResult]"]] = [
            None
        ] * len(plans)
        for index in order:
            futures[index] = pool.submit(execute_plan, plans[index])
        return futures  # type: ignore[return-value]

    def _batch_budget_s(self, plan_count: int) -> Optional[float]:
        """The wall-clock budget for a batch, or ``None`` for no bound.

        ``timeout_s`` is a *per-plan* budget; with more plans than
        workers a plan legitimately waits for ``ceil(n / w) - 1``
        predecessors on its worker, so the batch deadline scales with
        the queueing depth.
        """
        if self.timeout_s is None:
            return None
        return self.timeout_s * max(1, math.ceil(plan_count / self.workers))

    def _dispose_broken_pool(
        self, cause: concurrent.futures.BrokenExecutor
    ) -> ExecutorBrokenError:
        """Drop the dead pool and build the typed error to raise.

        After disposal the next :meth:`run` / :meth:`run_async` call
        lazily spawns a fresh pool, so one dead worker does not poison
        every later batch of a long-running service.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return ExecutorBrokenError(
            f"the worker pool died while executing plans ({cause}); the pool "
            "has been disposed and the next run will spawn a fresh one",
            cause=cause,
        )

    def _dispose_hung_pool(
        self, plan_count: int, budget_s: float
    ) -> ExecutorTimeoutError:
        """Kill the hung pool's processes and build the timeout error.

        ``shutdown(wait=False)`` alone would leave a worker stuck in an
        infinite loop holding its process (and its memory) forever, so
        the workers are killed best-effort first; the next run spawns a
        fresh pool exactly like the broken-pool path.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            # _processes is stable private API (3.8-3.13); a hung worker
            # never honours a cooperative shutdown, killing is the only
            # way to reclaim its process.
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.kill()
                except Exception:  # pragma: no cover - already dead
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        return ExecutorTimeoutError(
            f"{plan_count} plan(s) did not complete within the "
            f"{budget_s:.1f} s execution budget "
            f"({self.timeout_s:g} s/plan x queue depth); the hung pool has "
            "been disposed and the next run will spawn a fresh one",
            plan_count=plan_count,
        )

    def run(self, plans: Iterable[EvalPlan]) -> List[PlanResult]:
        plans = list(plans)
        if not plans:
            return []
        budget = self._batch_budget_s(len(plans))
        deadline = None if budget is None else time.monotonic() + budget
        try:
            futures = self._submit(plans)
            results = []
            for future in futures:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                results.append(future.result(timeout=remaining))
            return results
        except concurrent.futures.BrokenExecutor as exc:
            raise self._dispose_broken_pool(exc) from exc
        except concurrent.futures.TimeoutError as exc:
            raise self._dispose_hung_pool(len(plans), budget) from exc

    async def run_async(self, plans: Iterable[EvalPlan]) -> List[PlanResult]:
        plans = list(plans)
        if not plans:
            return []
        budget = self._batch_budget_s(len(plans))
        try:
            futures = self._submit(plans)
            gathered = asyncio.gather(*(asyncio.wrap_future(f) for f in futures))
            if budget is None:
                return list(await gathered)
            try:
                return list(await asyncio.wait_for(gathered, timeout=budget))
            except asyncio.TimeoutError as exc:
                raise self._dispose_hung_pool(len(plans), budget) from exc
        except concurrent.futures.BrokenExecutor as exc:
            raise self._dispose_broken_pool(exc) from exc

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    #: Context-manager alias kept explicit for symmetry with the docs.
    shutdown = close

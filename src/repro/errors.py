"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by the library derive from
:class:`ReproError`, so downstream users can catch library errors with a
single ``except`` clause while still letting programming errors (such as
``TypeError``) propagate.
"""

from __future__ import annotations

import pickle

__all__ = [
    "ReproError",
    "ParameterError",
    "StabilityError",
    "CacheFormatError",
    "SurfaceFormatError",
    "ExecutorBrokenError",
    "ExecutorTimeoutError",
    "WireFormatError",
    "FittingError",
    "TraceFormatError",
    "ConvergenceError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ParameterError(ReproError, ValueError):
    """A model or scenario parameter is out of its valid range."""


class StabilityError(ReproError, ValueError):
    """A queueing system was configured with load >= 1 (unstable)."""

    def __init__(self, load: float, message: str | None = None) -> None:
        self.load = float(load)
        if message is None:
            message = (
                f"queueing system is unstable: offered load {self.load:.4f} "
                "is not strictly below 1"
            )
        super().__init__(message)

    def __reduce__(self):
        # Exception pickling replays cls(*args); args holds only the
        # message, whose float() would fail in __init__.  Evaluation
        # plans cross process boundaries, so keep the error picklable.
        return (type(self), (self.load, self.args[0] if self.args else None))


class CacheFormatError(ParameterError):
    """A persisted fleet cache file is malformed or inconsistent.

    Raised by :meth:`repro.fleet.Fleet.warm_start` instead of the bare
    ``json``/``KeyError`` tracebacks a corrupted file used to produce.
    ``path`` names the offending file and ``key`` the offending entry
    field or scenario key, when one can be singled out.
    """

    def __init__(
        self, message: str, *, path: str | None = None, key: str | None = None
    ) -> None:
        self.path = path
        self.key = key
        super().__init__(message)


class SurfaceFormatError(ParameterError):
    """A persisted quantile-surface file is malformed or inconsistent.

    Raised by :func:`repro.surface.store.load_surfaces` instead of the
    bare ``json``/``KeyError`` tracebacks a corrupted or version-skewed
    surface file would otherwise produce.  ``path`` names the offending
    file and ``key`` the offending field or scenario key, when one can
    be singled out.
    """

    def __init__(
        self, message: str, *, path: str | None = None, key: str | None = None
    ) -> None:
        self.path = path
        self.key = key
        super().__init__(message)


class ExecutorBrokenError(ReproError, RuntimeError):
    """A plan executor lost its workers underneath an execution.

    Raised by :class:`repro.executors.ParallelExecutor` when the
    process pool reports itself broken (a worker was killed, crashed or
    ran out of memory), by :class:`repro.executors.RemoteExecutor` when
    every worker host is unreachable, and by :class:`repro.fleet.Fleet`
    when an executor's results do not match the plans it was given
    (before any of them is folded in).  The executor disposes the dead
    pool (or marks the dead hosts) before raising, so the **next**
    ``run``/``run_async`` call transparently recovers — a long-running
    service retries the batch instead of failing every future call.

    The structured context tells serving layers *what* broke instead of
    burying it in the message: ``host`` names the worker host (``None``
    for an in-process pool), ``plan_count`` how many plans were stranded
    by the failure, and ``cause`` the underlying transport or pool
    exception.
    """

    def __init__(
        self,
        message: str,
        *,
        host: str | None = None,
        plan_count: int | None = None,
        cause: BaseException | None = None,
    ) -> None:
        self.host = host
        self.plan_count = plan_count
        self.cause = cause
        super().__init__(message)

    def __reduce__(self):
        # Keyword-only context does not replay through the default
        # Exception pickling (cls(*args)); rebuild explicitly.  The
        # cause itself may not pickle (e.g. a socket error holding a
        # transport), so it is reduced to its repr on the wire.
        cause = self.cause
        if cause is not None:
            try:
                pickle.dumps(cause)
            except Exception:
                cause = None
        return (
            _rebuild_executor_broken,
            (
                type(self),
                self.args[0] if self.args else "",
                self.host,
                self.plan_count,
                cause,
            ),
        )


def _rebuild_executor_broken(cls, message, host, plan_count, cause):
    return cls(message, host=host, plan_count=plan_count, cause=cause)


class ExecutorTimeoutError(ExecutorBrokenError):
    """A plan overran its execution timeout on a worker.

    Raised by :class:`repro.executors.ParallelExecutor` when a plan
    fails to complete within the configured ``timeout_s`` budget — a
    hung worker must cost one retried window, never a wedged service.
    The pool is disposed (its processes killed best-effort) before
    raising, exactly like :class:`ExecutorBrokenError`, so the next run
    spawns fresh workers; subclassing it means every recovery path
    (coalescer window retry, daemon 500 mapping) applies unchanged.
    """


class WireFormatError(ReproError, ValueError):
    """A plan-protocol frame is malformed, truncated or version-skewed.

    Raised by :mod:`repro.serve.wire` while encoding or decoding the
    length-prefixed frames the distributed execution tier exchanges —
    bad magic, an unsupported protocol version, an unknown frame kind,
    an over-long or truncated payload.  Decoding never hangs and never
    raises a bare ``struct``/``pickle`` error on corrupt input.
    """

    def __init__(self, message: str, *, kind: str | None = None) -> None:
        self.kind = kind
        super().__init__(message)


class FittingError(ReproError, RuntimeError):
    """A distribution fit could not be performed on the given data."""


class TraceFormatError(ReproError, ValueError):
    """A packet trace file or record is malformed."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative numerical procedure failed to converge."""

    def __init__(self, message: str, iterations: int | None = None) -> None:
        self.iterations = iterations
        super().__init__(message)


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""

"""Span tracing from outside the program, and the per-layer metrics.

:class:`Wrappers` wraps the public functions at each layer boundary of
``repro`` — where each is defined *and* wherever a module imported it by
name — so every call records a :class:`Span` in a :class:`SpanRecorder`
held in memory.  Spans carry the process and thread that ran them and,
where a parent cannot be found by time alone, an explicit link: the
``QueueingMgfStack`` a lockstep round evaluated, or the request tags a
coalescer window carried.  Children may run on other threads (the
lockstep search threads, the daemon's executor threads), so parents and
children are matched by interval containment plus that link, never by a
thread-local stack.  :func:`layer_metrics` turns a list of spans into the
per-layer figures.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

from .stats import median

clock = time.monotonic_ns


class Span(NamedTuple):
    name: str
    start: int
    end: int
    pid: int
    tid: int
    #: Explicit parent/request id: an object id, a request tag, or a list
    #: of tags; ``None`` when time containment alone links the span.
    link: Any = None
    #: Work carried by the call (models in a plan), when meaningful.
    count: Optional[int] = None
    ok: bool = True


class SpanRecorder:
    """Spans kept in memory until :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(self, name: str, start: int, end: int, link: Any = None,
               count: Optional[int] = None, ok: bool = True) -> None:
        # list.append is atomic under the interpreter lock, so threads
        # record without a lock of their own.
        self.spans.append(
            Span(name, start, end, os.getpid(), threading.get_ident(), link, count, ok)
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")

    @staticmethod
    def load(path: str) -> List[Span]:
        with open(path, encoding="utf-8") as handle:
            return [
                Span(*(tuple(f) if isinstance(f, list) else f for f in json.loads(line)))
                for line in handle
                if line.strip()
            ]


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _tag_of(request: Any) -> Any:
    if isinstance(request, dict):
        return request.get("tag")
    return getattr(request, "tag", None)


def _window_tags(args, kwargs, result) -> Any:
    requests = args[1] if len(args) > 1 else kwargs.get("requests")
    if isinstance(requests, list):
        return tuple(_tag_of(r) for r in requests)
    return None


def _submit_tag(args, kwargs, result) -> Any:
    return _tag_of(args[1] if len(args) > 1 else kwargs.get("request"))


def _stack_id(args, kwargs, result) -> Any:
    stack = kwargs.get("stack_eval")
    return None if stack is None else id(stack)


def _self_id(args, kwargs, result) -> Any:
    return id(args[0])


def _probe_outcome(args, kwargs, result) -> Any:
    return None if result is None else result[1]


def _plan_models(args) -> Optional[int]:
    return len(args[0].indices)


#: (span name, module, attribute, link extractor, count extractor).  A
#: dotted attribute is a method on a class; a plain one is a module-level
#: function, patched in every ``repro`` module that holds it.
TARGETS = (
    ("fleet.serve", "repro.fleet", "Fleet.serve", None, None),
    ("fleet.serve_async", "repro.fleet", "AsyncFleet.serve_async", _window_tags, None),
    ("fleet.resolve", "repro.fleet", "Fleet.resolve_request", None, None),
    ("core.compile", "repro.core.rtt", "compile_eval_plans", None, None),
    ("core.execute", "repro.core.rtt", "execute_plan", None, _plan_models),
    ("core.build", "repro.core.rtt", "EvalPlan.build_models", None, None),
    ("core.search", "repro.core.inversion", "quantiles_from_mgfs", _stack_id, None),
    ("core.mgf", "repro.core.rtt", "QueueingMgfStack.__call__", _self_id, None),
    ("model.rtt_quantile", "repro.core.rtt", "ComposedRttModel.rtt_quantile", None, None),
    ("engine.admit", "repro.engine", "Engine.admit", None, None),
    ("surface.probe", "repro.surface.lookup", "SurfaceIndex.probe", _probe_outcome, None),
    ("surface.invert", "repro.surface.lookup", "QuantileSurface.invert_load", None, None),
    ("serve.submit", "repro.serve.coalescer", "RequestCoalescer.submit", _submit_tag, None),
)


def _wrap(name: str, fn: Callable, recorder: SpanRecorder, link_of, count_of) -> Callable:
    def finish(start, args, kwargs, result, ok):
        link = link_of(args, kwargs, result) if link_of is not None else None
        count = count_of(args) if count_of is not None else None
        recorder.record(name, start, clock(), link, count, ok)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            start, result, ok = clock(), None, False
            try:
                result = await fn(*args, **kwargs)
                ok = True
                return result
            finally:
                finish(start, args, kwargs, result, ok)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start, result, ok = clock(), None, False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            finish(start, args, kwargs, result, ok)

    return wrapper


class Wrappers:
    """The span wrappers of every target, installed as a whole by :meth:`on`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        import importlib

        #: (owner, attribute, original, wrapper)
        self._patches: List[tuple] = []
        for name, module_name, attribute, link_of, count_of in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                wrapper = _wrap(name, original, recorder, link_of, count_of)
                self._patches.append((owner, method, original, wrapper))
                continue
            original = getattr(module, attribute)
            wrapper = _wrap(name, original, recorder, link_of, count_of)
            for loaded_name, loaded in list(sys.modules.items()):
                if (loaded_name == "repro" or loaded_name.startswith("repro.")) and getattr(
                    loaded, attribute, None
                ) is original:
                    self._patches.append((loaded, attribute, original, wrapper))

    def on(self) -> None:
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)


# ----------------------------------------------------------------------
# Self time and per-layer metrics
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple], lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(parent: Span, children: Iterable[Span]) -> int:
    """The parent's duration minus what its children's union covers."""
    return (parent.end - parent.start) - covered(
        ((c.start, c.end) for c in children), parent.start, parent.end
    )


class _Index:
    """Spans of one name, sorted by start, for containment queries."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = sorted(spans, key=lambda s: s.start)
        self.starts = [s.start for s in self.spans]

    def inside(self, parent: Span) -> List[Span]:
        """The spans of the parent's process that lie inside its interval."""
        first = bisect.bisect_left(self.starts, parent.start)
        last = bisect.bisect_right(self.starts, parent.end)
        return [
            c for c in self.spans[first:last] if c.end <= parent.end and c.pid == parent.pid
        ]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ms(ns: float) -> float:
    return ns / 1e6


def window_waits_ms(spans: Sequence[Span]) -> List[float]:
    """Per coalesced request: its submit span minus the window's span.

    The window that answered a submit is the ``serve_async`` span whose
    request tags include the submit's tag and whose interval lies inside
    the submit's.
    """
    windows = _Index(s for s in spans if s.name == "fleet.serve_async")
    waits = []
    for submit in spans:
        if submit.name != "serve.submit" or submit.link is None:
            continue
        for window in windows.inside(submit):
            if window.link is not None and submit.link in window.link:
                waits.append(_ms((submit.end - submit.start) - (window.end - window.start)))
                break
    return waits


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of the span-derived layers (0 where unexercised)."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    # core.inversion: each search's self time excludes the stacked
    # evaluations of its own stack, wherever they ran.
    grouped: Dict[tuple, List[Span]] = defaultdict(list)
    for span in by_name["core.mgf"]:
        grouped[(span.pid, span.link)].append(span)
    mgf_by_stack = {key: _Index(group) for key, group in grouped.items()}
    searches = by_name["core.search"]
    search_self, rounds = [], []
    for search in searches:
        index = mgf_by_stack.get((search.pid, search.link))
        kids = index.inside(search) if index is not None else []
        rounds.append(len(kids))
        search_self.append(self_time(search, kids))

    executes = by_name["core.execute"]
    plans = len(executes)
    mgf_total = sum(s.end - s.start for s in by_name["core.mgf"])

    # engine: quantile evaluations run on the admitting thread.
    evals_by_thread: Dict[tuple, List[Span]] = defaultdict(list)
    for span in by_name["model.rtt_quantile"]:
        evals_by_thread[(span.pid, span.tid)].append(span)
    eval_index = {key: _Index(group) for key, group in evals_by_thread.items()}
    admits = by_name["engine.admit"]
    evals_per_admit = [
        len(eval_index[(a.pid, a.tid)].inside(a)) if (a.pid, a.tid) in eval_index else 0
        for a in admits
    ]

    # fleet: a serve span's self time excludes plan execution and admits.
    serve_children = _Index(by_name["core.execute"] + by_name["engine.admit"])
    serve_self = [
        self_time(serve, serve_children.inside(serve))
        for serve in by_name["fleet.serve"] + by_name["fleet.serve_async"]
    ]

    probes = by_name["surface.probe"]
    waits = window_waits_ms(spans)

    def mean_ms(name: str) -> float:
        return _ms(_mean([s.end - s.start for s in by_name[name]]))

    return {
        "core.inversion.search_self_ms": _ms(_mean(search_self)),
        "core.inversion.rounds_per_plan": _mean(rounds),
        "core.rtt.compile_ms": mean_ms("core.compile"),
        "core.rtt.plans": plans,
        "core.rtt.models_per_plan": _mean([s.count for s in executes if s.count is not None]),
        "core.rtt.build_ms": mean_ms("core.build"),
        "core.rtt.mgf_eval_ms": _ms(mgf_total / plans) if plans else 0.0,
        "core.rtt.stacked_mgf_calls": len(by_name["core.mgf"]),
        "core.rtt.execute_ms": mean_ms("core.execute"),
        "engine.admit_calls": len(admits),
        "engine.admit_ms": mean_ms("engine.admit"),
        "engine.quantile_evals_per_admit": _mean(evals_per_admit),
        "engine.admit_failures": sum(1 for a in admits if not a.ok),
        "fleet.resolve_us": mean_ms("fleet.resolve") * 1e3,
        "fleet.plan_assemble_self_ms": _ms(_mean(serve_self)),
        "surface.probes": len(probes),
        "surface.hit_ratio": (
            sum(1 for p in probes if p.link == "hit") / len(probes) if probes else 0.0
        ),
        "surface.probe_us": mean_ms("surface.probe") * 1e3,
        "surface.invert_us": mean_ms("surface.invert") * 1e3,
        "serve.coalescer.window_wait_p50_ms": median(waits) or 0.0,
    }


def submit_ms_by_tag(spans: Sequence[Span]) -> Dict[str, float]:
    """Duration of each tagged coalescer submit, by request tag."""
    return {
        s.link: _ms(s.end - s.start)
        for s in spans
        if s.name == "serve.submit" and isinstance(s.link, str)
    }


def between(spans: Sequence[Span], start: int, end: int) -> List[Span]:
    """The spans that lie wholly inside ``[start, end]``."""
    return [s for s in spans if s.start >= start and s.end <= end]

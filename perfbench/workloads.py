"""The two workloads: set-up, measured phase and checks.

Both drive an out-of-process ``fps-ping serve`` daemon with an open
loop; they differ in their request mix.  Each workload offers
``setup(recorder)`` → a serving stack, ``measure(stack, recorder)`` → a
:class:`Phase`, and ``teardown(stack, phase)``.  ``recorder`` is
``None`` for an untraced run; for a traced one the span wrappers are
installed in the daemon.  Correctness checks run after the timed part of
:meth:`measure` and land in ``Phase.problems``; any entry makes the run
incorrect.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import streams
from .daemon import Daemon
from .loadgen import HttpConnection, open_loop
from .spans import SpanRecorder, between, clock, submit_ms_by_tag
from .stats import median, percentile

#: Poisson arrival rate of both workloads, requests per second.
HTTP_RATE = 250.0
#: Connections the client drives the daemon over.
HTTP_CONNECTIONS = 2

#: The per-layer metric each tier's request latencies feed.
TIER_METRICS = {
    "lru": "tier.lru_hit_p50_ms",
    "surface": "tier.surface_hit_p50_ms",
    "cold": "tier.cold_p50_ms",
    "admit": "tier.admit_p50_ms",
}


@dataclass
class Phase:
    """What one measured phase produced (times in ns, latencies in ms)."""

    start: int = 0
    measured_end: int = 0
    #: One latency per request; a failed request counts as infinitely late.
    op_ms: List[float] = field(default_factory=list)
    throughput_rps: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per tier: its requests' latencies.
    tier_ms: Dict[str, List[float]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    #: Per-layer metrics not derived from spans.
    layer: Dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: The client's view of each request.
    outcomes: list = field(default_factory=list)

    @property
    def measured_s(self) -> float:
        return (self.measured_end - self.start) / 1e9


def build_surfaces():
    """Certified ``inversion`` surfaces for the surfaced presets."""
    from repro.scenarios.registry import get_scenario
    from repro.surface import SurfaceIndex
    from repro.surface.builder import build_surfaces as build

    index = SurfaceIndex()
    for name in streams.SURFACED:
        for surface in build(get_scenario(name), ("inversion",), **streams.SURFACE_REGION):
            index.add(surface)
    return index


def surface_hit_problem(surfaces, answer: Dict, truth: float) -> Optional[str]:
    """Why an answer is not a certified surface hit, or ``None``.

    A hit must equal the surface's own lookup at the answer's point (so
    the tier cannot drift silently) and lie within the surface's stored
    ``certified_rel_bound`` of the exact value ``truth``.
    """
    surface = surfaces.get(answer["scenario_key"], answer["method"])
    value = answer["rtt_quantile_s"]
    if (
        not answer["cached"]
        or surface is None
        or value != surface.lookup(answer["downlink_load"], answer["probability"])
    ):
        return "was not a surface hit"
    if abs(value - truth) > surface.certified_rel_bound * truth:
        return "lies outside the certified bound"
    return None


def _stats_delta(after: Dict, before: Dict, key: str) -> float:
    return after[key] - before[key]


def _fleet_layer(after: Dict, before: Dict) -> Dict[str, float]:
    hits = _stats_delta(after, before, "cache_hits")
    misses = _stats_delta(after, before, "cache_misses")
    return {
        "fleet.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fleet.evaluations": _stats_delta(after, before, "evaluations"),
    }


class HttpMixed:
    """Poisson arrivals over two keep-alive connections to ``fps-ping serve``.

    The daemon is traced or not for its whole life: a traced run measures
    an untraced phase, then a traced one on a fresh daemon.
    """

    #: The share of each tier in the stream.
    mix = streams.HTTP_MIX

    def __init__(self, seed: int, seconds: float, run_dir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.inputs = streams.HttpInputs(seed, self.mix)
        self.schedule = self.inputs.schedule(seconds, HTTP_RATE)
        self._setups = 0

    def setup(self, recorder: Optional[SpanRecorder]) -> Dict[str, Any]:
        from repro.surface import save_surfaces

        self._setups += 1
        surfaces_dir = os.path.join(self.run_dir, f"surfaces-{self._setups}")
        os.makedirs(surfaces_dir)
        save_surfaces(build_surfaces(), surfaces_dir)
        spans_path = None
        if recorder is not None:
            spans_path = os.path.join(self.run_dir, f"daemon-spans-{self._setups}.jsonl")
        daemon = Daemon(
            ["--surfaces", surfaces_dir],
            os.path.join(self.run_dir, f"daemon-{self._setups}.log"),
            spans_path,
        )
        daemon.start()
        loop = asyncio.new_event_loop()
        stack = {"daemon": daemon, "loop": loop, "connections": [], "surfaces_dir": surfaces_dir}
        try:
            stack["connections"] = loop.run_until_complete(self._connect(daemon))
            loop.run_until_complete(daemon.wait_healthy(stack["connections"][0]))
            body = "".join(json.dumps(r) + "\n" for r in self.inputs.warm).encode("utf-8")
            lines = loop.run_until_complete(
                stack["connections"][0].request("POST", "/v1/batch", body)
            ).splitlines()
            loaded = [json.loads(line) for line in lines if line.strip()]
            if len(loaded) != len(self.inputs.warm) or any("error" in a for a in loaded):
                raise RuntimeError("the warm set did not load")
        except BaseException:
            self._close(stack)
            daemon.kill()
            raise
        return stack

    @staticmethod
    async def _connect(daemon: Daemon) -> List[HttpConnection]:
        return [await HttpConnection.open(daemon.host, daemon.port) for _ in range(HTTP_CONNECTIONS)]

    @staticmethod
    def _close(stack: Dict[str, Any]) -> None:
        loop = stack["loop"]
        for connection in stack["connections"]:
            loop.run_until_complete(connection.close())
        loop.close()

    def teardown(self, stack: Dict[str, Any], phase: Optional[Phase]) -> None:
        daemon = stack["daemon"]
        try:
            self._close(stack)
            daemon.stop()
        finally:
            daemon.kill()
        if phase is not None and daemon.spans_path is not None:
            spans = SpanRecorder.load(daemon.spans_path)
            phase.spans = between(spans, phase.start, phase.measured_end)
            submit_ms = submit_ms_by_tag(phase.spans)
            phase.layer["serve.daemon.self_ms_per_req"] = median(
                [
                    outcome.service_ms - submit_ms[outcome.result["tag"]]
                    for outcome in phase.outcomes
                    if outcome.ok and outcome.result.get("tag") in submit_ms
                ]
            ) or 0.0

    def measure(self, stack: Dict[str, Any], recorder: Optional[SpanRecorder]) -> Phase:
        loop, connections, daemon = stack["loop"], stack["connections"], stack["daemon"]
        schedule = self.schedule
        before = loop.run_until_complete(connections[0].get_json("/stats"))

        async def send(connection: HttpConnection, index: int) -> Dict:
            _, tier, record = schedule[index]
            return await connection.post_json("/v1/admit" if tier == "admit" else "/v1/rtt", record)

        phase = Phase()
        # The client's own collector pauses would read as server latency.
        gc.collect()
        gc.disable()
        try:
            phase.start, outcomes = loop.run_until_complete(
                open_loop([due for due, _, _ in schedule], connections, send)
            )
        finally:
            gc.enable()
        phase.measured_end = max(outcome.done for outcome in outcomes)
        phase.outcomes = outcomes
        phase.attempted = len(outcomes)
        phase.throughput_rps = sum(1 for o in outcomes if o.ok) / phase.measured_s
        after = loop.run_until_complete(connections[0].get_json("/stats"))
        phase.peak_rss_mb = daemon.peak_rss_mb()
        for outcome in outcomes:
            tier = schedule[outcome.index][1]
            latency = outcome.latency_ms if outcome.ok else math.inf
            phase.op_ms.append(latency)
            phase.tier_ms.setdefault(tier, []).append(latency)
            if not outcome.ok:
                phase.failed += 1
                phase.problems.append(f"request {outcome.index} failed: {outcome.error}")
        phase.layer.update(self._layer(after, before, outcomes))
        self.check(stack, outcomes, phase)
        return phase

    @staticmethod
    def _layer(after: Dict, before: Dict, outcomes) -> Dict[str, float]:
        fleet_after, fleet_before = after["fleet"], before["fleet"]
        windows = _stats_delta(fleet_after, fleet_before, "coalesced_batches")
        layer = _fleet_layer(fleet_after, fleet_before)
        layer.update(
            {
                "serve.coalescer.windows": windows,
                "serve.coalescer.requests_per_window": (
                    _stats_delta(fleet_after, fleet_before, "coalesced_requests") / windows
                    if windows
                    else 0.0
                ),
                "serve.coalescer.deduped_inflight": _stats_delta(
                    fleet_after, fleet_before, "deduped_inflight"
                ),
                # The closing /stats request is counted before it reads.
                "serve.daemon.http_requests": _stats_delta(
                    after["server"], before["server"], "http_requests"
                ) - 1,
                "serve.daemon.http_errors": _stats_delta(
                    after["server"], before["server"], "http_errors"
                ),
                "loadgen.lag_p99_ms": percentile([o.lag_ms for o in outcomes], 99.0),
                "loadgen.conn_wait_p50_ms": median([o.conn_wait_ms for o in outcomes]),
            }
        )
        return layer

    def check(self, stack: Dict[str, Any], outcomes, phase: Phase) -> None:
        """Compare every answer with the in-process fleet and its tier."""
        from repro import Fleet
        from repro.surface import load_surfaces

        if phase.problems:
            return
        surfaces = load_surfaces(stack["surfaces_dir"])
        exact_records = [r for _, tier, r in self.schedule if tier != "admit"]
        exact = {
            record["tag"]: answer.rtt_quantile_s
            for record, answer in zip(exact_records, Fleet().serve(exact_records))
        }
        reference = Fleet()
        reference.attach_surfaces(surfaces)
        for outcome in outcomes:
            _, tier, record = self.schedule[outcome.index]
            answer = outcome.result
            where = f"{tier} request {record['tag']}"
            if answer.get("tag") != record["tag"]:
                phase.problems.append(f"{where} came back with tag {answer.get('tag')!r}")
            elif tier == "admit":
                expected = json.loads(json.dumps(reference.admit(record).to_dict()))
                if answer.get("source") != "surface":
                    phase.problems.append(f"{where} answered from {answer.get('source')}")
                elif answer != expected:
                    phase.problems.append(f"{where} differs from the in-process admit")
            elif answer["cached"] != (tier != "cold"):
                phase.problems.append(f"{where} came back cached={answer['cached']}")
            elif tier == "surface":
                problem = surface_hit_problem(surfaces, answer, exact[record["tag"]])
                if problem is not None:
                    phase.problems.append(f"{where} {problem}")
            elif answer["rtt_quantile_s"] != exact[record["tag"]]:
                phase.problems.append(f"{where} differs from the in-process fleet")
            if len(phase.problems) >= 20:
                return


class HttpWarm(HttpMixed):
    """The same daemon and rate with no cold requests: no exact path."""

    mix = streams.WARM_MIX


WORKLOADS = {
    "http-mixed": HttpMixed,
    "http-warm": HttpWarm,
}

#: The percentile ``latency_tail_ms`` reports per workload; a run with
#: too few requests for it fails.  The daemon's collector pauses (30-45
#: ms, one every few seconds) delay about 1% of the requests, so p99
#: swings between runs with the number of pauses (10-22 ms over five
#: seeds on http-mixed) while p95 holds still.
TAIL_LEVEL = {"http-mixed": 95.0, "http-warm": 95.0}

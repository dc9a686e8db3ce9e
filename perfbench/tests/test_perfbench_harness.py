"""Tests of the benchmark harness itself (no daemon, no network)."""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import streams  # noqa: E402
from perfbench.loadgen import open_loop  # noqa: E402
from perfbench.spans import Span, covered, layer_metrics, self_time, window_waits_ms  # noqa: E402
from perfbench.stats import MIN_BEYOND, TooFewSamples, percentile  # noqa: E402
from perfbench.workloads import TAIL_LEVEL  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99.0)
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90.0)
    assert percentile(list(range(1, 1001)), 99.0) == 990
    assert percentile(list(range(1, 101)), 90.0) == 90
    assert percentile([7.0], 50.0) == 7.0


def test_a_tail_level_is_never_lowered_to_fit_the_sample():
    for workload, level in TAIL_LEVEL.items():
        needed = round(100 * MIN_BEYOND / (100 - level))
        assert percentile(list(range(needed)), level) is not None
        with pytest.raises(TooFewSamples):
            percentile(list(range(needed - 1)), level)


# ----------------------------------------------------------------------
# Seeded streams
# ----------------------------------------------------------------------
def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_streams_are_deterministic_per_seed():
    for mix in (streams.HTTP_MIX, streams.WARM_MIX):
        first, second = streams.HttpInputs(3, mix), streams.HttpInputs(3, mix)
        assert first.warm == second.warm
        assert first.schedule(2.0, 250.0) == second.schedule(2.0, 250.0)
        assert streams.HttpInputs(4, mix).schedule(2.0, 250.0) != first.schedule(2.0, 250.0)


def test_stream_points_stay_in_their_tier():
    for mix in (streams.HTTP_MIX, streams.WARM_MIX):
        inputs = streams.HttpInputs(5, mix)
        warm = {(r["scenario"], r["load"]) for r in inputs.warm}
        schedule = inputs.schedule(4.0, 250.0)
        assert [due for due, _, _ in schedule] == sorted(due for due, _, _ in schedule)
        assert len({record["tag"] for _, _, record in schedule}) == len(schedule)
        assert {tier for _, tier, _ in schedule} == {tier for tier, _ in mix}
        for _, tier, record in schedule:
            point = (record["scenario"], record.get("load"))
            assert (point in warm) == (tier == "lru")
            assert (record["scenario"] in streams.SURFACED) == (tier in ("surface", "admit"))


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def test_a_stalled_connection_inflates_the_requests_due_after_it():
    async def send(connection, index):
        await asyncio.sleep(0.2 if index == 0 else 0.0)
        return index

    offsets = [0.0, 0.02, 0.04, 0.06, 0.4]
    start, outcomes = asyncio.run(open_loop(offsets, ["only"], send))
    assert all(o.ok for o in outcomes)
    for outcome in outcomes[1:4]:
        # Due during the stall: timed from when it was due, so the wait
        # for the stalled connection is in its latency.
        waited = 200.0 - 1e3 * offsets[outcome.index]
        assert outcome.latency_ms >= waited - 5.0
        assert outcome.conn_wait_ms >= waited - 5.0
    assert outcomes[4].latency_ms < 50.0
    assert [o.result for o in outcomes] == list(range(len(offsets)))


def test_a_failed_request_is_counted_not_raised():
    async def send(connection, index):
        if index == 1:
            raise ConnectionError("gone")
        return index

    _, outcomes = asyncio.run(open_loop([0.0, 0.0, 0.0], ["a", "b"], send))
    assert [o.ok for o in outcomes] == [True, False, True]
    assert "ConnectionError" in outcomes[1].error


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_covered_merges_overlapping_intervals():
    assert covered([(10, 30), (20, 50), (60, 70), (95, 120)], 0, 100) == 55
    assert covered([], 0, 100) == 0


def test_self_time_on_overlapping_spans_from_several_threads():
    parent = Span("core.search", 0, 100, 1, 11, link=7)
    children = [
        Span("core.mgf", 10, 30, 1, 21, link=7),
        Span("core.mgf", 20, 50, 1, 22, link=7),  # overlaps the first
        Span("core.mgf", 60, 70, 1, 23, link=7),
    ]
    assert self_time(parent, children) == 100 - 50
    spans = [
        parent,
        *children,
        Span("core.mgf", 80, 90, 1, 24, link=8),  # another stack's round
        Span("core.mgf", 95, 120, 1, 21, link=7),  # ends after the parent
        Span("core.mgf", 40, 45, 2, 21, link=7),  # another process
    ]
    metrics = layer_metrics(spans)
    assert metrics["core.inversion.search_self_ms"] == pytest.approx(50 / 1e6)
    assert metrics["core.inversion.rounds_per_plan"] == 3
    assert metrics["core.rtt.stacked_mgf_calls"] == 6


def test_window_wait_links_a_submit_to_the_window_that_answered_it():
    spans = [
        Span("serve.submit", 0, 50, 1, 1, link="r1"),
        Span("serve.submit", 5, 40, 1, 1, link="r2"),
        Span("fleet.serve_async", 10, 30, 1, 1, link=("r2",)),
        Span("fleet.serve_async", 32, 48, 1, 1, link=("r1", "r3")),
    ]
    assert sorted(window_waits_ms(spans)) == pytest.approx([15 / 1e6, 34 / 1e6])

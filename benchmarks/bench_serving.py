"""Benchmark — request coalescing vs. per-request asyncio serving.

PR 6 put a long-running front-end on the serving stack: concurrent
callers submit single requests, and the :class:`RequestCoalescer`
gathers everything arriving within a few milliseconds into **one**
stacked batch with identical in-flight misses single-flighted.  This
benchmark drives a duplicate-heavy concurrent stream (the shape a game
operator's dashboard produces: many clients asking about the same few
operating points at once) three ways and gates the coalescer's value:

* **sequential** — one ``serve_async`` call per request, awaited one
  after the other: the no-concurrency baseline;
* **raw concurrent** — ``asyncio.gather`` of per-request
  ``serve_async`` calls: concurrent, but every overlapping batch plans
  its own copy of the shared misses (duplicate work);
* **coalesced** — the same concurrent submissions through a
  :class:`RequestCoalescer`.

Acceptance criteria asserted here (ISSUE 6):

* coalesced wall-clock beats the sequential per-request baseline;
* the coalescer executes strictly fewer plans than the raw concurrent
  path on the duplicate-heavy stream (single-flight + windowing), and
  no more than one plan per distinct operating point;
* every answer is bit-identical to a one-shot ``Fleet.serve`` pass;
* the end-to-end HTTP daemon (in-process, ephemeral port) serves the
  same stream over ``POST /v1/rtt`` with bit-identical floats and
  drains cleanly;
* warm answer-cache hits from one sequential keep-alive client, at the
  default 2 ms coalescing window, are answered inline: p50 below
  1.0 ms and no window flushed during the hit phase;
* a lone cold miss from one sequential keep-alive client, at default
  settings, is flushed at the end of its loop turn instead of waiting
  out the coalescing delay: HTTP p50 within 1 ms of the in-process
  ``Fleet.serve`` p50 of the same requests;
* an ``exact=true`` ``/v1/admit`` over HTTP pays no delay per probe
  round either: p50 at most 1.5x the in-process ``Fleet.admit`` p50 of
  the same admits.
"""

import asyncio
import json
import statistics
import time

import pytest

from repro.fleet import AsyncFleet, Fleet, Request
from repro.serve import RequestCoalescer, ServingDaemon

from conftest import print_header, record_result

PROBABILITY = 0.99999

#: Fifteen distinct operating points across five access profiles ...
PRESETS = ("paper-dsl", "cable", "ftth", "lte", "satellite-leo")
LOADS = (0.25, 0.45, 0.65)

#: ... each asked about REPEATS times concurrently (duplicate-heavy).
REPEATS = 4


def _requests():
    distinct = [
        Request(preset, downlink_load=load, probability=PROBABILITY)
        for preset in PRESETS
        for load in LOADS
    ]
    # Interleave the repeats so duplicates never sit adjacent — the
    # worst case for naive batching, the common case for real traffic.
    return [request for _ in range(REPEATS) for request in distinct], len(distinct)


async def _serve_sequential(requests):
    fleet = AsyncFleet()
    answers = []
    for request in requests:
        answers.extend(await fleet.serve_async([request]))
    return fleet.fleet, answers


async def _serve_raw_concurrent(requests):
    fleet = AsyncFleet()
    batches = await asyncio.gather(
        *(fleet.serve_async([request]) for request in requests)
    )
    return fleet.fleet, [answer for batch in batches for answer in batch]


async def _serve_coalesced(requests):
    coalescer = RequestCoalescer(Fleet(), max_batch=len(requests), max_delay_ms=5.0)
    answers = await asyncio.gather(
        *(coalescer.submit(request) for request in requests)
    )
    await coalescer.aclose()
    return coalescer.fleet, list(answers)


async def _post(reader, writer, path, record):
    """One ``POST`` round trip on an open connection."""
    body = json.dumps(record).encode()
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n".encode()
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    payload = json.loads(await reader.readexactly(length))
    return status, payload


async def _post_rtt(reader, writer, request):
    """One ``POST /v1/rtt`` round trip on an open connection."""
    return await _post(reader, writer, "/v1/rtt", request.to_dict())


async def _serve_over_http(requests):
    async with ServingDaemon(port=0, coalesce_ms=5.0, max_batch=len(requests)) as daemon:
        async def one(request):
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            try:
                return await _post_rtt(reader, writer, request)
            finally:
                writer.close()

        results = await asyncio.gather(*(one(request) for request in requests))
        return daemon, results


async def _warm_hits_over_http(request, hits):
    """One sequential keep-alive client at the default coalescing window:
    a miss warms the answer cache, then ``hits`` timed repeats hit it."""
    async with ServingDaemon(port=0) as daemon:
        reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
        try:
            _, miss = await _post_rtt(reader, writer, request)
            windows = daemon.fleet.stats.coalesced_batches
            results, latencies = [], []
            for _ in range(hits):
                start = time.perf_counter()
                results.append(await _post_rtt(reader, writer, request))
                latencies.append(time.perf_counter() - start)
            windows = daemon.fleet.stats.coalesced_batches - windows
        finally:
            writer.close()
        return daemon, miss, results, latencies, windows


async def _paired_over_http(requests, path, serve_in_process):
    """Answer each request both in process and over HTTP, pair by pair.

    One sequential keep-alive client talks to a daemon at default
    settings; ``serve_in_process`` answers the same request on its own
    fleet.  Interleaving the pairs keeps host drift out of the
    comparison, and the side that goes first alternates so neither
    profits from the other having just run the same computation.
    Returns the daemon and one ``(expected, status, payload,
    in_process_s, http_s)`` row per request.
    """
    async with ServingDaemon(port=0) as daemon:
        reader, writer = await asyncio.open_connection(daemon.host, daemon.port)

        async def over_http(request):
            start = time.perf_counter()
            status, payload = await _post(reader, writer, path, request.to_dict())
            return status, payload, time.perf_counter() - start

        rows = []
        try:
            for index, request in enumerate(requests):
                if index % 2:
                    status, payload, http_s = await over_http(request)
                start = time.perf_counter()
                expected = serve_in_process(request)
                in_process_s = time.perf_counter() - start
                if not index % 2:
                    status, payload, http_s = await over_http(request)
                rows.append((expected, status, payload, in_process_s, http_s))
        finally:
            writer.close()
        return daemon, rows


def _p50_ms(seconds):
    return 1e3 * statistics.median(seconds)


@pytest.mark.benchmark(group="serving-daemon")
def test_coalesced_serving_vs_per_request(benchmark):
    requests, distinct = _requests()
    reference = Fleet().serve(requests)
    reference_quantiles = [a.rtt_quantile_s for a in reference]

    # -- sequential per-request baseline.
    start = time.perf_counter()
    sequential_fleet, sequential_answers = asyncio.run(_serve_sequential(requests))
    sequential_elapsed = time.perf_counter() - start

    # -- raw concurrent: overlapping single-request batches duplicate
    #    the in-flight misses.
    raw_fleet, raw_answers = asyncio.run(_serve_raw_concurrent(requests))

    # -- coalesced: the same concurrent submissions, one stacked window.
    start = time.perf_counter()
    coalesced_fleet, coalesced_answers = benchmark.pedantic(
        lambda: asyncio.run(_serve_coalesced(requests)), rounds=1, iterations=1
    )
    coalesced_elapsed = time.perf_counter() - start

    stats = coalesced_fleet.stats
    print_header("Request coalescing vs. per-request asyncio serving")
    print(f"requests (distinct x repeats)   : {len(requests)} "
          f"({distinct} x {REPEATS})")
    print(f"sequential wall time            : {sequential_elapsed * 1e3:.1f} ms")
    print(f"coalesced wall time             : {coalesced_elapsed * 1e3:.1f} ms")
    print(f"speedup vs sequential           : "
          f"{sequential_elapsed / coalesced_elapsed:.2f}x")
    print(f"plans: sequential / raw / coalesced : "
          f"{sequential_fleet.stats.plans_executed} / "
          f"{raw_fleet.stats.plans_executed} / {stats.plans_executed}")
    print(f"coalesced windows / requests    : {stats.coalesced_batches} / "
          f"{stats.coalesced_requests}")
    print(f"single-flighted duplicates      : {stats.deduped_inflight}")

    record_result(
        "serving",
        "coalesced_vs_per_request",
        requests=len(requests),
        distinct_points=distinct,
        sequential_s=sequential_elapsed,
        coalesced_s=coalesced_elapsed,
        speedup=sequential_elapsed / coalesced_elapsed,
        coalesced_windows=stats.coalesced_batches,
        deduped_inflight=stats.deduped_inflight,
    )

    # Acceptance: every path returns floats bit-identical to Fleet.serve.
    assert [a.rtt_quantile_s for a in sequential_answers] == reference_quantiles
    assert [a.rtt_quantile_s for a in raw_answers] == reference_quantiles
    assert [a.rtt_quantile_s for a in coalesced_answers] == reference_quantiles

    # Acceptance: the raw concurrent path duplicated in-flight misses on
    # the duplicate-heavy stream; the coalescer strictly reduces the
    # executed plans and never exceeds one evaluation per distinct point.
    assert raw_fleet.stats.evaluations > distinct
    assert stats.plans_executed < raw_fleet.stats.plans_executed
    assert stats.evaluations <= distinct

    # Acceptance: coalescing beats awaiting the requests one by one.
    assert coalesced_elapsed < sequential_elapsed


@pytest.mark.benchmark(group="serving-daemon")
def test_daemon_round_trip_over_http(benchmark):
    requests, distinct = _requests()
    reference = Fleet().serve(requests)
    reference_quantiles = [a.rtt_quantile_s for a in reference]

    start = time.perf_counter()
    daemon, results = benchmark.pedantic(
        lambda: asyncio.run(_serve_over_http(requests)), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start

    stats = daemon.fleet.stats
    print_header("In-process HTTP daemon round trip (POST /v1/rtt)")
    print(f"concurrent connections          : {len(requests)}")
    print(f"wall time                       : {elapsed * 1e3:.1f} ms")
    print(f"coalesced windows               : {stats.coalesced_batches}")
    print(f"single-flighted duplicates      : {stats.deduped_inflight}")
    print(f"evaluations (distinct points)   : {stats.evaluations} ({distinct})")
    print(f"http requests / errors          : {daemon.http_requests} / "
          f"{daemon.http_errors}")

    record_result(
        "serving",
        "daemon_http_round_trip",
        connections=len(requests),
        wall_s=elapsed,
        evaluations=stats.evaluations,
        http_requests=daemon.http_requests,
        http_errors=daemon.http_errors,
    )

    assert all(status == 200 for status, _ in results)
    assert [payload["rtt_quantile_s"] for _, payload in results] == reference_quantiles
    assert daemon.http_errors == 0
    assert stats.evaluations <= distinct
    # The daemon drained on __aexit__: the coalescer is closed and empty.
    assert daemon.draining is True
    assert daemon.coalescer.pending == 0
    assert daemon.coalescer.inflight_windows == 0


#: Timed warm hits of the sequential keep-alive client.
WARM_HITS = 200


@pytest.mark.benchmark(group="serving-daemon")
def test_warm_hits_skip_the_coalescing_window(benchmark):
    request = Request("ftth", downlink_load=0.40, probability=PROBABILITY)
    [reference] = Fleet().serve([request])

    daemon, miss, results, latencies, windows = benchmark.pedantic(
        lambda: asyncio.run(_warm_hits_over_http(request, WARM_HITS)),
        rounds=1,
        iterations=1,
    )
    latencies_ms = sorted(1e3 * latency for latency in latencies)
    p50_ms = statistics.median(latencies_ms)
    p99_ms = latencies_ms[int(0.99 * (len(latencies_ms) - 1))]
    coalesce_ms = 1e3 * daemon.coalescer.max_delay_s

    print_header("Warm LRU hits over HTTP at the default coalescing window")
    print(f"coalescing window               : {coalesce_ms:g} ms")
    print(f"sequential keep-alive hits      : {WARM_HITS}")
    print(f"hit latency p50 / p99           : {p50_ms:.3f} / {p99_ms:.3f} ms")
    print(f"windows during the hit phase    : {windows}")
    print(f"inline hits                     : {daemon.fleet.stats.inline_hits}")

    record_result(
        "serving",
        "warm_hits_over_http",
        hits=WARM_HITS,
        coalesce_ms=coalesce_ms,
        hit_p50_ms=p50_ms,
        hit_p99_ms=p99_ms,
        hit_phase_windows=windows,
        inline_hits=daemon.fleet.stats.inline_hits,
    )

    assert miss["cached"] is False
    assert all(status == 200 for status, _ in results)
    assert all(payload["cached"] is True for _, payload in results)
    assert all(
        payload["rtt_quantile_s"] == reference.rtt_quantile_s for _, payload in results
    )
    # Acceptance: a warm hit is answered inline, never windowed, so it
    # costs far less than the 2 ms window it used to wait out.
    assert windows == 0
    assert p50_ms < 1.0


#: Distinct cold operating points for the lone-miss client: four access
#: profiles x 30 loads, each asked exactly once.
COLD_PRESETS = ("paper-dsl", "cable", "ftth", "lte")
COLD_LOADS = tuple(round(0.20 + 0.01 * index, 2) for index in range(30))


@pytest.mark.benchmark(group="serving-daemon")
def test_lone_cold_miss_skips_the_coalescing_delay(benchmark):
    requests = [
        Request(preset, downlink_load=load, probability=PROBABILITY)
        for load in COLD_LOADS
        for preset in COLD_PRESETS
    ]
    fleet = Fleet()

    daemon, rows = benchmark.pedantic(
        lambda: asyncio.run(
            _paired_over_http(
                requests, "/v1/rtt", lambda request: fleet.serve([request])[0]
            )
        ),
        rounds=1,
        iterations=1,
    )
    in_process_p50_ms = _p50_ms([row[3] for row in rows])
    http_p50_ms = _p50_ms([row[4] for row in rows])
    stats = daemon.fleet.stats

    print_header("Lone cold misses over HTTP at default settings")
    print(f"coalescing delay bound          : "
          f"{1e3 * daemon.coalescer.max_delay_s:g} ms")
    print(f"sequential cold requests        : {len(requests)}")
    print(f"in-process Fleet.serve p50      : {in_process_p50_ms:.3f} ms")
    print(f"HTTP p50                        : {http_p50_ms:.3f} ms")
    print(f"windows / requests per window   : {stats.coalesced_batches} / "
          f"{stats.coalesced_requests / max(stats.coalesced_batches, 1):.2f}")

    record_result(
        "serving",
        "lone_cold_miss_over_http",
        requests=len(requests),
        in_process_p50_ms=in_process_p50_ms,
        http_p50_ms=http_p50_ms,
        windows=stats.coalesced_batches,
    )

    assert all(status == 200 for _, status, _, _, _ in rows)
    assert all(payload["cached"] is False for _, _, payload, _, _ in rows)
    assert all(
        payload["rtt_quantile_s"] == expected.rtt_quantile_s
        for expected, _, payload, _, _ in rows
    )
    # Acceptance: an idle daemon flushes a lone miss at the end of its
    # loop turn, so HTTP adds transport cost, not the coalescing delay.
    assert http_p50_ms <= in_process_p50_ms + 1.0


#: Exact admits for the sequential admit client: distinct budgets of
#: 30-109 ms over four access profiles (some unmeetable: a negative
#: answer, not an error).
ADMIT_BUDGETS_MS = tuple(30.0 + index for index in range(80))


@pytest.mark.benchmark(group="serving-daemon")
def test_exact_admits_skip_the_coalescing_delay(benchmark):
    requests = [
        Request(
            COLD_PRESETS[index % len(COLD_PRESETS)],
            kind="admit",
            rtt_budget_ms=budget,
            probability=PROBABILITY,
            exact=True,
        )
        for index, budget in enumerate(ADMIT_BUDGETS_MS)
    ]
    fleet = Fleet()

    daemon, rows = benchmark.pedantic(
        lambda: asyncio.run(_paired_over_http(requests, "/v1/admit", fleet.admit)),
        rounds=1,
        iterations=1,
    )
    in_process_p50_ms = _p50_ms([row[3] for row in rows])
    http_p50_ms = _p50_ms([row[4] for row in rows])
    stats = daemon.fleet.stats

    print_header("Exact admits over HTTP at default settings")
    print(f"sequential exact admits         : {len(requests)}")
    print(f"in-process Fleet.admit p50      : {in_process_p50_ms:.3f} ms")
    print(f"HTTP p50                        : {http_p50_ms:.3f} ms")
    print(f"HTTP / in-process               : "
          f"{http_p50_ms / in_process_p50_ms:.2f}x")
    print(f"probe windows / inline hits     : {stats.coalesced_batches} / "
          f"{stats.inline_hits}")

    record_result(
        "serving",
        "exact_admits_over_http",
        admits=len(requests),
        in_process_p50_ms=in_process_p50_ms,
        http_p50_ms=http_p50_ms,
        ratio=http_p50_ms / in_process_p50_ms,
        windows=stats.coalesced_batches,
    )

    assert all(status == 200 for _, status, _, _, _ in rows)
    assert stats.admit_exact == len(requests)
    for expected, _, payload, _, _ in rows:
        reference = json.loads(json.dumps(expected.to_dict()))
        assert {key: payload[key] for key in reference} == reference
    # Acceptance: each probe round is flushed at the end of its loop
    # turn instead of waiting out the coalescing delay.
    assert http_p50_ms <= 1.5 * in_process_p50_ms

"""Quickstart: predict the ping time of a DSL gaming scenario.

This example reproduces the headline calculation of Section 4 of the
paper: 80 gamers (a 40% downlink load) share a 5 Mbit/s gaming share of
the aggregation link, the game sends 125-byte updates every 40 ms, and
the burst sizes follow an Erlang distribution of order 9.  The model
predicts the 99.999% quantile of the round-trip "ping" time — about
50 ms, the threshold for excellent game play.

Run with::

    python examples/quickstart.py
"""

import asyncio
import json
from contextlib import AsyncExitStack

from repro import (
    AsyncFleet,
    Engine,
    Fleet,
    ParallelExecutor,
    PingTimeModel,
    RemoteExecutor,
    Request,
    Scenario,
    ServingDaemon,
    ValidationFleet,
    available_scenarios,
    get_scenario,
)


def scenario_engine_quickstart() -> None:
    """The scenario-first API: one typed parameter object, one engine.

    A :class:`Scenario` bundles the nine access-network parameters (with
    validation and JSON round-tripping); an :class:`Engine` evaluates it
    through its fleet, so sweeps, dimensioning and point queries share
    one answer cache and every evaluation shows up in the fleet's stats.
    """
    scenario = Scenario(tick_interval_s=0.040)     # paper DSL baseline, T = 40 ms
    engine = Engine(scenario)                      # 99.999% quantile by default

    print("Scenario-first quickstart")
    print(f"  presets available        : {', '.join(available_scenarios())}")
    print(f"  same as preset           : "
          f"{scenario == get_scenario('paper-dsl-tick40')}")
    print(f"  JSON round-trip          : "
          f"{Scenario.from_json(scenario.to_json()) == scenario}")

    # Point query, dimensioning and an 18-point sweep share one cache.
    rtt_ms = 1e3 * engine.rtt_quantile(0.40)
    result = engine.dimension(0.050)
    series = engine.sweep()
    print(f"  RTT at 40% load          : {rtt_ms:6.2f} ms")
    print(f"  max load for RTT<=50 ms  : {result.max_load:.0%}"
          f" ({result.max_gamers} gamers)")
    print(f"  sweep points evaluated   : {len(series.points)}"
          f" (evaluations: {engine.fleet.stats.evaluations},"
          f" cache hits: {engine.fleet.stats.cache_hits})")
    print()


def fleet_quickstart() -> None:
    """The request-stream workflow: many scenarios, one serving pass.

    A :class:`Fleet` multiplexes :class:`Request` values — scenario plus
    operating point, optionally per-request quantile level — across
    internally-managed engines behind one bounded LRU cache, and its
    stacked inverter answers a heterogeneous batch with a few joint
    array evaluations.  The same workflow is available from the shell
    by authoring the requests as JSONL::

        $ cat lookups.jsonl
        {"scenario": "ftth", "load": 0.4}
        {"scenario": "satellite-leo", "gamers": 500, "tag": "leo"}
        $ fps-ping fleet --requests lookups.jsonl --warm-cache cache.json

    which emits one JSON answer per line and persists the cache so the
    next run starts warm (``fps-ping scenarios list`` enumerates the
    preset names usable in request files).
    """
    fleet = Fleet(max_cache_entries=10_000)
    answers = fleet.serve(
        [
            Request("paper-dsl-tick40", downlink_load=0.40),
            Request("ftth", downlink_load=0.40),
            Request("satellite-leo", num_gamers=500.0),
        ]
    )
    # A later batch repeating an operating point is a cache hit.
    answers += fleet.serve([Request("ftth", downlink_load=0.40)])
    print("Request-stream quickstart (one Fleet, many scenarios)")
    for answer in answers:
        print(
            f"  {answer.scenario_key}  load={answer.downlink_load:6.1%}"
            f"  RTT={answer.rtt_quantile_ms:6.2f} ms"
            f"  {'cache hit' if answer.cached else 'evaluated'}"
        )
    stats = fleet.stats
    print(
        f"  evaluations: {stats.evaluations}, cache hits: {stats.cache_hits},"
        f" stacked MGF array calls: {stats.stacked_mgf_calls}"
    )
    print()


def parallel_quickstart() -> None:
    """Plan/execute/assemble: the same stream on worker processes.

    :meth:`Fleet.serve` compiles its cache misses into picklable,
    self-contained evaluation plans; any executor may run them.  A
    :class:`ParallelExecutor` fans the plans out over a process pool —
    the stacked groups are embarrassingly parallel — and returns floats
    **bit-identical** to the serial path, whatever the worker count.
    The same switch is one flag on the CLI::

        $ fps-ping fleet --requests lookups.jsonl --workers 4

    For long-running asyncio services, :class:`AsyncFleet` awaits the
    execute phase so the event loop stays free::

        fleet = AsyncFleet(max_cache_entries=10_000)
        answers = await fleet.serve_async(requests, executor=executor)
    """
    requests = [
        Request(preset, downlink_load=load)
        for preset in ("paper-dsl", "ftth", "cloud-gaming")
        for load in (0.3, 0.5, 0.7)
    ]
    serial = Fleet().serve(requests)

    fleet = Fleet()
    with ParallelExecutor(workers=2) as executor:
        parallel = fleet.serve(requests, executor=executor)

        async def served_async():
            answers = await AsyncFleet().serve_async(requests, executor=executor)
            return [a.rtt_quantile_s for a in answers]

        async_values = asyncio.run(served_async())

    identical = [a.rtt_quantile_s for a in parallel] == [
        a.rtt_quantile_s for a in serial
    ]
    print("Parallel quickstart (plan -> execute -> assemble)")
    print(f"  requests served          : {len(requests)} over 2 worker processes")
    print(f"  plans executed remotely  : {fleet.stats.remote_plans}"
          f" of {fleet.stats.plans_executed}")
    print(f"  bit-identical to serial  : {identical}")
    print(f"  AsyncFleet identical too : "
          f"{async_values == [a.rtt_quantile_s for a in serial]}")
    print()


def serving_daemon_quickstart() -> None:
    """The serving daemon: a long-running HTTP front-end over one fleet.

    ``fps-ping serve`` turns the fleet into a network service — stdlib
    asyncio only, no HTTP framework.  A ``POST /v1/rtt`` miss on an idle
    daemon is served at once; concurrent callers missing while a window
    executes are gathered into the next stacked batch (identical
    in-flight misses are evaluated exactly once), ``POST /v1/batch``
    streams a JSONL body through bounded windows with the answers
    chunked back in input order, and SIGTERM drains gracefully,
    persisting the warm cache atomically::

        $ fps-ping serve --port 8421 --workers 4 --coalesce-ms 2 \\
              --warm-cache cache.json
        $ curl -X POST http://127.0.0.1:8421/v1/rtt \\
              -d '{"scenario": "ftth", "load": 0.4}'

    Embedded in an existing asyncio program the same daemon is an async
    context manager (``port=0`` binds an ephemeral port) — used below to
    answer one request over a real socket, in process.
    """

    async def main():
        async with ServingDaemon(port=0, coalesce_ms=1.0) as daemon:
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            body = b'{"scenario": "ftth", "load": 0.4, "tag": "quickstart"}'
            writer.write(
                b"POST /v1/rtt HTTP/1.1\r\nHost: quickstart\r\n"
                + b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status = (await reader.readline()).decode().strip()
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            payload = json.loads(await reader.readexactly(length))
            writer.close()
            port = daemon.port
        # Leaving the context manager drained the daemon gracefully.
        return port, status, payload, daemon.fleet.stats

    port, status, payload, stats = asyncio.run(main())
    print("Serving-daemon quickstart (POST /v1/rtt over a real socket)")
    print(f"  ephemeral port           : {port}")
    print(f"  response                 : {status}")
    print(f"  RTT for tag={payload['tag']!r}  : {1e3 * payload['rtt_quantile_s']:6.2f} ms")
    print(f"  coalesced windows        : {stats.coalesced_batches}")
    print()


def distributed_quickstart() -> None:
    """Distributed serving: fan plans out to worker daemons over TCP.

    The execute phase of the plan/execute/assemble pipeline is
    transport-pluggable: a :class:`RemoteExecutor` ships each compiled
    :class:`~repro.core.rtt.EvalPlan` to worker daemons over the
    length-prefixed :mod:`repro.serve.wire` protocol, keeps per-host
    health, and fails a killed worker over to the survivors — with
    floats bit-identical to the serial path, because *where* a plan
    runs never changes its arithmetic.  On real machines each tier is
    one shell::

        host-a $ fps-ping serve --worker-mode --port 9101 --workers 4
        host-b $ fps-ping serve --worker-mode --port 9101 --workers 4
        front  $ fps-ping serve --port 8421 --coalesce-ms 2 \\
              --remote host-a:9101,host-b:9101

    (batch-style: ``fps-ping fleet --remote host-a:9101,host-b:9101
    --requests stream.jsonl``).  Plan frames carry pickled payloads,
    so worker daemons belong on a trusted network segment only — the
    same trust tier as the process pool they replace.  Below, the
    "hosts" are two in-process worker-mode daemons on ephemeral ports.
    """
    # Two quantile probabilities compile into two independent plans, so
    # the stream genuinely spreads over both worker daemons below.
    requests = [
        Request(preset, downlink_load=load, probability=probability)
        for probability in (0.999, 0.99999)
        for preset in ("ftth", "cable", "lte")
        for load in (0.30, 0.45, 0.60)
    ]

    async def main():
        async with AsyncExitStack() as stack:
            workers = [
                await stack.enter_async_context(
                    ServingDaemon(port=0, worker_mode=True)
                )
                for _ in range(2)
            ]
            executor = RemoteExecutor(
                ",".join(f"{worker.host}:{worker.port}" for worker in workers)
            )
            stack.callback(executor.close)
            fleet = Fleet()
            answers = await AsyncFleet(fleet).serve_async(
                requests, executor=executor
            )
            return answers, fleet.stats

    answers, stats = asyncio.run(main())
    serial = [a.rtt_quantile_s for a in Fleet().serve(requests)]
    print("Distributed quickstart (plans on the wire to 2 worker daemons)")
    for host, entry in stats.hosts.items():
        print(f"  worker {host:<17}: {entry['plans']} plan(s),"
              f" {1e3 * entry['wire_s']:6.2f} ms on the wire")
    print(f"  bit-identical to serial  : "
          f"{[a.rtt_quantile_s for a in answers] == serial}")
    print()


def certified_surfaces_quickstart() -> None:
    """Certified surfaces: build once, serve the steady state in O(1).

    A long-running service answers the same narrow band of operating
    points all day.  ``build_surface`` fits a Chebyshev surface of the
    RTT quantile over that band against the exact stacked path,
    refining its grid until a *certified* relative error bound meets
    the requested tolerance — the bound is stored on the surface and
    travels with it through JSON persistence.  A fleet with surfaces
    attached answers every in-region request by evaluating the
    polynomial (microseconds, zero evaluation plans) and silently
    falls back to the exact path for anything else; a request carrying
    ``exact=True`` always gets the exact stacked floats.  From the
    shell the same split is ``build`` once, ``--surfaces`` forever::

        $ fps-ping surface build --scenario paper-dsl --out surfaces/
        $ fps-ping serve --surfaces surfaces/      # O(1) warm path
    """
    from repro import build_surface

    scenario = get_scenario("paper-dsl")
    surface = build_surface(
        scenario,
        "inversion",
        load_lo=0.30,
        load_hi=0.60,
        probability_lo=0.9999,
        probability_hi=0.999999,
        tolerance=1e-3,
    )

    fleet = Fleet()
    fleet.attach_surfaces(surface)
    loads = (0.35, 0.42, 0.49, 0.56)
    answers = fleet.serve(
        [Request("paper-dsl", downlink_load=load) for load in loads]
    )
    [exact] = fleet.serve(
        [Request("paper-dsl", downlink_load=0.42, exact=True)]
    )

    print("Certified-surface quickstart (the O(1) warm serving tier)")
    print(f"  certified region         : load [{surface.load_lo}, {surface.load_hi}],"
          f" p [{surface.probability_lo}, {surface.probability_hi}]")
    print(f"  certified rel error      : {surface.certified_rel_bound:.2e}"
          f" (grid {surface.coef.shape[0]}x{surface.coef.shape[1]})")
    for answer in answers:
        print(f"  load={answer.downlink_load:4.0%}  RTT={answer.rtt_quantile_ms:6.2f} ms"
              f"  (surface)")
    print(f"  exact=True at 42% load   : {exact.rtt_quantile_ms:6.2f} ms"
          f" (stacked path)")
    stats = fleet.stats
    print(f"  surface hits / fallbacks : {stats.surface_hits} / {stats.surface_fallbacks},"
          f" plans executed: {stats.plans_executed}")
    print()


def multi_server_quickstart() -> None:
    """Multi-server mixes: several game servers on one reserved pipe.

    Section 3.2 of the paper models servers multiplexed over a shared
    bit pipe as an N*D/G/1 queue, approximated by M/G/1 with a
    rate-weighted Erlang service mixture.  A :class:`MixScenario`
    expresses that workload from ordinary per-game presets — here the
    registry's ``multi-game-dsl``: Counter-Strike, Quake III and
    Half-Life traffic sharing a 10 Mbit/s pipe — and serves through the
    very same Fleet/plan/executor machinery as every single-server
    scenario (mixes work in JSONL request files and ``--warm-cache``
    persistence too).  ``tagged_variant(i)`` asks for the RTT of game
    ``i``'s gamers on the same mix; ``fps-ping compare-mix`` tabulates
    the mix against dedicated per-game capacity slices.
    """
    mix = get_scenario("multi-game-dsl")
    fleet = Fleet()
    answers = fleet.serve(
        [
            Request(mix.tagged_variant(index), downlink_load=0.40, tag=str(index))
            for index in range(len(mix.components))
        ]
    )
    print("Multi-server mix quickstart (one pipe, three game servers)")
    total = mix.gamers_at_load(0.40)
    print(f"  shared pipe              : {mix.aggregation_rate_bps / 1e6:.0f} Mbit/s,"
          f" {total:.0f} gamers at 40% load")
    for answer, component in zip(answers, mix.components):
        print(
            f"  tick={component.scenario.tick_interval_s * 1e3:3.0f}ms"
            f" share={component.weight:4.0%}"
            f"  RTT={answer.rtt_quantile_ms:6.2f} ms"
        )
    print(f"  stacked MGF array calls  : {fleet.stats.stacked_mgf_calls}"
          f" (all tagged views in lockstep)")
    print()


def validation_fleet_quickstart() -> None:
    """The validation fleet: batched Monte-Carlo ground truth in seconds.

    Every quantile the serving tiers hand out traces back to the
    Section 3 transform algebra; :mod:`repro.validate` checks that
    algebra against sampled ground truth fast enough to run on every
    commit.  The scalar Lindley loop ``w = max(0, w + b - T)`` becomes
    one 2-D numpy recursion over hundreds of replications —
    bit-identical to the per-sample loop and >= 20x faster at the 400k
    samples a far tail needs — seeded through ``SeedSequence.spawn`` so
    replication ``r`` draws the same numbers whatever the fleet size.
    On top of it a :class:`ValidationFleet` sweeps presets x quantile
    methods x load points against the batched Monte-Carlo composition
    of the full queueing delay, judging each case with a per-method
    tolerance band: the exact methods (inversion, erlang-sum) two-sided,
    the bounding methods (chernoff, sum-of-quantiles) as conservative
    upper bounds.  Mixes are swept through the same bands against the
    true simulated mixture queue — sampled ground truth the one-pole
    eq. (14) approximation never touches.  The same sweep is one shell
    line (and a CI gate)::

        $ fps-ping validate --preset all --methods all
    """
    fleet = ValidationFleet(
        ("paper-dsl", "multi-game-dsl"),
        ("inversion", "chernoff"),
        n_samples=2_000,
        n_reps=40,
    )
    report = fleet.run()
    print("Validation-fleet quickstart (analytics vs batched Monte-Carlo)")
    for case in report.cases:
        flavour = "mix " if case.is_mix else "    "
        print(
            f"  {case.preset:<16} {flavour}{case.method:<10}"
            f" load={case.downlink_load:4.0%}"
            f"  rel={case.rel_error:+7.3f}  [{case.band}]"
            f"  {'ok' if case.passed else 'FAIL'}"
        )
    print(f"  verdict                  : "
          f"{'PASS' if report.passed else 'FAIL'} "
          f"({len(report.cases)} cases in {report.elapsed_s:.2f}s)")
    print()


def main() -> None:
    scenario_engine_quickstart()
    fleet_quickstart()
    parallel_quickstart()
    serving_daemon_quickstart()
    distributed_quickstart()
    certified_surfaces_quickstart()
    multi_server_quickstart()
    validation_fleet_quickstart()

    model = PingTimeModel.from_downlink_load(
        0.40,
        tick_interval_s=0.040,           # server tick T = 40 ms
        client_packet_bytes=80.0,        # P_C
        server_packet_bytes=125.0,       # P_S
        erlang_order=9,                  # burst-size Erlang order K
        access_uplink_bps=128_000.0,     # DSL uplink
        access_downlink_bps=1_024_000.0, # DSL downlink
        aggregation_rate_bps=5_000_000.0,  # gaming share of the bottleneck
    )

    print("Scenario")
    print(f"  gamers sharing the link : {model.num_gamers:.0f}")
    print(f"  downlink load           : {model.downlink_load:.0%}")
    print(f"  uplink load             : {model.uplink_load:.0%}")
    print()

    breakdown = model.breakdown()
    print("Delay breakdown (99.999% quantiles of the individual components)")
    print(f"  serialization            : {1e3 * breakdown.serialization_s:6.2f} ms")
    print(f"  upstream queueing        : {1e3 * breakdown.upstream_queueing_s:6.2f} ms")
    print(f"  downstream burst waiting : {1e3 * breakdown.downstream_burst_s:6.2f} ms")
    print(f"  in-burst packet position : {1e3 * breakdown.packet_position_s:6.2f} ms")
    print()

    print("Round-trip time (ping) prediction")
    print(f"  mean RTT                 : {1e3 * model.mean_rtt():6.2f} ms")
    for probability in (0.99, 0.999, 0.99999):
        rtt_ms = model.rtt_quantile_ms(probability)
        print(f"  {100 * probability:7.3f}% RTT quantile : {rtt_ms:6.2f} ms")
    print()

    bound = model.deterministic_bound()
    print("Worst-case (network-calculus style) baseline")
    print(f"  deterministic RTT bound  : {bound.rtt_bound_ms:6.2f} ms")


if __name__ == "__main__":
    main()

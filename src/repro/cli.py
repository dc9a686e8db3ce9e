"""Command-line interface.

``fps-ping`` (or ``python -m repro``) exposes the experiment drivers,
the RTT calculator and the request-stream serving layer from the shell::

    fps-ping rtt --load 0.4 --erlang-order 9 --tick-ms 40
    fps-ping rtt --scenario counter-strike --load 0.3 --json
    fps-ping dimension --rtt-bound-ms 50 --scenario lte
    fps-ping admit --rtt-budget-ms 60 --scenario paper-dsl --gamers 10
    fps-ping admit --rtt-budget-ms 60 --scenario paper-dsl --surfaces surfaces/
    fps-ping table1 | table2 | table3 | figure1 | figure3 | figure4
    fps-ping compare-access
    fps-ping simulate --clients 40 --duration 30
    fps-ping validate --preset all --methods all
    fps-ping scenarios list
    fps-ping fleet --requests lookups.jsonl --warm-cache fleet-cache.json
    fps-ping serve --port 8421 --workers 4 --coalesce-ms 2 --max-batch 64
    fps-ping serve --port 9101 --worker-mode          # plan-executing worker
    fps-ping serve --remote 127.0.0.1:9101,127.0.0.1:9102   # front-end
    fps-ping surface build --scenario paper-dsl --out surfaces/
    fps-ping surface info surfaces/
    fps-ping serve --surfaces surfaces/               # O(1) warm path

``--scenario`` accepts a preset name (see
:func:`repro.scenarios.available_scenarios`) or a path to a JSON file
written with :meth:`repro.scenarios.Scenario.save`; individual flags
given on the command line override the preset's values.  ``--json``
switches every subcommand to machine-readable output.

``fleet`` reads one JSON request per line (``{"scenario": "ftth",
"load": 0.4}``, see :meth:`repro.fleet.Request.from_dict` for the
accepted fields) and emits one JSON answer per line, **streaming**: the
input is parsed and served in bounded windows (``--window`` requests
each, at most ``--max-inflight`` windows in flight) with each answer
written as soon as its window — and every window before it — has been
served, so memory stays flat on an arbitrarily long stream;
``--warm-cache PATH`` restores the cache before serving and persists it
afterwards, so repeated runs start warm, and ``--workers N`` fans the
compiled evaluation plans out over ``N`` worker processes (the answers
are bit-identical to the single-process run).  ``scenarios list``
enumerates the registered presets with their key parameters, so request
files can be authored without reading the source.

``serve`` runs the long-running asyncio HTTP daemon
(:class:`repro.serve.ServingDaemon`): ``POST /v1/rtt`` answers one
request record, ``POST /v1/batch`` streams a JSONL body through the
same bounded windows, ``GET /healthz`` / ``GET /stats`` report
liveness and the fleet/coalescer counters.  Warm hits are answered at
once; a miss on an idle daemon flushes at once, and misses arriving
while a window executes are coalesced into the next stacked micro-batch
(held at most ``--coalesce-ms``, at most ``--max-batch`` requests) with
identical in-flight misses evaluated once;
SIGTERM/SIGINT drains gracefully and persists ``--warm-cache``.

The distributed tier splits ``serve`` into two roles: ``--worker-mode``
daemons additionally expose ``POST /v1/plan`` and execute the framed
evaluation plans a front-end ships them, and ``--remote host:port,...``
makes a front-end (``serve``) or a one-shot stream run (``fleet``) fan
its plans out over those workers with per-host failover — answers stay
bit-identical to the in-process run.  Worker daemons accept pickled
plan frames, so bind them only inside the serving cluster's trust
boundary.

``validate`` runs the vectorized validation fleet
(:class:`repro.validate.ValidationFleet`): every requested preset x
quantile method x load point is checked against a batched Monte-Carlo
reference (numpy 2-D Lindley recursion, replication-count-invariant
``SeedSequence.spawn`` seeding) within the per-method tolerance bands of
:data:`repro.validate.METHOD_BANDS`.  The sweep covers the full registry
— including multi-server mixes — in CI smoke time; the exit code is 0
only if every case lands inside its band.

``admit`` answers the operator's admission-control question: given an
RTT budget (in ms) and a quantile level, what is the largest load — and
gamer count — this scenario can carry while still meeting the budget,
and should a proposed operating point (``--load`` or ``--gamers``) be
admitted?  With ``--surfaces`` the answer comes from an O(1) certified
surface inversion (zero evaluation plans executed in-region); without
them, or with ``--exact``, the bit-identical exact search runs.  An
unmeetable budget is a negative *answer* (``admitted: no``, max load
0), not an error.

``surface build`` fits certified Chebyshev quantile surfaces
(:mod:`repro.surface`) for one scenario and persists them as JSON;
``surface info`` describes persisted surfaces (region, grid, certified
bound).  ``fleet --surfaces PATH`` and ``serve --surfaces PATH`` attach
the persisted surfaces so in-region requests are answered in O(1) from
the fitted polynomial, within each surface's certified relative error
bound, without ever compiling an evaluation plan; requests carrying
``"exact": true`` (and any out-of-region request) fall through to the
exact stacked path with bit-identical floats.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import json
import os
import sys
from typing import Any, List, Optional

import numpy as np

from . import experiments
from .core.rtt import QUANTILE_METHODS
from .engine import Engine
from .errors import ReproError
from .executors import ParallelExecutor, RemoteExecutor
from .fleet import Fleet, Request
from .netsim import GamingSimulation, MixGamingSimulation
from .scenarios import MixScenario, SCENARIO_PRESETS, Scenario, scenario_from_spec
from .serve import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_PORT,
    ServingDaemon,
    serve_jsonl,
)
from .surface import build_surfaces, load_surfaces, save_surfaces

__all__ = ["main", "build_parser"]


class _RecordingAction(argparse._StoreAction):
    """``store`` action that records which options were given explicitly.

    Scenario presets and explicit flags are layered (flag beats preset),
    which requires telling "the user typed ``--tick-ms 40``" apart from
    "40 is the parser default"; argparse alone cannot.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        explicit = getattr(namespace, "_explicit", None)
        if explicit is None:
            explicit = set()
            setattr(namespace, "_explicit", explicit)
        explicit.add(self.dest)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="fps-ping",
        description="Ping-time prediction for First Person Shooter games "
        "(reproduction of Degrande et al., 2006).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rtt = sub.add_parser("rtt", help="evaluate the RTT quantile at one operating point")
    _add_scenario_arguments(rtt)
    rtt.add_argument("--load", type=float, default=0.4, help="downlink load (0-1)")
    rtt.add_argument("--quantile", type=float, default=0.99999, help="quantile level")
    rtt.add_argument(
        "--method",
        choices=["inversion", "dominant-pole", "chernoff", "sum-of-quantiles"],
        default="inversion",
        help="quantile evaluation method",
    )

    dim = sub.add_parser("dimension", help="maximum load / gamers for an RTT budget")
    _add_scenario_arguments(dim)
    dim.add_argument("--rtt-bound-ms", type=float, default=50.0, help="RTT budget in ms")
    dim.add_argument("--quantile", type=float, default=0.99999, help="quantile level")

    admit = sub.add_parser(
        "admit", help="admission control: max capacity for an RTT budget"
    )
    _add_scenario_arguments(admit)
    admit.add_argument(
        "--rtt-budget-ms", type=float, required=True, help="RTT budget in ms"
    )
    admit.add_argument("--quantile", type=float, default=0.99999, help="quantile level")
    admit.add_argument(
        "--method",
        choices=["inversion", "dominant-pole", "chernoff", "sum-of-quantiles"],
        default="inversion",
        help="quantile evaluation method",
    )
    admit.add_argument(
        "--load", type=float, default=None,
        help="proposed downlink load to admit (at most one of --load/--gamers)",
    )
    admit.add_argument(
        "--gamers", type=float, default=None,
        help="proposed gamer count to admit (at most one of --load/--gamers)",
    )
    admit.add_argument(
        "--surfaces", default=None,
        help="certified surface file/directory for the O(1) inversion",
    )
    admit.add_argument(
        "--exact", action="store_true",
        help="force the exact search even with surfaces attached",
    )

    for name, help_text in [
        ("table1", "regenerate Table 1 (Counter-Strike characteristics)"),
        ("table2", "regenerate Table 2 (Half-Life characteristics)"),
        ("table3", "regenerate Table 3 (Unreal Tournament trace)"),
        ("figure1", "regenerate Figure 1 (burst-size tail fits)"),
        ("figure3", "regenerate Figure 3 (RTT vs load per Erlang order)"),
        ("figure4", "regenerate Figure 4 (RTT vs load per tick interval)"),
        ("compare-access", "RTT vs load across access profiles, on one Fleet"),
        ("compare-mix", "multi-server mix vs dedicated slices, on one Fleet"),
    ]:
        table_parser = sub.add_parser(name, help=help_text)
        _add_json_argument(table_parser)

    scenarios = sub.add_parser(
        "scenarios", help="inspect the registered scenario presets"
    )
    scenarios.add_argument(
        "action",
        nargs="?",
        choices=["list"],
        default="list",
        help="what to do (default: list the presets)",
    )
    _add_json_argument(scenarios)

    fleet = sub.add_parser(
        "fleet",
        aliases=["batch"],
        help="serve a JSONL stream of RTT lookups across scenarios",
    )
    fleet.add_argument(
        "--requests",
        type=str,
        required=True,
        help="path to a JSONL request file ('-' reads standard input)",
    )
    fleet.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the JSONL answers here instead of standard output",
    )
    fleet.add_argument(
        "--warm-cache",
        type=str,
        default=None,
        help="cache file to restore before serving and persist afterwards",
    )
    fleet.add_argument(
        "--max-cache-entries",
        type=int,
        default=100_000,
        help="entry budget of the shared answer cache",
    )
    fleet.add_argument(
        "--quantile", type=float, default=0.99999, help="default quantile level"
    )
    fleet.add_argument(
        "--method",
        choices=list(QUANTILE_METHODS),
        default="inversion",
        help="default quantile evaluation method",
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the evaluation plans (1 = in-process; "
        "answers are bit-identical for any worker count)",
    )
    fleet.add_argument(
        "--remote",
        type=str,
        default=None,
        metavar="HOST:PORT,...",
        help="execute the evaluation plans on these worker daemons "
        "(fps-ping serve --worker-mode) instead of in-process; "
        "mutually exclusive with --workers > 1",
    )
    fleet.add_argument(
        "--surfaces",
        type=str,
        default=None,
        metavar="PATH",
        help="certified quantile surfaces (file or directory, see "
        "'fps-ping surface build') answering in-region requests in O(1)",
    )
    fleet.add_argument(
        "--stats",
        action="store_true",
        help="print the fleet cache/evaluation statistics to standard error",
    )
    fleet.add_argument(
        "--window",
        type=int,
        default=DEFAULT_MAX_BATCH,
        help="requests per serving window (the stream is parsed and "
        "answered incrementally, window by window)",
    )
    fleet.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        help="windows allowed in flight at once (bounds memory; the "
        "producer is back-pressured beyond it)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-running asyncio HTTP serving daemon",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="TCP port (0 binds an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes executing the evaluation plans "
        "(1 = in-process; answers are bit-identical for any count)",
    )
    serve.add_argument(
        "--remote",
        type=str,
        default=None,
        metavar="HOST:PORT,...",
        help="fan the evaluation plans out over these worker daemons "
        "(fps-ping serve --worker-mode) with per-host failover; "
        "mutually exclusive with --workers > 1 and --worker-mode",
    )
    serve.add_argument(
        "--worker-mode",
        action="store_true",
        help="expose POST /v1/plan and execute framed evaluation plans "
        "for a front-end's --remote executor (trusted networks only: "
        "plan frames carry pickles)",
    )
    serve.add_argument(
        "--coalesce-ms",
        type=float,
        default=2.0,
        help="request-coalescing bound in milliseconds: the longest a "
        "miss is held while earlier windows execute; an idle daemon "
        "flushes at once (misses held together are served as one "
        "stacked batch; warm hits never wait)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=DEFAULT_MAX_BATCH,
        help="flush a coalescing window once it holds this many requests",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        help="bound on concurrently-served windows per /v1/batch stream",
    )
    serve.add_argument(
        "--warm-cache",
        type=str,
        default=None,
        help="cache file loaded at startup (if present) and persisted "
        "atomically on shutdown",
    )
    serve.add_argument(
        "--max-cache-entries",
        type=int,
        default=100_000,
        help="entry budget of the shared answer cache",
    )
    serve.add_argument(
        "--quantile", type=float, default=0.99999, help="default quantile level"
    )
    serve.add_argument(
        "--method",
        choices=list(QUANTILE_METHODS),
        default="inversion",
        help="default quantile evaluation method",
    )
    serve.add_argument(
        "--surfaces",
        type=str,
        default=None,
        metavar="PATH",
        help="certified quantile surfaces (file or directory, see "
        "'fps-ping surface build') answering in-region requests in O(1); "
        "startup fails if the path cannot be loaded",
    )

    surface = sub.add_parser(
        "surface",
        help="build and inspect certified quantile surfaces",
    )
    surface_sub = surface.add_subparsers(dest="surface_command", required=True)
    surface_build = surface_sub.add_parser(
        "build",
        help="fit and certify quantile surfaces for one scenario",
    )
    surface_build.add_argument(
        "--scenario",
        type=str,
        required=True,
        help="scenario preset name or JSON file to certify",
    )
    surface_build.add_argument(
        "--out",
        type=str,
        required=True,
        help="output path: an existing directory (or a path ending in "
        f"'{os.sep}') gets one file per scenario, anything else is "
        "written as a single JSON document",
    )
    surface_build.add_argument(
        "--methods",
        type=str,
        default="inversion",
        help="comma-separated quantile methods to certify, or 'all' "
        f"for every method ({', '.join(QUANTILE_METHODS)})",
    )
    surface_build.add_argument(
        "--tolerance",
        type=float,
        default=1e-6,
        help="relative error tolerance the fit must certify",
    )
    surface_build.add_argument(
        "--probability-lo",
        type=float,
        default=0.99,
        help="lower edge of the certified quantile-level region",
    )
    surface_build.add_argument(
        "--probability-hi",
        type=float,
        default=0.999999,
        help="upper edge of the certified quantile-level region",
    )
    surface_build.add_argument(
        "--load-lo",
        type=float,
        default=None,
        help="lower edge of the certified load region "
        "(default: the one-gamer load)",
    )
    surface_build.add_argument(
        "--load-hi",
        type=float,
        default=None,
        help="upper edge of the certified load region (default: 0.90)",
    )
    _add_json_argument(surface_build)
    surface_info = surface_sub.add_parser(
        "info",
        help="describe persisted quantile surfaces",
    )
    surface_info.add_argument(
        "path",
        type=str,
        help="surface JSON file or directory of surface files",
    )
    _add_json_argument(surface_info)

    validate = sub.add_parser(
        "validate",
        help="sweep analytical quantiles against the batched Monte-Carlo "
        "reference (exit 0 only if every case is within tolerance)",
    )
    validate.add_argument(
        "--preset",
        type=str,
        default="all",
        help="comma-separated preset names, or 'all' for the full registry",
    )
    validate.add_argument(
        "--methods",
        type=str,
        default="all",
        help="comma-separated quantile methods, or 'all' "
        f"({', '.join(QUANTILE_METHODS)})",
    )
    validate.add_argument(
        "--loads",
        type=str,
        default=None,
        help="comma-separated downlink loads to validate at "
        "(default: 0.5,0.7 — erlang-sum is ill-conditioned below ~0.35)",
    )
    validate.add_argument(
        "--probability",
        type=float,
        default=None,
        help="quantile level to compare at (default: 0.999, resolvable "
        "by the Monte-Carlo sample sizes below)",
    )
    validate.add_argument(
        "--samples",
        type=int,
        default=4000,
        help="post-warmup Monte-Carlo bursts per replication",
    )
    validate.add_argument(
        "--reps",
        type=int,
        default=50,
        help="independent Monte-Carlo replications per case",
    )
    validate.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="bursts discarded from each replication before measuring "
        "(default: 500)",
    )
    validate.add_argument("--seed", type=int, default=2006, help="base seed")
    _add_json_argument(validate)

    sim = sub.add_parser("simulate", help="run the discrete-event simulator")
    sim.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="scenario preset name or JSON file (flags below override it)",
    )
    sim.add_argument("--clients", type=int, default=40, help="number of gamers")
    sim.add_argument("--duration", type=float, default=30.0, help="simulated seconds")
    sim.add_argument("--tick-ms", type=float, default=40.0, action=_RecordingAction,
                     help="tick interval in ms")
    sim.add_argument("--server-packet-bytes", type=float, default=125.0,
                     action=_RecordingAction)
    sim.add_argument("--client-packet-bytes", type=float, default=80.0,
                     action=_RecordingAction)
    sim.add_argument("--aggregation-kbps", type=float, default=5000.0,
                     action=_RecordingAction)
    sim.add_argument("--scheduler", choices=["fifo", "priority", "wfq"], default="fifo")
    sim.add_argument("--background-kbps", type=float, default=0.0,
                     help="elastic background traffic rate in kbit/s")
    sim.add_argument("--seed", type=int, default=1)
    _add_json_argument(sim)

    return parser


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="scenario preset name or JSON file (flags below override it)",
    )
    parser.add_argument("--tick-ms", type=float, default=40.0, action=_RecordingAction,
                        help="tick interval in ms")
    parser.add_argument("--client-packet-bytes", type=float, default=80.0,
                        action=_RecordingAction)
    parser.add_argument("--server-packet-bytes", type=float, default=125.0,
                        action=_RecordingAction)
    parser.add_argument("--erlang-order", type=int, default=9, action=_RecordingAction)
    parser.add_argument("--uplink-kbps", type=float, default=128.0,
                        action=_RecordingAction)
    parser.add_argument("--downlink-kbps", type=float, default=1024.0,
                        action=_RecordingAction)
    parser.add_argument("--aggregation-kbps", type=float, default=5000.0,
                        action=_RecordingAction)
    _add_json_argument(parser)


#: CLI flag dest -> (Scenario field, unit conversion).
_FLAG_TO_FIELD = {
    "tick_ms": ("tick_interval_s", 1e-3),
    "client_packet_bytes": ("client_packet_bytes", 1.0),
    "server_packet_bytes": ("server_packet_bytes", 1.0),
    "erlang_order": ("erlang_order", 1),
    "uplink_kbps": ("access_uplink_bps", 1e3),
    "downlink_kbps": ("access_downlink_bps", 1e3),
    "aggregation_kbps": ("aggregation_rate_bps", 1e3),
}


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Layer a preset/file (if any) under the explicitly given flags."""
    explicit = getattr(args, "_explicit", set())
    if getattr(args, "scenario", None):
        base = scenario_from_spec(args.scenario)
        overrides = {}
        for dest, (field_name, factor) in _FLAG_TO_FIELD.items():
            if dest in explicit and hasattr(args, dest):
                overrides[field_name] = getattr(args, dest) * factor
        return base.derive(**overrides) if overrides else base
    overrides = {
        field_name: getattr(args, dest) * factor
        for dest, (field_name, factor) in _FLAG_TO_FIELD.items()
        if hasattr(args, dest)
    }
    return Scenario.from_dict(overrides)


def _jsonable(value: Any) -> Any:
    """Recursively convert result objects to JSON-serializable values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _emit_json(payload: Any) -> int:
    # default=str catches non-dataclass leaves (e.g. fitted distribution
    # objects inside the table results) with their repr.
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True, default=str))
    return 0


def _command_rtt(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    engine = Engine(scenario, probability=args.quantile, method=args.method)
    model = scenario.model_at_load(args.load)
    breakdown = model.breakdown(args.quantile)
    rtt_quantile_s = engine.rtt_quantile(args.load)
    if args.json:
        return _emit_json(
            {
                "scenario": scenario.to_dict(),
                "downlink_load": model.downlink_load,
                "uplink_load": model.uplink_load,
                "num_gamers": model.num_gamers,
                "probability": args.quantile,
                "method": args.method,
                "breakdown": breakdown.as_dict(),
                "rtt_quantile_s": rtt_quantile_s,
                "rtt_quantile_ms": 1e3 * rtt_quantile_s,
            }
        )
    print(
        experiments.format_kv(
            {
                "downlink load": model.downlink_load,
                "uplink load": model.uplink_load,
                "gamers": model.num_gamers,
                "serialization (ms)": 1e3 * breakdown.serialization_s,
                "upstream queueing quantile (ms)": 1e3 * breakdown.upstream_queueing_s,
                "burst delay quantile (ms)": 1e3 * breakdown.downstream_burst_s,
                "packet position quantile (ms)": 1e3 * breakdown.packet_position_s,
                f"RTT {100 * args.quantile:.3f}% quantile (ms)": 1e3 * rtt_quantile_s,
            },
            title="RTT evaluation",
        )
    )
    return 0


def _command_dimension(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    engine = Engine(scenario, probability=args.quantile)
    result = engine.dimension(args.rtt_bound_ms / 1e3)
    if args.json:
        return _emit_json({"scenario": scenario.to_dict(), "result": result.to_dict()})
    print(
        experiments.format_kv(
            {
                "RTT bound (ms)": args.rtt_bound_ms,
                "max downlink load": result.max_load,
                "max gamers": result.max_gamers,
                "RTT at max load (ms)": result.rtt_at_max_load_ms,
            },
            title="Dimensioning",
        )
    )
    return 0


def _command_admit(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    fleet = Fleet()
    if args.surfaces:
        fleet.attach_surfaces(args.surfaces)
    answer = fleet.admit(
        Request(
            scenario,
            kind="admit",
            rtt_budget_ms=args.rtt_budget_ms,
            probability=args.quantile,
            method=args.method,
            downlink_load=args.load,
            num_gamers=args.gamers,
            exact=args.exact,
        )
    )
    if args.json:
        return _emit_json({"scenario": scenario.to_dict(), "result": answer.to_dict()})
    result = answer.result
    rows = {
        "RTT budget (ms)": args.rtt_budget_ms,
        "quantile": f"{args.quantile:g}",
        "admitted": "yes" if answer.admitted else "no",
        "max downlink load": result.max_load,
        "max gamers": result.max_gamers,
        "RTT at max load (ms)": result.rtt_at_max_load_ms,
        "answered from": result.source,
    }
    if result.proposed_load is not None:
        rows["proposed load"] = result.proposed_load
    print(experiments.format_kv(rows, title="Admission control"))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    # The simulate subparser only carries a subset of the scenario flags;
    # _scenario_from_args skips the absent ones and fills defaults.
    scenario = _scenario_from_args(args)
    if isinstance(scenario, MixScenario):
        simulation = MixGamingSimulation.from_mix(
            scenario,
            num_clients=args.clients,
            scheduler=args.scheduler,
            background_rate_bps=args.background_kbps * 1e3,
            seed=args.seed,
        )
    else:
        simulation = GamingSimulation.from_scenario(
            scenario,
            num_clients=args.clients,
            scheduler=args.scheduler,
            background_rate_bps=args.background_kbps * 1e3,
            seed=args.seed,
        )
    delays = simulation.run(args.duration, warmup_s=min(5.0, args.duration / 10.0))
    if args.json:
        summaries = {
            category: delays.summary(category).as_dict()
            for category in ("upstream", "downstream", "rtt")
            if delays.count(category) > 0
        }
        return _emit_json(
            {
                "scenario": scenario.to_dict(),
                "num_clients": args.clients,
                "scheduler": args.scheduler,
                "duration_s": args.duration,
                "downlink_load": simulation.downlink_load,
                "uplink_load": simulation.uplink_load,
                "delays": summaries,
            }
        )
    rows = {}
    for category in ("upstream", "downstream", "rtt"):
        if delays.count(category) == 0:
            continue
        summary = delays.summary(category)
        rows[f"{category} mean (ms)"] = 1e3 * summary.mean
        rows[f"{category} p99 (ms)"] = 1e3 * summary.p99
    rows["downlink load"] = simulation.downlink_load
    rows["uplink load"] = simulation.uplink_load
    print(experiments.format_kv(rows, title="Simulation"))
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    """Sweep presets x methods x loads against the batched Monte-Carlo.

    Exit code 0 means every case landed inside its method's tolerance
    band; 1 means at least one case missed (the offending rows are
    listed).  Input errors (unknown presets/methods, bad loads) exit 2
    like every other subcommand.
    """
    from .validate import ValidationFleet

    def _spec(raw: str, what: str):
        if raw.strip().lower() == "all":
            return "all"
        names = tuple(part.strip() for part in raw.split(",") if part.strip())
        if not names:
            raise ReproError(f"--{what} must name at least one {what.rstrip('s')}")
        return names

    if args.samples < 1:
        raise ReproError("--samples must be at least 1")
    if args.reps < 1:
        raise ReproError("--reps must be at least 1")
    kwargs = {}
    if args.loads is not None:
        try:
            kwargs["loads"] = tuple(
                float(part) for part in args.loads.split(",") if part.strip()
            )
        except ValueError as exc:
            raise ReproError(f"bad --loads value: {exc}") from exc
    if args.probability is not None:
        kwargs["probability"] = args.probability
    if args.warmup is not None:
        kwargs["warmup"] = args.warmup
    fleet = ValidationFleet(
        _spec(args.preset, "presets"),
        _spec(args.methods, "methods"),
        n_samples=args.samples,
        n_reps=args.reps,
        seed=args.seed,
        **kwargs,
    )
    report = fleet.run()
    if args.json:
        _emit_json(report.as_dict())
    else:
        print(report.format_table())
        failures = report.failures()
        verdict = (
            f"{len(report.cases)} cases, all within tolerance"
            if not failures
            else f"{len(failures)} of {len(report.cases)} cases out of tolerance"
        )
        print(f"[{'PASS' if report.passed else 'FAIL'}] {verdict} "
              f"in {report.elapsed_s:.1f}s")
    return 0 if report.passed else 1


def _command_scenarios(args: argparse.Namespace) -> int:
    """List the registered presets with their key parameters.

    Multi-server mixes appear with the traffic parameters of their
    *tagged* component (the game whose gamers' RTT is served) and a
    ``mix[n]`` marker naming the number of multiplexed servers.
    """
    if args.json:
        return _emit_json(
            {name: scenario.to_dict() for name, scenario in sorted(SCENARIO_PRESETS.items())}
        )
    headers = [
        "preset",
        "tick (ms)",
        "K",
        "P_S (byte)",
        "P_C (byte)",
        "agg (Mbit/s)",
        "prop (ms)",
        "cache key",
    ]
    rows = []
    for name, scenario in sorted(SCENARIO_PRESETS.items()):
        if isinstance(scenario, MixScenario):
            tagged = scenario.tagged_component.scenario
            rows.append(
                [
                    f"{name} mix[{len(scenario.components)}]",
                    1e3 * tagged.tick_interval_s,
                    tagged.erlang_order,
                    tagged.server_packet_bytes,
                    tagged.client_packet_bytes,
                    scenario.aggregation_rate_bps / 1e6,
                    1e3 * tagged.propagation_delay_s,
                    scenario.cache_key(),
                ]
            )
            continue
        rows.append(
            [
                name,
                1e3 * scenario.tick_interval_s,
                scenario.erlang_order,
                scenario.server_packet_bytes,
                scenario.client_packet_bytes,
                scenario.aggregation_rate_bps / 1e6,
                1e3 * scenario.propagation_delay_s,
                scenario.cache_key(),
            ]
        )
    print(experiments.format_table(headers, rows))
    return 0


def _command_fleet(args: argparse.Namespace) -> int:
    """Serve a JSONL request stream incrementally, in bounded windows.

    The input is never slurped: lines are parsed and served window by
    window through :func:`repro.serve.serve_jsonl` (at most
    ``--max-inflight`` windows of ``--window`` requests in flight), and
    each answer is written as soon as its window — and every window
    before it, preserving input order — has been served.  Memory stays
    flat on an arbitrarily long stream; the floats are bit-identical to
    a single whole-stream :meth:`Fleet.serve` pass.
    """
    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    if args.remote and args.workers > 1:
        raise ReproError(
            "--remote and --workers are mutually exclusive: plans execute "
            "either on remote worker daemons or on a local process pool"
        )
    if args.window < 1:
        raise ReproError("--window must be at least 1")
    if args.max_inflight < 1:
        raise ReproError("--max-inflight must be at least 1")
    fleet = Fleet(
        max_cache_entries=args.max_cache_entries,
        probability=args.quantile,
        method=args.method,
    )
    if args.warm_cache and os.path.exists(args.warm_cache):
        fleet.warm_start(args.warm_cache)
    if args.surfaces:
        # No existence check (contrast --warm-cache): a mistyped surfaces
        # path must fail the run, not silently serve the exact path.
        fleet.attach_surfaces(args.surfaces)

    with contextlib.ExitStack() as stack:
        if args.requests == "-":
            source = sys.stdin
        else:
            source = stack.enter_context(
                open(args.requests, "r", encoding="utf-8")
            )
        if args.output:
            sink = stack.enter_context(open(args.output, "w", encoding="utf-8"))
        else:
            sink = sys.stdout
        executor = None
        if args.remote:
            executor = stack.enter_context(RemoteExecutor(args.remote))
        elif args.workers > 1:
            executor = stack.enter_context(ParallelExecutor(workers=args.workers))

        def write(answer) -> None:
            sink.write(json.dumps(_jsonable(answer.to_dict()), sort_keys=True) + "\n")

        serve_jsonl(
            fleet,
            source,
            write,
            executor=executor,
            max_batch=args.window,
            max_inflight=args.max_inflight,
        )
    if args.warm_cache:
        fleet.save_cache(args.warm_cache)
    if args.stats:
        print(
            json.dumps(fleet.stats.as_dict(), indent=2, sort_keys=True),
            file=sys.stderr,
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Run the asyncio HTTP serving daemon until SIGTERM/SIGINT."""
    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    if args.remote and args.worker_mode:
        raise ReproError(
            "--worker-mode and --remote are mutually exclusive: a daemon "
            "either executes plans for a front-end or fans them out"
        )
    if args.remote and args.workers > 1:
        raise ReproError(
            "--remote and --workers are mutually exclusive: plans execute "
            "either on remote worker daemons or on a local process pool"
        )
    if args.remote:
        executor = RemoteExecutor(args.remote)
    elif args.workers > 1:
        # A worker daemon's pool must use the spawn start method: forked
        # children would inherit the daemon's listening socket and its
        # accepted keep-alive connections, holding them open after the
        # daemon dies — a SIGKILLed worker would look alive to every
        # front-end until its round-trip timeout instead of failing fast.
        executor = ParallelExecutor(
            workers=args.workers,
            mp_context="spawn" if args.worker_mode else None,
        )
    else:
        executor = None
    daemon = ServingDaemon(
        host=args.host,
        port=args.port,
        executor=executor,
        max_batch=args.max_batch,
        coalesce_ms=args.coalesce_ms,
        max_inflight=args.max_inflight,
        warm_cache=args.warm_cache,
        max_cache_entries=args.max_cache_entries,
        probability=args.quantile,
        method=args.method,
        worker_mode=args.worker_mode,
        surfaces=args.surfaces,
    )
    try:
        asyncio.run(daemon.run())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    finally:
        if executor is not None:
            executor.close()
    return 0


def _surface_summary(surface) -> dict:
    """JSON-ready description of one surface (coefficients elided)."""
    info = dict(surface.build_info)
    return {
        "scenario_key": surface.scenario_key,
        "method": surface.method,
        "load_region": [surface.load_lo, surface.load_hi],
        "probability_region": [surface.probability_lo, surface.probability_hi],
        "certified_rel_bound": surface.certified_rel_bound,
        "tolerance": surface.tolerance,
        "coefficient_grid": list(surface.coef.shape),
        "build_info": info,
    }


def _print_surface_table(surfaces) -> None:
    headers = [
        "scenario key",
        "method",
        "load region",
        "quantile region",
        "grid",
        "certified bound",
    ]
    rows = []
    for surface in surfaces:
        rows.append(
            [
                surface.scenario_key,
                surface.method,
                f"[{surface.load_lo:.4f}, {surface.load_hi:.4f}]",
                f"[{surface.probability_lo}, {surface.probability_hi}]",
                "x".join(str(n) for n in surface.coef.shape),
                f"{surface.certified_rel_bound:.3e}",
            ]
        )
    print(experiments.format_table(headers, rows))


def _command_surface_build(args: argparse.Namespace) -> int:
    """Fit, certify and persist quantile surfaces for one scenario."""
    scenario = scenario_from_spec(args.scenario)
    methods_spec = args.methods.strip()
    if methods_spec.lower() == "all":
        methods = "all"
    else:
        methods = tuple(m.strip() for m in methods_spec.split(",") if m.strip())
        if not methods:
            raise ReproError("--methods must name at least one quantile method")
    index = build_surfaces(
        scenario,
        methods=methods,
        probability_lo=args.probability_lo,
        probability_hi=args.probability_hi,
        load_lo=args.load_lo,
        load_hi=args.load_hi,
        tolerance=args.tolerance,
    )
    if args.out.endswith(os.sep) and not os.path.isdir(args.out):
        os.makedirs(args.out, exist_ok=True)
    count = save_surfaces(index, args.out)
    surfaces = sorted(index, key=lambda s: (s.scenario_key, s.method))
    if args.json:
        return _emit_json(
            {
                "out": args.out,
                "surfaces_saved": count,
                "surfaces": [_surface_summary(s) for s in surfaces],
            }
        )
    _print_surface_table(surfaces)
    print(f"saved {count} surface(s) to {args.out}")
    return 0


def _command_surface_info(args: argparse.Namespace) -> int:
    """Describe persisted quantile surfaces."""
    index = load_surfaces(args.path)
    surfaces = sorted(index, key=lambda s: (s.scenario_key, s.method))
    if args.json:
        return _emit_json(
            {
                "path": args.path,
                "surfaces": [_surface_summary(s) for s in surfaces],
            }
        )
    _print_surface_table(surfaces)
    return 0


def _command_surface(args: argparse.Namespace) -> int:
    if args.surface_command == "build":
        return _command_surface_build(args)
    return _command_surface_info(args)


#: command -> (runner, text formatter) for the table/figure subcommands.
_REPORT_COMMANDS = {
    "table1": (experiments.run_table1, experiments.format_table1),
    "table2": (experiments.run_table2, experiments.format_table2),
    "table3": (experiments.run_table3, experiments.format_table3),
    "figure1": (experiments.run_figure1, experiments.format_figure1),
    "figure3": (experiments.run_figure3, experiments.format_figure3),
    "figure4": (experiments.run_figure4, experiments.format_figure4),
    "compare-access": (
        experiments.run_access_comparison,
        experiments.format_access_comparison,
    ),
    "compare-mix": (
        experiments.run_mix_comparison,
        experiments.format_mix_comparison,
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns the process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rtt":
            return _command_rtt(args)
        if args.command == "dimension":
            return _command_dimension(args)
        if args.command == "admit":
            return _command_admit(args)
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "validate":
            return _command_validate(args)
        if args.command == "scenarios":
            return _command_scenarios(args)
        if args.command in ("fleet", "batch"):
            return _command_fleet(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "surface":
            return _command_surface(args)
        if args.command in _REPORT_COMMANDS:
            run, fmt = _REPORT_COMMANDS[args.command]
            result = run()
            if args.json:
                return _emit_json({args.command: result})
            print(fmt(result))
            return 0
    except (ReproError, KeyError, json.JSONDecodeError, OSError) as exc:
        # Bad preset names, malformed scenario/request files, missing
        # paths and out-of-range parameters produce a one-line error,
        # not a traceback.
        if isinstance(exc, OSError) and exc.strerror:
            message = f"{exc.strerror}: {exc.filename}" if exc.filename else exc.strerror
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

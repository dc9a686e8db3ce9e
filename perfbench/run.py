"""The benchmark: the serving path, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload http-mixed --seed 1 --seconds 30 --trace 0

``--workload`` is ``http-mixed``, ``http-warm`` or ``all`` (the
default: both in turn).  With ``--trace 0`` the run sets the serving
stack up several times (``setup_s`` is the median), measures one phase
of ``--seconds`` and prints every end-to-end metric; with ``--trace 1``
it compares an untraced with a traced daemon and prints every per-layer
metric, the tracing overhead among them.
Correctness checks run outside the timed part; a wrong
answer or a failed op makes the exit code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.spans import SpanRecorder, clock, layer_metrics  # noqa: E402
from perfbench.stats import TooFewSamples, percentile  # noqa: E402
from perfbench.workloads import TAIL_LEVEL, TIER_METRICS, WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Where runs leave surfaces, daemon logs and span files.
RUN_DIR = ".perfbench-run"
#: The string-hash salt of every process the benchmark runs.
HASH_SEED = "0"


def _finite(value: float, cap: float) -> float:
    """JSON has no infinity: a failed op's latency reads as the whole phase."""
    return value if math.isfinite(value) else cap


def end_to_end(phase, setup_times, workload):
    """Every end-to-end metric of one measured phase, with notes."""
    cap = phase.measured_s * 1e3
    level = TAIL_LEVEL[workload]
    metrics = {
        "setup_s": percentile(setup_times, 50.0),
        "throughput_rps": phase.throughput_rps,
        "latency_p50_ms": _finite(percentile(phase.op_ms, 50.0), cap),
        # Too few ops for the workload's level fails the run.
        "latency_tail_ms": _finite(percentile(phase.op_ms, level), cap),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    notes = [
        f"requests={len(phase.op_ms)} latency_tail_ms is p{level:g}",
        "setup_s samples: " + ", ".join(f"{t:.3f}" for t in setup_times),
    ]
    return metrics, notes


def _run_phase(impl, recorder):
    stack = impl.setup(recorder)
    phase = None
    try:
        phase = impl.measure(stack, recorder)
    finally:
        impl.teardown(stack, phase)
    return phase


def run_workload(workload, seed, seconds, trace, catalog):
    """Run one workload; returns ``(result dict, report lines)``."""
    run_dir = os.path.join(RUN_DIR, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    impl = WORKLOADS[workload](seed, seconds, run_dir)
    if not trace:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            began = clock()
            stack = impl.setup(None)
            setup_times.append((clock() - began) / 1e9)
            if repeat < SETUP_REPEATS - 1:
                impl.teardown(stack, None)
        phase = None
        try:
            phase = impl.measure(stack, None)
        finally:
            impl.teardown(stack, phase)
        metrics, notes = end_to_end(phase, setup_times, workload)
        phases = [phase]
        section = "end_to_end"
    else:
        recorder = SpanRecorder()
        untraced = _run_phase(impl, None)
        phase = _run_phase(impl, recorder)
        phases, untraced_ms, traced_ms = [untraced, phase], untraced.op_ms, phase.op_ms
        recorder.spans[:] = phase.spans
        recorder.dump(os.path.join(run_dir, "spans.jsonl"))
        metrics = {name: 0.0 for name, _ in catalog["per_layer"]}
        metrics.update(layer_metrics(phase.spans))
        metrics.update(phase.layer)
        for tier, values in untraced.tier_ms.items():
            metrics[TIER_METRICS[tier]] = _finite(percentile(values, 50.0), 1e3 * phase.measured_s)
        base, traced = percentile(untraced_ms, 50.0), percentile(traced_ms, 50.0)
        metrics["trace.overhead_pct"] = 100.0 * (traced / base - 1.0)
        notes = [
            f"latency_p50_ms untraced {base:.6g} (n={len(untraced_ms)}), "
            f"traced {traced:.6g} (n={len(traced_ms)})",
            f"spans={len(phase.spans)} written to {run_dir}/spans.jsonl",
        ]
        section = "per_layer"
    units = dict(catalog[section])
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    problems = [p for ph in phases for p in ph.problems]
    result = {
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    lines = [f"== {workload} seed={seed} seconds={seconds:g} trace={trace}"]
    lines += [f"   {name} = {metrics[name]:.6g} {units[name]}" for name in units]
    lines += [f"   {note}" for note in notes]
    lines.append(f"   attempted={result['attempted']} failed={result['failed']}")
    lines += [f"   WRONG: {p}" for p in problems[:20]]
    return result, lines


def load_catalog(path="BENCHMARK.json"):
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
        "run_seconds": spec["run_seconds"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, and the serving path's
        # dictionary lookups run up to twice as slow under some salts;
        # one fixed salt for this process and the daemon it starts keeps
        # that out of the run-to-run spread.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.path.insert(0, os.path.join(ROOT, "src"))
    catalog = load_catalog()
    seconds = catalog["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, seconds, args.trace, catalog)
        except TooFewSamples as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

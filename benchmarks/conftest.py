"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or an
ablation / validation study), prints the regenerated rows or series and
asserts the qualitative shape reported in the paper.  Run them with::

    pytest benchmarks/ --benchmark-only

Benchmarks that call :func:`record_result` additionally leave a
machine-readable ``BENCH_<group>.json`` artifact in the working
directory when the session ends (one file per group, e.g.
``BENCH_serving.json`` / ``BENCH_parallel.json``).  The files are
committed at the repository root, so the perf trajectory lives in git:
they are written diff-friendly (sorted keys, floats rounded to 3
significant digits) and name the CPU count and the Python and numpy
versions they were measured with, since several gated ratios depend on
the core count.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Dict

import numpy

#: group -> benchmark name -> recorded metrics, accumulated across the
#: whole session and flushed once at the end.
_RESULTS: Dict[str, Dict[str, Dict[str, Any]]] = {}


def print_header(title: str) -> None:
    """Print a visual separator before a benchmark's output."""
    bar = "=" * max(len(title), 20)
    print(f"\n{bar}\n{title}\n{bar}")


def record_result(group: str, name: str, **metrics: Any) -> None:
    """Record one benchmark's metrics for the ``BENCH_<group>.json`` artifact.

    ``metrics`` must be JSON-serialisable (floats, ints, strings, plain
    dicts/lists).  Calling twice with the same group and name overwrites
    — a benchmark records its final numbers, not a time series.
    """
    _RESULTS.setdefault(group, {})[name] = metrics


def _rounded(value: Any) -> Any:
    """``value`` with every float rounded to 3 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.3g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write one ``BENCH_<group>.json`` per recorded group into the cwd."""
    environment = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    for group, results in sorted(_RESULTS.items()):
        path = os.path.join(os.getcwd(), f"BENCH_{group}.json")
        document = {
            "environment": environment,
            "group": group,
            "results": _rounded(results),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

"""Run ``fps-ping serve``, optionally with the benchmark's span wrappers.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/launch_daemon.py [--spans FILE] -- serve --port 0 ...

With ``--spans`` the wrappers of :mod:`perfbench.spans` are installed
before the daemon starts, and every recorded span is written to FILE
(one JSON list per line) once the daemon has drained and exited.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro import cli

    if spans_path is None:
        return cli.main(argv)
    from perfbench.spans import SpanRecorder, Wrappers

    recorder = SpanRecorder()
    Wrappers(recorder).on()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Out-of-process harness for the ``fps-ping serve`` daemon.

The daemon is started through ``perfbench/launch_daemon.py`` with
``--port 0``; the harness reads the bound port from the daemon's
``listening on`` banner, waits for ``/healthz``, samples the peak
resident set (``VmHWM``) from ``/proc/<pid>/status`` and stops the
daemon with SIGTERM, requiring a clean drain (exit code 0).
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch_daemon.py")


class DaemonError(RuntimeError):
    """The daemon failed to start, answer or drain."""


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a process, in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise DaemonError(f"no VmHWM line for pid {pid}")


class Daemon:
    """One ``fps-ping serve`` process run from the checkout root."""

    def __init__(self, serve_args: List[str], log_path: str, spans_path: Optional[str] = None):
        self.serve_args = list(serve_args)
        self.log_path = log_path
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        """Launch the daemon and read its port from the banner."""
        command = [sys.executable, LAUNCHER]
        if self.spans_path is not None:
            command += ["--spans", self.spans_path]
        command += ["--", "serve", "--port", "0", *self.serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
        )
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env
            )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                match = _BANNER.search(log.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        raise DaemonError(f"the daemon did not announce a port; log:\n{self.log()}")

    async def wait_healthy(self, connection, timeout_s: float = 30.0) -> None:
        """Poll ``/healthz`` on ``connection`` until it answers ok."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if (await connection.get_json("/healthz")).get("status") == "ok":
                    return
            except Exception:  # noqa: BLE001 - not up yet; retried until the deadline
                if time.monotonic() > deadline:
                    raise
            if time.monotonic() > deadline:
                raise DaemonError("the daemon never reported healthy")
            await asyncio.sleep(0.02)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return vm_hwm_mb(self.proc.pid)

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGTERM, then require a clean drain (exit code 0)."""
        if self.proc is None or self.proc.poll() is not None:
            code = None if self.proc is None else self.proc.returncode
            raise DaemonError(f"the daemon exited early (code {code}); log:\n{self.log()}")
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            raise DaemonError("the daemon did not drain within the timeout") from None
        if code != 0:
            raise DaemonError(f"the daemon drained with exit code {code}; log:\n{self.log()}")

    def kill(self) -> None:
        """Stop the process unconditionally and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def log(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as log:
            return log.read()[-4000:]

"""Launch, probe and stop one ``repro serve`` process for the benchmark.

The server runs in its own session so a forced stop reaches its forked
scoring workers too.  Output goes to a log file in the work directory
(a pipe nobody reads could fill and stall the server).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

from fixtures import HERE, helper_env

__all__ = ["Server", "free_port", "parse_metrics"]

READY_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


def free_port() -> int:
    """A TCP port on 127.0.0.1 that was free a moment ago."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def parse_metrics(text: str) -> dict:
    """Prometheus text lines -> ``{name or name{labels}: value}``."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def _get(port: int, path: str, timeout: float = 30.0) -> tuple[int, bytes]:
    """One blocking GET on a fresh connection (probes, not load)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     f"Connection: close\r\n\r\n".encode("latin-1"))
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class Server:
    """One ``repro serve`` process, plain or under the traced launcher."""

    def __init__(self, bundle_dir: str, flags: list, log_path: str,
                 spans_path: str | None = None):
        self.port = free_port()
        serve = ["serve", "--artifacts", bundle_dir, "--port",
                 str(self.port), "--quiet", *flags]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       "--spans", spans_path, "--", *serve]
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.launched = time.monotonic()
        self.process = subprocess.Popen(
            command, env=helper_env(), stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True)
        self.pid = self.process.pid

    def wait_ready(self) -> None:
        """Poll ``/v1/healthz`` until it answers 200."""
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; "
                    f"see {self.log_path}")
            try:
                status, _ = _get(self.port, "/v1/healthz", timeout=5.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT}s")

    def get_json(self, path: str):
        status, body = _get(self.port, path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def metrics(self) -> dict:
        status, body = _get(self.port, "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"GET /v1/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL the session if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.pid, signal.SIGKILL)
                self.process.wait(STOP_TIMEOUT)
        self._reap_session()
        self._log.close()
        return self.process.returncode

    def _reap_session(self) -> None:
        """Kill anything the server left behind in its session."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + STOP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                os.killpg(self.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

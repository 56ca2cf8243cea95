"""Single-threaded HTTP/1.1 load generator over keep-alive connections.

One asyncio event loop in the client process drives every connection,
so the client uses one thread however many connections it holds.
Sockets are connected directly (no resolver threads) and requests are
written by hand: the client's own cost per request stays small next to
the server's.

Two disciplines:

* :func:`closed_loop` — each connection sends its next request only
  after the previous response arrived, until a deadline.
* :func:`open_loop` — requests are due on a fixed schedule; a request
  is sent when due or as soon as a connection frees up, and its latency
  is timed from its due time, so a stall also delays what queued behind
  it.  Lateness (send minus due) is recorded per request.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass

__all__ = ["Connection", "Result", "closed_loop", "open_loop", "send"]

#: seconds before an unanswered request counts as a timeout
REQUEST_TIMEOUT = 30.0


@dataclass
class Result:
    """One request's outcome; times are monotonic ns."""

    kind: str
    due: int
    sent: int
    done: int
    status: int
    request: object
    payload: object

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        """Latency from due time (equals send time in closed loop)."""
        return (self.done - self.due) / 1e6

    @property
    def service_ms(self) -> float:
        """Latency from the moment the request was written."""
        return (self.done - self.sent) / 1e6


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after a close."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def open(self) -> None:
        """Connect, unless already connected."""
        if self._writer is not None:
            return
        # a blocking connect to a numeric local address returns at once
        # and, unlike the loop's resolver, starts no thread
        sock = socket.create_connection((self.host, self.port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self._reader, self._writer = await asyncio.open_connection(
            sock=sock, limit=1 << 24)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        """Send one request; ``(status, body)`` of its response."""
        await self.open()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self._writer.write(head + body)
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and "close" in value.lower():
                close = True
        payload = await self._reader.readexactly(length) if length else b""
        if close:
            self.close()
        return status, payload


async def send(conn: Connection, kind: str, path: str, request,
               due: int | None = None) -> Result:
    """POST ``request`` as JSON; a failed exchange has status 0."""
    body = json.dumps(request).encode("utf-8")
    sent = time.monotonic_ns()
    try:
        status, raw = await asyncio.wait_for(
            conn.request("POST", path, body), REQUEST_TIMEOUT)
        payload = json.loads(raw) if raw else None
    except (asyncio.TimeoutError, OSError, ValueError,
            asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        conn.close()
        status, payload = 0, None  # timeout or broken connection
    return Result(kind, sent if due is None else due, sent,
                  time.monotonic_ns(), status, request, payload)


async def closed_loop(conn: Connection, next_request, stop) -> list[Result]:
    """Send ``next_request()`` back to back until ``stop()`` is true.

    ``next_request`` returns ``(kind, path, request)`` or None when the
    stream is exhausted.
    """
    results = []
    while not stop():
        item = next_request()
        if item is None:
            break
        results.append(await send(conn, *item))
    return results


async def open_loop(conns: list[Connection], schedule) -> list[Result]:
    """Send each ``(due_ns, kind, path, request)`` of ``schedule``.

    Every connection takes the next unsent request, waits for its due
    time if it is early, and sends it; ``schedule`` is sorted by due.
    """
    pending = list(reversed(schedule))
    results: list[Result] = []

    async def worker(conn: Connection) -> None:
        while pending:
            due, kind, path, request = pending.pop()
            delay = (due - time.monotonic_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            results.append(await send(conn, kind, path, request, due))

    await asyncio.gather(*(worker(conn) for conn in conns))
    return results

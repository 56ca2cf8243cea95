"""Asyncio HTTP transport: ``repro serve``'s front end on one event loop.

This module serves the ``/v1`` contract — the dispatch core in
:mod:`repro.serving.routes`, so the route table, schemas, error
envelope and ``/v1/openapi.json`` — on a single
``asyncio.start_server`` event loop:

* **keep-alive with real timeouts** — an idle connection is dropped
  silently after ``idle_timeout``; a connection that has *started* a
  request but trickles it (slow-loris) gets ``408 request_timeout``
  after ``read_timeout`` and is closed,
* **admission control** — CPU-bound routes (score/suggest/expand/
  ingest/admin, see :data:`~repro.serving.routes.HEAVY_HANDLERS`) share
  a bounded in-flight budget; past it the server *sheds* with the
  canonical ``429 backpressure`` envelope + ``Retry-After`` instead of
  queueing unboundedly, so admitted-request latency stays bounded,
* **off-loop execution** — handlers run on a small thread pool
  (``loop.run_in_executor``), so the event loop never blocks on a
  scoring batch; observability routes use a separate tiny pool and are
  always admitted, keeping ``/v1/healthz`` and ``/v1/metrics``
  responsive under saturation,
* **streaming** — ``POST /v1/score`` and ``POST /v1/expand`` answer
  ``Accept: application/x-ndjson`` with chunked NDJSON, one line per
  micro-batch (flushed as produced, not buffered whole); ``GET
  /v1/jobs/{id}`` supports ``?wait=<seconds>`` long-poll and ``Accept:
  text/event-stream`` SSE so clients stop busy-polling job status,
* **strict framing** — a request whose ``Content-Length`` is not
  plain ASCII digits, repeats with differing values, or arrives with
  any ``Transfer-Encoding`` is answered ``400`` and the connection
  closed (RFC 9112 §6.3), so a proxy in front can never see a different
  request boundary than this server; so is a request with a malformed
  header field line or without exactly one ``Host`` field (see
  :func:`_parse_fields`),
* **graceful drain** — :meth:`AsyncTaxonomyServer.drain` stops
  accepting, closes idle keep-alive connections, lets in-flight
  requests finish up to a deadline, then closes; ``serve_async`` wires
  it to SIGTERM.

The transport advertises ``{"job_wait", "sse", "ndjson"}`` in the
``capabilities`` object of ``/v1/healthz``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import re
import signal
import threading
import time
from http.client import responses as _REASONS
from urllib.parse import parse_qs

from ..api import errors as api_errors
from ..api import schemas
from ..api.errors import ApiError
from .routes import (HEAVY_HANDLERS, LEGACY_HANDLERS, MAX_BODY_BYTES,
                     V1_HANDLERS, require_started, resolve_route)
from .service import TaxonomyService

__all__ = ["AsyncServerThread", "AsyncTaxonomyServer", "CAPABILITIES",
           "serve_async"]

#: transport capabilities advertised in the ``/v1/healthz`` payload
CAPABILITIES = {
    "transport": "async",
    "job_wait": True,
    "sse": True,
    "ndjson": True,
}

#: header-block size cap (also the StreamReader buffer limit)
_MAX_HEADER_BYTES = 64 * 1024

#: SSE/long-poll fallback re-check period — waiters also wake on the
#: job-completion pulse, this only bounds staleness if a pulse is lost
_JOB_POLL_FALLBACK = 0.5

#: upper bound on one long-poll hold; clients re-issue to wait longer
_MAX_JOB_WAIT = 30.0


#: a header field line: a token name, a colon, then a value with no NUL,
#: CR or LF (RFC 9110 §5.1, §5.5)
_FIELD_LINE = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+:[^\0\r\n]*")


def _parse_fields(header_text: str) -> tuple[dict, set]:
    """Header fields by lowercased name, plus every ``Content-Length``.

    Raises ``400 invalid_request`` for a line that does not match
    :data:`_FIELD_LINE` — no colon, whitespace before the colon, an
    obs-fold continuation line (RFC 9112 §5.1, §5.2) or a NUL, CR or LF
    in the value (RFC 9110 §5.5) — and unless exactly one ``Host`` field
    is present (RFC 9112 §3.2).
    """
    headers, lengths, hosts = {}, set(), 0
    for line in header_text.split("\r\n") if header_text else ():
        if _FIELD_LINE.fullmatch(line) is None:
            raise api_errors.invalid_request("malformed header field line")
        name, _, value = line.partition(":")
        name, value = name.lower(), value.strip(" \t")
        headers[name] = value
        if name == "content-length":
            lengths.add(value)
        elif name == "host":
            hosts += 1
    if hosts != 1:
        raise api_errors.invalid_request(
            "a request needs exactly one Host header")
    return headers, lengths


def _split_target(target: str) -> tuple[str, str]:
    """A request target's ``(path, query)``.

    An absolute-form target (``http://host:port/v1/healthz?k=v``, RFC
    9112 §3.2.2, scheme in any case) routes on the path after its
    authority, ``/`` when there is none, exactly as its origin form
    would.
    """
    path, _, query = target.partition("?")
    if path[:8].lower().startswith(("http://", "https://")):
        _, slash, rest = path.partition("://")[2].partition("/")
        path = slash + rest or "/"
    return path, query


def _content_length(headers: dict, lengths: set) -> int:
    """The request body's length, or ``400 invalid_request`` if ambiguous.

    ``lengths`` holds the distinct values of every ``Content-Length``
    field.  Only plain ASCII digits count: ``int()`` alone would accept
    ``+29`` and ``2_9``, which a proxy in front may frame differently.
    """
    if "transfer-encoding" in headers:
        raise api_errors.invalid_request(
            "Transfer-Encoding is not supported; send Content-Length")
    if len(lengths) > 1:
        raise api_errors.invalid_request(
            "conflicting Content-Length headers")
    value = lengths.pop() if lengths else "0"
    try:
        if value.isascii() and value.isdigit():
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise api_errors.invalid_request("invalid Content-Length header")


class _ConnState:
    """Book-keeping for one live connection (loop-confined, no locks)."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer):
        self.writer = writer
        self.busy = False


class AsyncTaxonomyServer:
    """Asyncio HTTP server bound to one :class:`TaxonomyService`.

    All methods must be called on the server's event loop unless noted;
    :class:`AsyncServerThread` wraps the lifecycle for synchronous
    callers (tests, benchmarks).

    Parameters
    ----------
    max_inflight:
        Admission budget for heavy routes — requests already executing
        or queued on the heavy pool beyond this count are shed with
        ``429 backpressure``.
    heavy_workers / light_workers:
        Thread-pool sizes for CPU-bound handlers and observability
        handlers respectively.
    read_timeout / idle_timeout:
        Seconds before a *started* request is failed with 408, and
        before an idle keep-alive connection is silently closed.
    max_connections:
        Open-connection cap; connections past it are refused with a
        ``503 not_ready`` envelope.
    stream_chunk_size:
        Pairs (score) or query concepts (expand) per NDJSON line.
    """

    def __init__(self, service: TaxonomyService, host: str = "127.0.0.1",
                 port: int = 0, *, max_inflight: int = 8,
                 heavy_workers: int = 4, light_workers: int = 2,
                 read_timeout: float = 5.0, idle_timeout: float = 30.0,
                 max_connections: int = 256,
                 stream_chunk_size: int = 64, quiet: bool = True):
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max(1, int(max_inflight))
        self.read_timeout = float(read_timeout)
        self.idle_timeout = float(idle_timeout)
        self.max_connections = max(1, int(max_connections))
        self.stream_chunk_size = max(1, int(stream_chunk_size))
        self.quiet = quiet
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_ConnState] = set()
        self._inflight_heavy = 0
        self._idle_event: asyncio.Event | None = None
        self._job_pulse: asyncio.Event | None = None
        self._heavy_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, int(heavy_workers)),
            thread_name_prefix="async-http-heavy")
        self._light_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, int(light_workers)),
            thread_name_prefix="async-http-light")
        # transport counters, exposed as repro_http_* in /v1/metrics
        self.stats = {
            "connections_total": 0,
            "requests_total": 0,
            "shed_total": 0,
            "request_timeouts_total": 0,
            "streams_total": 0,
            "refused_connections_total": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address.

        Also subscribes to the service's job manager so long-poll/SSE
        waiters wake the moment a job reaches a terminal state (an
        asyncio pulse scheduled thread-safely from the job worker).
        """
        self._loop = asyncio.get_running_loop()
        self._idle_event = asyncio.Event()
        self._job_pulse = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_HEADER_BYTES)
        self.service.jobs.add_listener(self._on_job_terminal)
        return self.address

    def _on_job_terminal(self, _snapshot: dict) -> None:
        """Job-worker callback: pulse every waiter on the loop thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._pulse_jobs)
            except RuntimeError:
                pass  # loop shut down between the check and the call

    def _pulse_jobs(self) -> None:
        """Wake current job waiters; later waiters get a fresh event."""
        pulse, self._job_pulse = self._job_pulse, asyncio.Event()
        if pulse is not None:
            pulse.set()

    async def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight work.

        Closes the listening socket, drops *idle* keep-alive
        connections immediately, flags busy ones to close after the
        response in progress, and waits up to ``timeout`` for in-flight
        requests to finish.  Returns True when everything drained in
        time, False when the deadline forced the close.
        """
        self.draining = True
        deadline = time.monotonic() + timeout
        if self._server is not None:
            # stop accepting only — wait_closed() must come *after* the
            # connections are closed: since Python 3.12.1 it blocks
            # until every connection (idle keep-alive ones included)
            # has gone away, which would stall the drain deadline
            self._server.close()
        for conn in list(self._connections):
            if not conn.busy:
                conn.writer.close()
        while any(conn.busy for conn in self._connections):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._idle_event.clear()
            try:
                await asyncio.wait_for(self._idle_event.wait(),
                                       min(remaining, 0.1))
            except asyncio.TimeoutError:
                pass
        if self._server is not None:
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(),
                    max(deadline - time.monotonic(), 0.05))
            except asyncio.TimeoutError:
                return False
        return True

    async def close(self) -> None:
        """Release sockets, executors and the job-manager listener."""
        self.draining = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.writer.close()
        if self._server is not None:
            try:
                # connections are closed above, so this is normally
                # instant; the bound covers stragglers whose close is
                # still flushing (3.12+ wait_closed tracks them all)
                await asyncio.wait_for(self._server.wait_closed(), 1.0)
            except asyncio.TimeoutError:
                pass
        self.service.jobs.remove_listener(self._on_job_terminal)
        self._heavy_executor.shutdown(wait=False)
        self._light_executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self.stats["connections_total"] += 1
        conn = _ConnState(writer)
        if self.draining or len(self._connections) >= self.max_connections:
            self.stats["refused_connections_total"] += 1
            error = api_errors.not_ready(
                "connection limit reached" if not self.draining
                else "server is draining", retry_after=1.0)
            await self._write_simple_error(writer, error)
            writer.close()
            return
        self._connections.add(conn)
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                conn.busy = True
                try:
                    keep_alive = await self._dispatch(request, writer)
                finally:
                    conn.busy = False
                    if self._idle_event is not None:
                        self._idle_event.set()
                if not keep_alive or self.draining:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass  # client went away (or drain cancelled us) mid-cycle
        finally:
            self._connections.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            # repro-lint: disable=RL006 - best-effort close of a discarded connection
            except Exception:
                pass

    async def _read_request(self, reader, writer):
        """One parsed request, or None when the connection should close.

        Applies ``idle_timeout`` while waiting for the first byte
        (silent close — an idle keep-alive connection is normal) and
        ``read_timeout`` once a request has started (408 — the client
        is trickling; this is the slow-loris guard).  Ambiguous framing
        and malformed header fields are rejected 400 and oversized
        bodies 413, all from the headers alone, before any body byte is
        read.
        """
        try:
            first = await asyncio.wait_for(reader.read(1),
                                           self.idle_timeout)
        except asyncio.TimeoutError:
            return None  # idle keep-alive expiry: close silently
        if not first:
            return None  # clean EOF
        try:
            rest = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.read_timeout)
        except asyncio.TimeoutError:
            self.stats["request_timeouts_total"] += 1
            await self._write_simple_error(
                writer, api_errors.request_timeout(
                    f"request header not completed within "
                    f"{self.read_timeout:.1f}s"))
            return None
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None  # connection died or headers overran the cap
        try:
            head = (first + rest)[:-4].decode("latin-1")
            request_line, _, header_text = head.partition("\r\n")
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            await self._write_simple_error(
                writer,
                api_errors.invalid_request("malformed request line"))
            return None
        path, query = _split_target(path)
        try:
            headers, lengths = _parse_fields(header_text)
            length = _content_length(headers, lengths)
        except ApiError as error:
            await self._write_simple_error(writer, error)
            return None
        if length > MAX_BODY_BYTES:
            # header-first rejection: the body is never read
            await self._write_simple_error(
                writer,
                api_errors.payload_too_large(length, MAX_BODY_BYTES))
            return None
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self.read_timeout)
            except asyncio.TimeoutError:
                self.stats["request_timeouts_total"] += 1
                await self._write_simple_error(
                    writer, api_errors.request_timeout(
                        f"request body not completed within "
                        f"{self.read_timeout:.1f}s"))
                return None
            except asyncio.IncompleteReadError:
                return None
        return (method, path, query, headers, body)

    # ------------------------------------------------------------------
    # response formatting
    # ------------------------------------------------------------------
    @staticmethod
    def _head_bytes(status: int, headers: list) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def _response_bytes(self, status: int, body: bytes,
                        content_type: str, request_id: str, *,
                        legacy: bool = False,
                        successor: str | None = None,
                        retry_after: float | None = None,
                        close: bool = False) -> bytes:
        headers = [("Content-Type", content_type),
                   ("Content-Length", str(len(body))),
                   ("X-Request-Id", request_id)]
        if legacy and successor:
            headers.append(("Deprecation", "true"))
            headers.append(
                ("Link", f'<{successor}>; rel="successor-version"'))
        if retry_after is not None:
            headers.append(("Retry-After",
                            str(max(1, round(retry_after)))))
        if status >= 400 or close or self.draining:
            # error paths may leave the request body unread, so never
            # keep-alive past an error
            headers.append(("Connection", "close"))
        else:
            headers.append(("Connection", "keep-alive"))
        return self._head_bytes(status, headers) + body

    async def _write_simple_error(self, writer, error: ApiError) -> None:
        """Best-effort error envelope outside normal dispatch."""
        request_id = api_errors.new_request_id()
        payload = json.dumps(error.envelope(request_id)).encode("utf-8")
        try:
            writer.write(self._response_bytes(
                error.status, payload, "application/json", request_id,
                retry_after=error.retry_after, close=True))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request, writer) -> bool:
        """Route one request; returns whether to keep the connection."""
        method, path, query, headers, body_bytes = request
        self.stats["requests_total"] += 1
        request_id = api_errors.new_request_id()
        bound, params = resolve_route(method, path)
        if bound is None:
            return await self._send_error(
                writer, api_errors.not_found(path), request_id)
        legacy_kwargs = {"legacy": bound.legacy,
                         "successor": bound.spec.path}
        handler_name = bound.spec.handler
        accept = headers.get("accept", "")
        want_close = "close" in headers.get("connection", "").lower()
        try:
            body = self._parse_body(method, body_bytes)
            if handler_name == "metrics":
                text = await self._run_light(
                    self.service.metrics_text) + self.metrics_text()
                writer.write(self._response_bytes(
                    200, text.encode("utf-8"), bound.spec.media_type,
                    request_id, close=want_close, **legacy_kwargs))
                await writer.drain()
                return not want_close
            if (not bound.legacy and method == "POST"
                    and handler_name in ("score", "expand")
                    and "application/x-ndjson" in accept):
                return await self._stream_ndjson(
                    writer, handler_name, body, request_id)
            if handler_name == "job_get" and not bound.legacy:
                if "text/event-stream" in accept:
                    return await self._stream_sse(
                        writer, params["job_id"], request_id)
                wait_s = self._wait_param(query)
                if wait_s > 0:
                    payload = await self._wait_job(
                        params["job_id"], wait_s)
                    payload = schemas.JobResponse.parse(
                        payload, allow_extra=True).as_payload()
                    return await self._send_json(
                        writer, 200, payload, request_id,
                        close=want_close, **legacy_kwargs)
            status, payload = await self._run_handler(
                bound, handler_name, body, params)
            if handler_name == "health" and not bound.legacy:
                payload = dict(payload)
                payload["capabilities"] = dict(CAPABILITIES)
        except ApiError as error:
            return await self._send_error(writer, error, request_id,
                                          **legacy_kwargs)
        except (ValueError, KeyError, TypeError,
                json.JSONDecodeError) as error:
            return await self._send_error(
                writer, api_errors.invalid_request(str(error)),
                request_id, **legacy_kwargs)
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as error:  # keep serving on handler failure
            return await self._send_error(
                writer, api_errors.internal_error(error), request_id,
                **legacy_kwargs)
        return await self._send_json(writer, status, payload,
                                     request_id, close=want_close,
                                     **legacy_kwargs)

    @staticmethod
    def _parse_body(method: str, body_bytes: bytes) -> dict:
        if method != "POST" or not body_bytes:
            return {}
        payload = json.loads(body_bytes.decode("utf-8"))
        if not isinstance(payload, dict):
            raise api_errors.invalid_request(
                "request body must be a JSON object")
        return payload

    @staticmethod
    def _wait_param(query: str) -> float:
        if not query:
            return 0.0
        values = parse_qs(query).get("wait")
        if not values:
            return 0.0
        try:
            wait_s = float(values[-1])
        except ValueError:
            raise api_errors.invalid_request(
                f"invalid wait parameter: {values[-1]!r}",
                field="wait") from None
        return max(0.0, min(wait_s, _MAX_JOB_WAIT))

    async def _run_light(self, fn, *args):
        """Run an observability callable on the always-admitted pool."""
        return await self._loop.run_in_executor(
            self._light_executor, lambda: fn(*args))

    async def _run_handler(self, bound, handler_name, body, params):
        """Run a route handler off-loop with admission control.

        Heavy handlers consume one slot of the bounded in-flight
        budget; at capacity the request is shed immediately with the
        canonical ``backpressure`` envelope (429 + ``Retry-After``)
        rather than queued — the client's retry-with-jitter is the
        queue.  Light handlers bypass the budget on their own pool so
        the service stays observable while saturated.
        """
        handler = (LEGACY_HANDLERS if bound.legacy
                   else V1_HANDLERS)[handler_name]
        heavy = handler_name in HEAVY_HANDLERS
        if not heavy:
            return await self._run_light(
                handler, self.service, body, params)
        self._acquire_heavy_slot()
        try:
            return await self._loop.run_in_executor(
                self._heavy_executor,
                lambda: handler(self.service, body, params))
        finally:
            self._inflight_heavy -= 1

    def _acquire_heavy_slot(self) -> None:
        """Take one admission slot or shed with ``429 backpressure``.

        The caller owns the slot on return and must decrement
        ``_inflight_heavy`` in a ``finally`` when the work — a single
        handler call or an entire NDJSON stream — is done.
        """
        if self._inflight_heavy >= self.max_inflight:
            self.stats["shed_total"] += 1
            raise api_errors.backpressure(
                f"server is at its concurrency budget "
                f"({self.max_inflight} in-flight requests); retry "
                f"with backoff",
                retry_after=1.0,
                detail={"inflight": self._inflight_heavy,
                        "limit": self.max_inflight})
        self._inflight_heavy += 1

    async def _send_json(self, writer, status, payload, request_id,
                         *, close=False, **legacy_kwargs) -> bool:
        body = json.dumps(payload).encode("utf-8")
        writer.write(self._response_bytes(
            status, body, "application/json", request_id, close=close,
            **legacy_kwargs))
        await writer.drain()
        return status < 400 and not close and not self.draining

    async def _send_error(self, writer, error: ApiError, request_id,
                          **legacy_kwargs) -> bool:
        body = json.dumps(error.envelope(request_id)).encode("utf-8")
        writer.write(self._response_bytes(
            error.status, body, "application/json", request_id,
            retry_after=error.retry_after, **legacy_kwargs))
        await writer.drain()
        return False  # error responses always close (body may be unread)

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    @staticmethod
    def _chunk(data: bytes) -> bytes:
        """One HTTP/1.1 chunked-transfer frame."""
        return f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n"

    def _make_stream(self, handler_name: str, body: dict):
        """Validate the request and build the result generator.

        Validation (schema parse + readiness) runs *before* the
        generator is returned, so failures surface as ordinary JSON
        error envelopes, never as a broken stream.
        """
        if handler_name == "score":
            request = schemas.ScoreRequest.parse(body)
            require_started(self.service)
            return self.service.score_chunks(
                request, chunk_size=self.stream_chunk_size)
        request = schemas.ExpandRequest.parse(body)
        require_started(self.service)
        # expand chunks are whole journaled expansions; keep them small
        # so the stream flushes often
        return self.service.expand_chunks(
            request, chunk_size=max(1, self.stream_chunk_size // 8))

    async def _stream_ndjson(self, writer, handler_name, body,
                             request_id) -> bool:
        """Stream score/expand results as chunked NDJSON micro-batches.

        The first micro-batch is computed *before* the headers go out,
        so validation and readiness errors still produce proper error
        envelopes; failures after that append a terminal
        ``{"error": ...}`` line and end the stream.  A client that
        disconnects mid-stream just closes the generator — the
        connection handler treats the reset as a normal goodbye.

        The stream holds one admission slot for its entire lifetime:
        every ``pull`` runs on the shared heavy executor, so an
        unadmitted stream would evade the 429 shedding contract and
        starve admitted non-stream requests.
        """
        self._acquire_heavy_slot()
        try:
            generator = self._make_stream(handler_name, body)
            sentinel = object()

            def pull():
                return next(generator, sentinel)

            first = await self._loop.run_in_executor(
                self._heavy_executor, pull)
            self.stats["streams_total"] += 1
            writer.write(self._head_bytes(200, [
                ("Content-Type", "application/x-ndjson"),
                ("Transfer-Encoding", "chunked"),
                ("X-Request-Id", request_id),
                ("Connection", "close"),
            ]))
            try:
                item = first
                while item is not sentinel:
                    line = (json.dumps(item) + "\n").encode("utf-8")
                    writer.write(self._chunk(line))
                    await writer.drain()  # flush per micro-batch
                    item = await self._loop.run_in_executor(
                        self._heavy_executor, pull)
            except (ConnectionResetError, BrokenPipeError):
                generator.close()  # client went away: stop producing
                raise
            except Exception as error:
                envelope = (api_errors.internal_error(error)
                            if not isinstance(error, ApiError)
                            else error).envelope(request_id)
                writer.write(self._chunk(
                    (json.dumps(envelope) + "\n").encode("utf-8")))
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            return False  # chunked streams end the connection
        finally:
            self._inflight_heavy -= 1

    async def _wait_job(self, job_id: str, wait_s: float) -> dict:
        """Long-poll one job: return as soon as it turns terminal.

        Waiters ride the job-completion pulse (set thread-safely by the
        job manager's terminal listener) with a short fallback re-check,
        so they occupy no executor thread while parked.  Returns the
        latest snapshot either way — on timeout the client simply sees
        a non-terminal status and may re-issue the wait.
        """
        deadline = time.monotonic() + wait_s
        while True:
            snapshot = self.service.jobs.get(job_id)
            remaining = deadline - time.monotonic()
            if snapshot["status"] in ("succeeded", "failed"):
                return snapshot
            if remaining <= 0:
                return snapshot
            pulse = self._job_pulse
            try:
                await asyncio.wait_for(
                    pulse.wait(),
                    min(remaining, _JOB_POLL_FALLBACK))
            except asyncio.TimeoutError:
                pass

    async def _stream_sse(self, writer, job_id, request_id) -> bool:
        """Server-sent events for one job until it turns terminal.

        Emits the current snapshot immediately, then one ``status``
        event per observed state change (woken by the job-completion
        pulse), and closes after the terminal event.  Unknown job ids
        fail with the ordinary 404 envelope before any event is sent.
        """
        snapshot = self.service.jobs.get(job_id)  # 404 before headers
        self.stats["streams_total"] += 1
        writer.write(self._head_bytes(200, [
            ("Content-Type", "text/event-stream; charset=utf-8"),
            ("Cache-Control", "no-cache"),
            ("Transfer-Encoding", "chunked"),
            ("X-Request-Id", request_id),
            ("Connection", "close"),
        ]))
        last_status = None
        try:
            while True:
                if snapshot["status"] != last_status:
                    last_status = snapshot["status"]
                    event = (f"event: status\r\n"
                             f"data: {json.dumps(snapshot)}\r\n\r\n")
                    writer.write(self._chunk(event.encode("utf-8")))
                    await writer.drain()
                if snapshot["status"] in ("succeeded", "failed"):
                    break
                pulse = self._job_pulse
                try:
                    await asyncio.wait_for(pulse.wait(),
                                           _JOB_POLL_FALLBACK)
                except asyncio.TimeoutError:
                    pass
                snapshot = self.service.jobs.get(job_id)
        except (ConnectionResetError, BrokenPipeError):
            raise  # client disconnected: nothing left to do
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return False

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """Transport counters in Prometheus text format.

        Appended to the service's own ``/v1/metrics`` output so one
        scrape covers both the model plane and the transport plane.
        """
        lines = []
        for name, value in sorted(self.stats.items()):
            lines.append(f"# TYPE repro_http_{name} counter")
            lines.append(f"repro_http_{name} {value}")
        lines.append("# TYPE repro_http_connections_open gauge")
        lines.append(
            f"repro_http_connections_open {len(self._connections)}")
        lines.append("# TYPE repro_http_inflight_heavy gauge")
        lines.append(
            f"repro_http_inflight_heavy {self._inflight_heavy}")
        return "\n".join(lines) + "\n"


class AsyncServerThread:
    """Run an :class:`AsyncTaxonomyServer` on a background event loop.

    Synchronous harness for tests, benchmarks and examples: owns a
    dedicated loop thread, starts the server on it, and exposes
    blocking ``start``/``stop``.  ``stop`` drains gracefully (bounded
    by ``drain_timeout``) before closing.
    """

    def __init__(self, service: TaxonomyService, host: str = "127.0.0.1",
                 port: int = 0, **server_kwargs):
        self.server = AsyncTaxonomyServer(service, host, port,
                                          **server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread: threading.Thread | None = None
        self._address: tuple[str, int] | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("server thread is not started")
        return self._address

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        """Start the loop thread and the server; returns the address."""
        if self._thread is not None:
            return self._address
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="async-http-loop",
            daemon=True)
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop)
        self._address = future.result(timeout=timeout)
        return self._address

    def stop(self, drain_timeout: float = 5.0) -> bool:
        """Drain, close and join the loop thread; True if fully drained."""
        if self._thread is None:
            return True

        async def shutdown():
            drained = await self.server.drain(drain_timeout)
            await self.server.close()
            return drained

        future = asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        drained = future.result(timeout=drain_timeout + 10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
        self._thread = None
        return drained


async def _serve_async(service: TaxonomyService, host: str, port: int,
                       quiet: bool, drain_timeout: float,
                       **server_kwargs) -> None:
    """Event-loop body of :func:`serve_async`: run until signalled."""
    server = AsyncTaxonomyServer(service, host, port, quiet=quiet,
                                 **server_kwargs)
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without loop signal support
    if hasattr(signal, "SIGHUP"):
        def sighup_reload():
            def run():
                try:
                    outcome = service.reload()
                    print(f"SIGHUP reload ok: {outcome}")
                except Exception as error:
                    print(f"SIGHUP reload failed: {error!r}")
            threading.Thread(target=run, name="sighup-reload",
                             daemon=True).start()
        try:
            loop.add_signal_handler(signal.SIGHUP, sighup_reload)
        except (NotImplementedError, RuntimeError):
            pass
    bound_host, bound_port = await server.start()
    # keep the "repro serving on http://..." prefix stable — log
    # scrapers and the subprocess tests parse it to find the port
    print(f"repro serving on http://{bound_host}:{bound_port} "
          f"(/v1 API; NDJSON streaming on /v1/score + /v1/expand, "
          f"SSE/long-poll on /v1/jobs/{{id}}, admission budget "
          f"{server.max_inflight} in-flight)")
    try:
        await stop_event.wait()
    except asyncio.CancelledError:
        pass
    print("draining")
    drained = await server.drain(drain_timeout)
    if not drained:
        print(f"drain timeout ({drain_timeout:.0f}s) reached with "
              f"requests still in flight")
    await server.close()


def serve_async(service: TaxonomyService, host: str = "127.0.0.1",
                port: int = 8631, quiet: bool = False,
                drain_timeout: float = 10.0, **server_kwargs) -> None:
    """Start the service workers and serve on asyncio until signalled.

    SIGTERM/Ctrl-C trigger a graceful drain (stop accepting, finish
    in-flight up to ``drain_timeout``, close), SIGHUP hot-reloads the
    bundle.  Extra keyword arguments reach
    :class:`AsyncTaxonomyServer` (admission budget, timeouts,
    connection cap, stream chunk size).
    """
    service.start()
    try:
        asyncio.run(_serve_async(service, host, port, quiet,
                                 drain_timeout, **server_kwargs))
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.stop()

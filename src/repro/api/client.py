"""``TaxonomyClient`` — the Python SDK for the ``/v1`` HTTP API.

Every in-repo caller of the service (the ``repro score-remote`` /
``ingest-remote`` CLI commands, ``examples/serve_cluster.py``, the
end-to-end tests and the ``--client`` benchmark mode) routes through
this class instead of re-implementing urllib plumbing.  stdlib only:

>>> client = TaxonomyClient("http://127.0.0.1:8631")
>>> client.score([("fruit", "apple")])["probabilities"]
[0.993]
>>> job = client.submit_expand_job({"fruit": ["dragonfruit"]})
>>> client.wait_for_job(job["id"])["result"]["num_attached"]
1

Failures surface as :class:`TaxonomyApiError` carrying the server's
stable ``code``, HTTP ``status`` and ``request_id`` (parsed from the
canonical error envelope).  Transient server rejections — ``429
backpressure`` and ``503 not_ready``, which the server answers *before*
applying any side effect — are retried with *full-jitter* exponential
backoff on any method: each delay is drawn uniformly from ``[0,
min(backoff * 2^attempt, max_backoff)]`` so a fleet of load-shed
clients spreads its retries instead of stampeding back in lockstep,
and a server ``Retry-After`` header acts as the floor of the drawn
delay.  Transport failures (connection reset, timeout) are retried
only for ``GET`` requests: a lost response to a non-idempotent
``POST`` (ingest, expand) may have been applied server-side, and
re-sending it would double-apply the data.

:meth:`wait_for_job` holds a server-side long-poll (``GET
/v1/jobs/{id}?wait=...``) instead of busy-polling, and
:meth:`score_stream` / :meth:`expand_stream` / :meth:`job_events`
consume NDJSON and SSE streams.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

from .errors import RETRYABLE_CODES

__all__ = ["TaxonomyApiError", "TaxonomyClient"]

#: HTTP statuses the client treats as transient when no envelope code
#: is available (proxy-generated bodies, legacy servers).
_RETRYABLE_STATUSES = frozenset({429, 503})


class TaxonomyApiError(Exception):
    """A ``/v1`` request failed; carries the canonical error fields.

    ``code`` is the server's stable machine-readable code (or
    ``"transport_error"`` when the failure never reached the server),
    ``status`` the HTTP status (0 for transport failures), and
    ``request_id`` the server-assigned correlation id when available.
    """

    def __init__(self, code: str, message: str, *, status: int = 0,
                 detail=None, request_id: str | None = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.status = status
        self.detail = detail
        self.request_id = request_id

    @property
    def retryable(self) -> bool:
        """Whether retrying after a delay may succeed."""
        return (self.code in RETRYABLE_CODES
                or self.code == "transport_error"
                or self.status in _RETRYABLE_STATUSES)


class TaxonomyClient:
    """Typed Python client for one running taxonomy server.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``"http://127.0.0.1:8631"`` (any trailing
        slash is stripped; the client adds ``/v1/...`` itself).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts for retryable failures (429/503/transport).
    backoff:
        Backoff window seed in seconds: attempt ``n`` draws its delay
        uniformly from ``[0, min(backoff * 2^n, max_backoff)]`` (full
        jitter).  A server ``Retry-After`` header raises the floor of
        the drawn delay (the server's minimum is respected, the jitter
        only ever waits *longer*), capped at ``max_backoff``.
    rng:
        Source of jitter randomness (``random.Random``-compatible);
        injectable for deterministic tests.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 retries: int = 2, backoff: float = 0.2,
                 max_backoff: float = 5.0,
                 rng: random.Random | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload=None):
        """One HTTP round-trip with retry-with-backoff on 429/503."""
        url = f"{self.base_url}{path}"
        data = None if payload is None else \
            json.dumps(payload).encode("utf-8")
        last_error: TaxonomyApiError | None = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                url, data=data, method=method,
                headers={"Content-Type": "application/json"}
                if data is not None else {})
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    body = response.read()
                    if response.headers.get_content_type() != \
                            "application/json":
                        return body.decode("utf-8")
                    return json.loads(body) if body else {}
            except urllib.error.HTTPError as error:
                last_error = self._parse_http_error(error)
                retry_after = error.headers.get("Retry-After")
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError) as error:
                last_error = TaxonomyApiError(
                    "transport_error", f"request to {url} failed: "
                    f"{error}")
                retry_after = None
            # A transport failure after a POST is ambiguous — the server
            # may have applied the request before the response was lost.
            # Re-sending a non-idempotent body (ingest, expand) would
            # double-apply it, so only GETs retry transport errors;
            # 429/503 are server rejections and always safe to retry.
            if last_error.code == "transport_error" and method != "GET":
                raise last_error
            if not last_error.retryable or attempt >= self.retries:
                raise last_error
            time.sleep(self._retry_delay(attempt, retry_after))
        raise last_error  # pragma: no cover - loop always raises above

    def _retry_delay(self, attempt: int, retry_after) -> float:
        """Full-jitter backoff delay for retry number ``attempt``.

        Uniform over ``[0, min(backoff * 2^attempt, max_backoff)]`` —
        a synchronized burst of load-shed clients decorrelates instead
        of retrying in lockstep and re-creating the spike that got it
        shed.  A parseable ``Retry-After`` is the *floor*: the server's
        requested minimum is honoured, jitter only adds to it (both
        capped at ``max_backoff``).
        """
        window = min(self.backoff * (2 ** attempt), self.max_backoff)
        delay = self._rng.uniform(0.0, window)
        if retry_after:
            try:
                floor = min(float(retry_after), self.max_backoff)
            except ValueError:
                pass
            else:
                delay = max(delay, floor)
        return delay

    @staticmethod
    def _parse_http_error(error: urllib.error.HTTPError) \
            -> TaxonomyApiError:
        """Build a typed error from a canonical envelope (or raw body)."""
        try:
            envelope = json.loads(error.read() or b"{}")
        except (ValueError, UnicodeDecodeError):
            envelope = {}
        detail = envelope.get("error")
        if isinstance(detail, dict):
            return TaxonomyApiError(
                detail.get("code", "internal_error"),
                detail.get("message", str(error)),
                status=error.code, detail=detail.get("detail"),
                request_id=detail.get("request_id"))
        message = detail if isinstance(detail, str) else str(error)
        return TaxonomyApiError("internal_error", message,
                                status=error.code)

    # ------------------------------------------------------------------
    # synchronous endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /v1/healthz`` — liveness snapshot."""
        return self._request("GET", "/v1/healthz")

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — raw Prometheus exposition text."""
        return self._request("GET", "/v1/metrics")

    def taxonomy(self) -> dict:
        """``GET /v1/taxonomy`` — live snapshot + ingest statistics."""
        return self._request("GET", "/v1/taxonomy")

    def openapi(self) -> dict:
        """``GET /v1/openapi.json`` — the generated API description."""
        return self._request("GET", "/v1/openapi.json")

    def score(self, pairs) -> dict:
        """``POST /v1/score`` for explicit (parent, child) pairs."""
        return self._request("POST", "/v1/score",
                             {"pairs": [list(pair) for pair in pairs]})

    def _stream_lines(self, path: str, payload: dict, accept: str):
        """POST and yield decoded NDJSON lines (internal helper).

        A terminal ``{"error": ...}`` line (mid-stream failure) raises
        :class:`TaxonomyApiError` after the preceding chunks were
        yielded.
        """
        url = f"{self.base_url}{path}"
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json",
                     "Accept": accept})
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as response:
                for raw_line in response:
                    line = raw_line.strip()
                    if not line:
                        continue
                    item = json.loads(line)
                    if isinstance(item, dict) and set(item) == {"error"}:
                        error = item["error"]
                        raise TaxonomyApiError(
                            error.get("code", "internal_error"),
                            error.get("message", "stream failed"),
                            detail=error.get("detail"),
                            request_id=error.get("request_id"))
                    yield item
        except urllib.error.HTTPError as error:
            raise self._parse_http_error(error) from None
        except (urllib.error.URLError, ConnectionError,
                TimeoutError) as error:
            raise TaxonomyApiError(
                "transport_error",
                f"stream from {url} failed: {error}") from None

    def score_stream(self, pairs):
        """``POST /v1/score`` with NDJSON streaming; yields per chunk.

        Each yielded dict is a ``/v1/score``-shaped micro-batch
        (``pairs`` + ``probabilities``) in request order; concatenating
        them reproduces :meth:`score` of the full batch.
        """
        yield from self._stream_lines(
            "/v1/score", {"pairs": [list(pair) for pair in pairs]},
            "application/x-ndjson")

    def expand_stream(self, candidates: dict | None = None, *,
                      queries=None, top_k: int | None = None):
        """``POST /v1/expand`` with NDJSON streaming; yields per chunk.

        Accepts the same ``candidates`` / ``queries`` + ``top_k``
        alternatives as :meth:`expand`; each yielded dict is one
        journaled sub-expansion (``attached_edges`` etc.), and the last
        chunk's ``taxonomy_edges`` matches the final taxonomy size.
        """
        payload: dict = {}
        if candidates is not None:
            payload["candidates"] = candidates
        if queries is not None:
            payload["queries"] = [str(query) for query in queries]
        if top_k is not None:
            payload["top_k"] = int(top_k)
        yield from self._stream_lines("/v1/expand", payload,
                                      "application/x-ndjson")

    def score_batched(self, pairs, batch_size: int = 512) -> list:
        """Score arbitrarily many pairs in bounded requests.

        Splits ``pairs`` into ``batch_size`` slices (each below the
        server's per-request cap) and concatenates the probabilities in
        order.
        """
        pairs = [list(pair) for pair in pairs]
        probabilities: list = []
        for start in range(0, len(pairs), max(1, batch_size)):
            chunk = pairs[start:start + max(1, batch_size)]
            probabilities.extend(self.score(chunk)["probabilities"])
        return probabilities

    def suggest(self, query: str, k: int = 10) -> dict:
        """``POST /v1/suggest`` — ranked attachment candidates.

        Retrieves ``k`` nearest concepts from the embedding index and
        re-ranks them with the exact pair scorer; the response carries
        per-candidate ``probability`` (exact) and ``similarity``
        (retrieval) plus a ``retrieval`` metadata object.
        """
        return self._request("POST", "/v1/suggest",
                             {"query": str(query), "k": int(k)})

    def expand(self, candidates: dict | None = None, *,
               queries=None, top_k: int | None = None) -> dict:
        """``POST /v1/expand`` — synchronous expansion.

        Pass ``candidates`` (explicit query -> items map) or
        ``queries`` (+ optional ``top_k``) to let the server retrieve
        candidates from its embedding index per frontier node.
        """
        payload: dict = {}
        if candidates is not None:
            payload["candidates"] = candidates
        if queries is not None:
            payload["queries"] = [str(query) for query in queries]
        if top_k is not None:
            payload["top_k"] = int(top_k)
        return self._request("POST", "/v1/expand", payload)

    def ingest(self, records, provenance: dict | None = None,
               sync: bool = False) -> dict:
        """``POST /v1/ingest`` — queue one click-log batch."""
        payload = {"records": [list(record) for record in records],
                   "sync": bool(sync)}
        if provenance:
            payload["provenance"] = provenance
        return self._request("POST", "/v1/ingest", payload)

    def ingest_batched(self, records, batch_size: int = 5_000,
                       sync: bool = False) -> list:
        """Ingest arbitrarily many records in bounded batches.

        Returns the per-batch acknowledgements in submission order;
        backpressure rejections are retried by the transport layer.
        """
        records = [list(record) for record in records]
        outcomes = []
        for start in range(0, len(records), max(1, batch_size)):
            chunk = records[start:start + max(1, batch_size)]
            outcomes.append(self.ingest(chunk, sync=sync))
        return outcomes

    def reload(self, artifacts: str | None = None) -> dict:
        """``POST /v1/admin/reload`` — synchronous hot reload."""
        return self._request("POST", "/v1/admin/reload",
                             {"artifacts": artifacts})

    # ------------------------------------------------------------------
    # async jobs
    # ------------------------------------------------------------------
    def submit_expand_job(self, candidates: dict | None = None, *,
                          queries=None, top_k: int | None = None) -> dict:
        """``POST /v1/jobs/expand`` — returns the pending job snapshot.

        Accepts the same ``candidates`` / ``queries`` + ``top_k``
        alternatives as :meth:`expand`.
        """
        payload: dict = {}
        if candidates is not None:
            payload["candidates"] = candidates
        if queries is not None:
            payload["queries"] = [str(query) for query in queries]
        if top_k is not None:
            payload["top_k"] = int(top_k)
        return self._request("POST", "/v1/jobs/expand", payload)

    def submit_reload_job(self, artifacts: str | None = None) -> dict:
        """``POST /v1/jobs/reload`` — returns the pending job snapshot."""
        return self._request("POST", "/v1/jobs/reload",
                             {"artifacts": artifacts})

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/{id}`` — poll one job's state."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> dict:
        """``GET /v1/jobs`` — retained job snapshots, newest first."""
        return self._request("GET", "/v1/jobs")

    def job_events(self, job_id: str):
        """``GET /v1/jobs/{id}`` as SSE; yields snapshots until terminal.

        Each yielded dict is one job snapshot (the ``data:`` payload of
        a ``status`` event); the stream ends after the terminal
        snapshot.
        """
        url = f"{self.base_url}/v1/jobs/{job_id}"
        request = urllib.request.Request(
            url, method="GET", headers={"Accept": "text/event-stream"})
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as response:
                data_lines: list = []
                for raw_line in response:
                    line = raw_line.decode("utf-8").rstrip("\r\n")
                    if line.startswith("data:"):
                        data_lines.append(line[5:].strip())
                    elif not line and data_lines:
                        yield json.loads("\n".join(data_lines))
                        data_lines = []
        except urllib.error.HTTPError as error:
            raise self._parse_http_error(error) from None
        except (urllib.error.URLError, ConnectionError,
                TimeoutError) as error:
            raise TaxonomyApiError(
                "transport_error",
                f"stream from {url} failed: {error}") from None

    def wait_for_job(self, job_id: str, timeout: float = 60.0) -> dict:
        """Wait until the job finishes; return its terminal snapshot.

        Each round trip is a server-side long-poll — ``GET
        /v1/jobs/{id}?wait=<seconds>`` parks on the job manager's
        completion signal and answers the moment the job turns
        terminal — so the client issues a handful of held requests
        instead of busy-polling.

        Raises :class:`TaxonomyApiError` with the job's stored error
        code if the job failed, or ``TimeoutError`` if it does not
        finish within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            # hold well under the socket timeout so a parked wait
            # cannot be mistaken for a dead server; past the deadline
            # ``wait=0`` is one plain read
            hold = min(max(0.0, deadline - time.monotonic()), 10.0,
                       max(0.1, self.timeout * 0.5))
            snapshot = self._request(
                "GET", f"/v1/jobs/{job_id}?wait={hold:.3f}")
            if snapshot["status"] == "succeeded":
                return snapshot
            if snapshot["status"] == "failed":
                error = snapshot.get("error") or {}
                raise TaxonomyApiError(
                    error.get("code", "internal_error"),
                    error.get("message", f"job {job_id} failed"),
                    detail=error.get("detail"))
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['status']!r} after "
                    f"{timeout}s")

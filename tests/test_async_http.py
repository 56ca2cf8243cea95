"""End-to-end tests for the asyncio HTTP transport.

Covers /v1 round-trips and legacy aliases through the dispatch core,
transport pathologies (slow-loris 408, header-first 413, ambiguous
request framing 400, admission-control 429 with ``Retry-After``,
idle-timeout keep-alive close, mid-stream client disconnect), NDJSON
and SSE streaming and long-poll job waits exercised through the SDK,
capability advertisement, and graceful drain.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.api import ERROR_CODES, TaxonomyApiError, TaxonomyClient
from repro.serving import (
    ArtifactBundle, AsyncServerThread, ServiceConfig, TaxonomyService,
)
from repro.serving.routes import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def bundle_dir(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("async_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return directory


def _make_service(bundle_dir, **config_kwargs) -> TaxonomyService:
    service = TaxonomyService(ArtifactBundle.load(bundle_dir),
                              ServiceConfig(**config_kwargs))
    service.start()
    return service


@pytest.fixture(scope="module")
def async_served(bundle_dir):
    """Module async server: generous budget, small stream chunks."""
    service = _make_service(bundle_dir)
    harness = AsyncServerThread(service, port=0, read_timeout=1.0,
                                idle_timeout=30.0, max_inflight=16,
                                stream_chunk_size=4)
    host, port = harness.start()
    yield f"http://{host}:{port}", service, harness.server
    harness.stop()
    service.stop()


#: a 29-byte /v1/score body for the request-framing tests
_FRAMED_BODY = b'{"pairs": [["fruit", "fig"]]}'


def _request(base_url, method, path, payload=None, headers=None):
    """One raw round-trip; returns (status, headers dict, parsed body)."""
    host, port = base_url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    body = None if payload is None else json.dumps(payload)
    send_headers = {"Content-Type": "application/json"} if body else {}
    send_headers.update(headers or {})
    connection.request(method, path, body=body, headers=send_headers)
    response = connection.getresponse()
    raw = response.read()
    status, resp_headers = response.status, dict(response.getheaders())
    connection.close()
    content_type = resp_headers.get("Content-Type", "")
    parsed = json.loads(raw) if content_type.startswith(
        "application/json") else raw
    return status, resp_headers, parsed


def _assert_envelope(status, headers, body, code):
    assert status == ERROR_CODES[code], body
    error = body["error"]
    assert error["code"] == code
    assert error["request_id"] == headers["X-Request-Id"]


class TestAsyncRoundTrips:
    def test_health_advertises_capabilities(self, async_served):
        url, _service, _server = async_served
        status, _h, body = _request(url, "GET", "/v1/healthz")
        assert status == 200
        capabilities = body["capabilities"]
        assert capabilities["job_wait"] is True
        assert capabilities["sse"] is True
        assert capabilities["ndjson"] is True
        assert capabilities["transport"] == "async"

    def test_score_parity_with_service(self, async_served, small_world):
        url, service, _server = async_served
        edges = sorted(small_world.existing_taxonomy.edges())[:4]
        pairs = [list(edge) for edge in edges]
        status, headers, body = _request(url, "POST", "/v1/score",
                                         {"pairs": pairs})
        assert status == 200
        assert headers["X-Request-Id"].startswith("req-")
        assert body["probabilities"] == \
            service.score(pairs)["probabilities"]

    def test_legacy_alias_keeps_deprecation_headers(self, async_served,
                                                    small_world):
        url, _service, _server = async_served
        edges = sorted(small_world.existing_taxonomy.edges())[:2]
        status, headers, body = _request(
            url, "POST", "/score", {"pairs": [list(e) for e in edges]})
        assert status == 200
        assert headers["Deprecation"] == "true"
        assert "/v1/score" in headers["Link"]
        assert len(body["probabilities"]) == 2

    def test_unknown_route_404(self, async_served):
        url, _service, _server = async_served
        status, headers, body = _request(url, "GET", "/v1/nope")
        _assert_envelope(status, headers, body, "not_found")

    def test_malformed_json_body_400(self, async_served):
        url, _service, _server = async_served
        host, port = url.split("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=10)
        connection.request("POST", "/v1/score", body="{not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "invalid_request"
        connection.close()

    def test_non_object_body_400(self, async_served):
        url, _service, _server = async_served
        status, headers, body = _request(url, "POST", "/v1/score",
                                         payload=[1, 2, 3])
        _assert_envelope(status, headers, body, "invalid_request")

    def test_metrics_include_transport_counters(self, async_served):
        url, _service, _server = async_served
        status, _h, text = _request(url, "GET", "/v1/metrics")
        assert status == 200
        exposition = text.decode("utf-8")
        assert "repro_http_requests_total" in exposition
        assert "repro_http_connections_open" in exposition
        assert "repro_scorer_requests_total" in exposition

    def test_keep_alive_serves_multiple_requests(self, async_served):
        url, _service, _server = async_served
        host, port = url.split("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=10)
        for _ in range(3):
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            assert response.getheader("Connection") == "keep-alive"
        connection.close()

    def test_absolute_form_target_routes_like_origin_form(self,
                                                          async_served,
                                                          small_world):
        # RFC 9112 3.2.2: a server must accept "GET http://host/path"
        url, _service, _server = async_served
        status, _h, origin = _request(url, "GET", "/v1/healthz")
        del origin["uptime_seconds"]
        for scheme_url in (url, url.replace("http://", "HTTP://")):
            status, _h, absolute = _request(url, "GET",
                                            f"{scheme_url}/v1/healthz")
            assert status == 200, absolute
            del absolute["uptime_seconds"]
            assert absolute == origin
        pairs = [list(edge) for edge in
                 sorted(small_world.existing_taxonomy.edges())[:3]]
        status, _h, origin = _request(url, "POST", "/v1/score",
                                      {"pairs": pairs})
        assert status == 200
        status, _h, absolute = _request(url, "POST", f"{url}/v1/score",
                                        {"pairs": pairs})
        assert status == 200, absolute
        assert absolute == origin


class TestTransportPathologies:
    @pytest.fixture()
    def strict_server(self, bundle_dir):
        """Function-scoped server with tiny timeouts and budget=1."""
        service = _make_service(bundle_dir)
        harness = AsyncServerThread(
            service, port=0, read_timeout=0.3, idle_timeout=0.4,
            max_inflight=1, heavy_workers=1)
        host, port = harness.start()
        yield host, port, service, harness.server
        harness.stop()
        service.stop()

    def test_slow_loris_header_hits_408(self, strict_server):
        host, port, _service, server = strict_server
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHos")  # ...stall
            raw = sock.recv(65536)
        status_line, _, rest = raw.partition(b"\r\n")
        assert b"408" in status_line
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["error"]["code"] == "request_timeout"
        assert server.stats["request_timeouts_total"] >= 1

    def test_slow_loris_body_hits_408(self, strict_server):
        host, port, _service, _server = strict_server
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"POST /v1/score HTTP/1.1\r\n"
                         b"Host: x\r\nContent-Type: application/json\r\n"
                         b"Content-Length: 1000\r\n\r\n{\"pairs")
            raw = sock.recv(65536)
        assert b"408" in raw.partition(b"\r\n")[0]
        assert json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"][
            "code"] == "request_timeout"

    def test_idle_keep_alive_closed_silently(self, strict_server):
        host, port, _service, _server = strict_server
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            first = sock.recv(65536)
            assert b"200" in first.partition(b"\r\n")[0]
            # no follow-up request: the idle timeout closes the
            # connection with no bytes (not a 408 — nothing started)
            assert sock.recv(65536) == b""

    def test_oversized_body_rejected_header_first(self, strict_server):
        host, port, _service, _server = strict_server
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /v1/score HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode())
            # the rejection must arrive *without* the body being sent
            raw = sock.recv(65536)
        assert b"413" in raw.partition(b"\r\n")[0]
        assert json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"][
            "code"] == "payload_too_large"

    def test_invalid_content_length_400(self, strict_server):
        host, port, _service, _server = strict_server
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"POST /v1/score HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: banana\r\n\r\n")
            raw = sock.recv(65536)
        assert b"400" in raw.partition(b"\r\n")[0]

    @pytest.mark.parametrize("path, framing, body, with_host", [
        ("/v1/score", "Content-Length: 2_9", _FRAMED_BODY, True),
        ("/v1/score", "Content-Length: +29", _FRAMED_BODY, True),
        ("/v1/score", "Content-Length: 5\r\nContent-Length: 29",
         _FRAMED_BODY, True),
        ("/v1/jobs/snapshot", "Transfer-Encoding: chunked",
         b"2\r\n{}\r\n0\r\n\r\n", True),
        ("/v1/score", "Content-Length: 29\r\nX-Trace abc", _FRAMED_BODY,
         True),
        ("/v1/score", "Content-Length: 29\r\nX-Trace: a\r\n b",
         _FRAMED_BODY, True),
        ("/v1/score", "Content-Length : 29", _FRAMED_BODY, True),
        ("/v1/score", "Content-Length: 29\r\nX-Trace: a\0b", _FRAMED_BODY,
         True),
        ("/v1/score", "Content-Length: 29", _FRAMED_BODY, False),
        ("/v1/score", "Content-Length: 29\r\nHost: y", _FRAMED_BODY, True),
    ], ids=["underscore", "plus-sign", "conflicting-repeat", "chunked",
            "no-colon", "obs-fold", "space-before-colon", "nul-in-value",
            "no-host", "two-hosts"])
    def test_ambiguous_framing_400_and_close(self, strict_server, path,
                                             framing, body, with_host):
        # RFC 9112 3.2, 5.1, 5.2 and 6.3, RFC 9110 5.5: a proxy could
        # frame or route these differently, so the server must refuse
        # them and drop the connection
        host, port, _service, _server = strict_server
        host_line = "Host: x\r\n" if with_host else ""
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(f"POST {path} HTTP/1.1\r\n{host_line}"
                         f"Content-Type: application/json\r\n"
                         f"{framing}\r\n\r\n".encode() + body)
            raw = b""
            while True:  # until the server closes
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), raw
        assert b"\r\nConnection: close" in head
        assert raw.count(b"HTTP/1.1 ") == 1  # body never parsed as a request
        assert json.loads(payload)["error"]["code"] == "invalid_request"

    def test_admission_control_sheds_with_retry_after(self,
                                                      strict_server,
                                                      small_world):
        host, port, service, server = strict_server
        url = f"http://{host}:{port}"
        parents = sorted(small_world.existing_taxonomy.roots())
        payload = {"candidates": {
            parents[0]: sorted(small_world.new_concepts)[:1]}}
        shed_before = server.stats["shed_total"]
        outcomes: list = []

        def blocked_expand():
            outcomes.append(_request(url, "POST", "/v1/expand", payload))

        # Hold the taxonomy lock so the admitted expand parks inside
        # the (budget=1) heavy executor, then show the next heavy
        # request is shed instead of queued.
        with service._taxonomy_lock:
            occupant = threading.Thread(target=blocked_expand)
            occupant.start()
            deadline = time.monotonic() + 5.0
            while server._inflight_heavy < 1:
                assert time.monotonic() < deadline, "expand never started"
                time.sleep(0.01)
            status, headers, body = _request(url, "POST", "/v1/expand",
                                             payload)
            _assert_envelope(status, headers, body, "backpressure")
            assert int(headers["Retry-After"]) >= 1
            # light routes bypass the budget: still observable
            health_status, _h, _b = _request(url, "GET", "/v1/healthz")
            assert health_status == 200
        occupant.join(timeout=10)
        assert outcomes and outcomes[0][0] == 200  # admitted one finished
        assert server.stats["shed_total"] == shed_before + 1

    def test_ndjson_stream_holds_admission_slot(self, strict_server,
                                                small_world):
        host, port, service, server = strict_server
        url = f"http://{host}:{port}"
        parents = sorted(small_world.existing_taxonomy.roots())
        payload = {"candidates": {
            parents[0]: sorted(small_world.new_concepts)[:2]}}
        body = json.dumps(payload)
        shed_before = server.stats["shed_total"]
        # Hold the taxonomy lock so the stream's first pull parks in
        # the heavy executor with its admission slot (budget=1) held.
        with socket.create_connection((host, port), timeout=10) as sock:
            with service._taxonomy_lock:
                sock.sendall(
                    (f"POST /v1/expand HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Accept: application/x-ndjson\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n").encode()
                    + body.encode())
                deadline = time.monotonic() + 5.0
                while server._inflight_heavy < 1:
                    assert time.monotonic() < deadline, \
                        "stream never took an admission slot"
                    time.sleep(0.01)
                # the live stream owns the whole budget: a plain heavy
                # request is shed...
                status, headers, resp = _request(url, "POST",
                                                 "/v1/score",
                                                 {"pairs": [["a", "b"]]})
                _assert_envelope(status, headers, resp, "backpressure")
                assert int(headers["Retry-After"]) >= 1
                # ...and so is a second stream, as an ordinary JSON
                # envelope (shed before any stream bytes go out)
                status, headers, resp = _request(
                    url, "POST", "/v1/expand", payload,
                    headers={"Accept": "application/x-ndjson"})
                _assert_envelope(status, headers, resp, "backpressure")
            # lock released: the admitted stream runs to completion
            sock.settimeout(10)
            raw = b""
            while b"0\r\n\r\n" not in raw:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
            assert b"200" in raw.partition(b"\r\n")[0]
        assert server.stats["shed_total"] == shed_before + 2
        # the stream's slot is released: heavy requests admit again
        deadline = time.monotonic() + 5.0
        while server._inflight_heavy > 0:
            assert time.monotonic() < deadline, "slot never released"
            time.sleep(0.01)
        edges = sorted(small_world.existing_taxonomy.edges())[:2]
        status, _h, _b = _request(url, "POST", "/v1/score",
                                  {"pairs": [list(e) for e in edges]})
        assert status == 200

    def test_client_disconnect_mid_stream_keeps_serving(
            self, async_served, small_world):
        url, _service, server = async_served
        host, port = url.split("//", 1)[1].split(":")
        edges = sorted(small_world.existing_taxonomy.edges())
        pairs = [list(edge) for edge in edges][:40]  # 10 chunks of 4
        body = json.dumps({"pairs": pairs})
        with socket.create_connection((host, int(port)),
                                      timeout=5) as sock:
            sock.sendall(
                (f"POST /v1/score HTTP/1.1\r\nHost: x\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Accept: application/x-ndjson\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n").encode()
                + body.encode())
            first = sock.recv(256)  # headers + maybe the first chunk
            assert b"200" in first.partition(b"\r\n")[0]
            # hang up mid-stream; the server must treat this as a
            # normal goodbye, not an error
        for _ in range(20):  # server keeps serving afterwards
            status, _h, _b = _request(url, "GET", "/v1/healthz")
            assert status == 200


class TestStreaming:
    def test_ndjson_score_chunks_through_sdk(self, async_served,
                                             small_world):
        url, service, _server = async_served
        client = TaxonomyClient(url, timeout=30.0, retries=0)
        edges = sorted(small_world.existing_taxonomy.edges())[:10]
        pairs = [list(edge) for edge in edges]
        chunks = list(client.score_stream(pairs))
        assert len(chunks) == 3  # 10 pairs at stream_chunk_size=4
        streamed_pairs = [p for c in chunks for p in c["pairs"]]
        streamed_probs = [p for c in chunks for p in c["probabilities"]]
        assert streamed_pairs == pairs
        assert streamed_probs == client.score(pairs)["probabilities"]

    def test_ndjson_expand_stream(self, async_served, small_world):
        url, service, _server = async_served
        client = TaxonomyClient(url, timeout=30.0, retries=0)
        queries = sorted(small_world.existing_taxonomy.nodes)[:3]
        fresh = sorted(small_world.new_concepts)[:4]
        candidates = {query: fresh for query in queries}
        chunks = list(client.expand_stream(candidates))
        # stream_chunk_size=4 -> expand chunk size max(1, 4 // 8) = 1,
        # so three query concepts stream as three journaled chunks
        assert len(chunks) == 3
        assert chunks[-1]["taxonomy_edges"] == \
            service.taxonomy_state()["stats"]["edges"]

    def test_stream_validation_error_is_envelope(self, async_served):
        url, _service, _server = async_served
        client = TaxonomyClient(url, timeout=30.0, retries=0)
        with pytest.raises(TaxonomyApiError) as exc:
            list(client.score_stream([["only-one-element"]]))
        assert exc.value.code == "invalid_request"

    def test_sse_job_events_until_terminal(self, async_served,
                                           small_world):
        url, _service, _server = async_served
        client = TaxonomyClient(url, timeout=30.0, retries=0)
        parents = sorted(small_world.existing_taxonomy.roots())
        job = client.submit_expand_job(
            {parents[0]: sorted(small_world.new_concepts)[:2]})
        events = list(client.job_events(job["id"]))
        assert events, "SSE stream yielded no snapshots"
        assert events[-1]["status"] in ("succeeded", "failed")
        assert all(event["id"] == job["id"] for event in events)

    def test_sse_unknown_job_is_404(self, async_served):
        url, _service, _server = async_served
        client = TaxonomyClient(url, timeout=30.0, retries=0)
        with pytest.raises(TaxonomyApiError) as exc:
            list(client.job_events("job-does-not-exist"))
        assert exc.value.code == "job_not_found"


class TestJobWait:
    def test_long_poll_wait_few_round_trips(self, async_served):
        url, service, server = async_served
        client = TaxonomyClient(url, timeout=30.0, retries=0)
        release = threading.Event()
        job = service.jobs.submit(
            "test-wait", lambda: (release.wait(5.0), {"done": True})[1])
        threading.Timer(0.3, release.set).start()
        before = server.stats["requests_total"]
        snapshot = client.wait_for_job(job["id"], timeout=10.0)
        assert snapshot["status"] == "succeeded"
        # long-poll parks server-side: a couple of held GETs, not a
        # poll every 50ms for 300ms+
        assert server.stats["requests_total"] - before <= 3

    def test_long_poll_returns_running_on_wait_expiry(self,
                                                      async_served):
        url, service, _server = async_served
        release = threading.Event()
        job = service.jobs.submit(
            "test-expiry", lambda: (release.wait(5.0), {})[1] or {})
        try:
            status, _h, body = _request(
                url, "GET", f"/v1/jobs/{job['id']}?wait=0.2")
            assert status == 200
            assert body["status"] in ("pending", "running")
        finally:
            release.set()

    def test_invalid_wait_param_400(self, async_served):
        url, service, _server = async_served
        job = service.jobs.submit("test-bad-wait", lambda: {})
        status, headers, body = _request(
            url, "GET", f"/v1/jobs/{job['id']}?wait=soon")
        _assert_envelope(status, headers, body, "invalid_request")


class TestGracefulDrain:
    @staticmethod
    def _slow_scoring(service, delay: float):
        """Wrap service.score so in-flight requests take ``delay``."""
        original = service.score

        def slow(pairs):
            time.sleep(delay)
            return original(pairs)

        service.score = slow
        return original

    @staticmethod
    def _wait_admitted(server) -> None:
        """Block until a request holds a heavy admission slot."""
        deadline = time.monotonic() + 5.0
        while server._inflight_heavy < 1:
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.01)

    def test_async_drain_finishes_inflight(self, bundle_dir,
                                           small_world):
        service = _make_service(bundle_dir)
        self._slow_scoring(service, 0.4)
        harness = AsyncServerThread(service, port=0)
        host, port = harness.start()
        url = f"http://{host}:{port}"
        edges = sorted(small_world.existing_taxonomy.edges())[:2]
        payload = {"pairs": [list(e) for e in edges]}
        outcomes: list = []
        worker = threading.Thread(target=lambda: outcomes.append(
            _request(url, "POST", "/v1/score", payload)))
        try:
            worker.start()
            self._wait_admitted(harness.server)
            assert harness.stop(drain_timeout=5.0) is True
            worker.join(timeout=10)
            assert outcomes and outcomes[0][0] == 200
            # a draining server closes the connection after responding
            assert outcomes[0][1].get("Connection") == "close"
            # post-drain the listener is gone
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=0.5)
        finally:
            service.stop()

    def test_async_drain_timeout_reports_false(self, bundle_dir,
                                               small_world):
        service = _make_service(bundle_dir)
        self._slow_scoring(service, 1.5)
        harness = AsyncServerThread(service, port=0)
        host, port = harness.start()
        url = f"http://{host}:{port}"
        edges = sorted(small_world.existing_taxonomy.edges())[:2]
        payload = {"pairs": [list(e) for e in edges]}

        def doomed_request():
            try:  # the force-close below is the expected outcome
                _request(url, "POST", "/v1/score", payload)
            except OSError:
                pass

        worker = threading.Thread(target=doomed_request)
        try:
            worker.start()
            self._wait_admitted(harness.server)
            assert harness.stop(drain_timeout=0.2) is False
            worker.join(timeout=10)
        finally:
            service.stop()

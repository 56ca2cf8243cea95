"""Tests for the :class:`repro.api.TaxonomyClient` SDK.

Real-socket round-trips against a served bundle (score, expand,
ingest, async jobs via ``wait_for_job``), typed error mapping, the
retry-with-backoff transport policy against a scripted fake server,
and the ``repro score-remote`` / ``ingest-remote`` CLI commands that
ride on the SDK.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import TaxonomyApiError, TaxonomyClient
from repro.serving import ArtifactBundle, AsyncServerThread, TaxonomyService


@pytest.fixture(scope="module")
def bundle_dir(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("client_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return directory


@pytest.fixture(scope="module")
def served(bundle_dir):
    service = TaxonomyService(ArtifactBundle.load(bundle_dir))
    service.start()
    harness = AsyncServerThread(service)
    host, port = harness.start()
    yield f"http://{host}:{port}", service
    harness.stop()
    service.stop()


@pytest.fixture()
def client(served):
    url, _service = served
    return TaxonomyClient(url, timeout=30.0, retries=1, backoff=0.01)


class TestSynchronousCalls:
    def test_score_matches_service(self, client, served, small_world):
        _url, service = served
        edges = [list(edge) for edge in
                 sorted(small_world.existing_taxonomy.edges())[:4]]
        remote = client.score(edges)
        direct = service.score(edges)
        assert remote["probabilities"] == direct["probabilities"]

    def test_score_batched_preserves_order(self, client, small_world):
        edges = [list(edge) for edge in
                 sorted(small_world.existing_taxonomy.edges())[:6]]
        single = client.score(edges)["probabilities"]
        batched = client.score_batched(edges, batch_size=2)
        assert batched == single

    def test_ingest_sync_and_batched(self, client):
        ack = client.ingest([["apple", "client apple", 2]], sync=True)
        assert ack["accepted"] is True
        assert ack["report"]["batch_index"] >= 1
        outcomes = client.ingest_batched(
            [["pear", f"pear {i}"] for i in range(6)],
            batch_size=3, sync=True)
        assert len(outcomes) == 2
        assert all(o["accepted"] for o in outcomes)

    def test_expand_taxonomy_health_openapi(self, client, small_world):
        parents = sorted(small_world.existing_taxonomy.roots())
        outcome = client.expand(
            {parents[0]: sorted(small_world.new_concepts)[:1]})
        assert outcome["scored_candidates"] >= 1
        taxonomy = client.taxonomy()
        assert taxonomy["stats"]["edges"] == outcome["taxonomy_edges"]
        assert client.health()["status"] in ("ok", "degraded")
        assert "/v1/score" in client.openapi()["paths"]
        assert "repro_scorer_requests_total" in client.metrics_text()

    def test_reload_same_bundle(self, client, bundle_dir):
        outcome = client.reload(bundle_dir)
        assert outcome["reloaded"] is True


class TestErrorMapping:
    def test_invalid_request_surfaces_typed_error(self, client):
        with pytest.raises(TaxonomyApiError) as exc:
            client.score([["lonely"]])
        assert exc.value.code == "invalid_request"
        assert exc.value.status == 400
        assert exc.value.request_id.startswith("req-")
        assert not exc.value.retryable

    def test_job_not_found(self, client):
        with pytest.raises(TaxonomyApiError) as exc:
            client.job("job-definitely-missing")
        assert exc.value.code == "job_not_found"
        assert exc.value.status == 404

    def test_transport_error_is_retryable_type(self):
        dead = TaxonomyClient("http://127.0.0.1:1", timeout=0.2,
                              retries=0)
        with pytest.raises(TaxonomyApiError) as exc:
            dead.health()
        assert exc.value.code == "transport_error"
        assert exc.value.retryable


class TestAsyncJobs:
    def test_expand_job_end_to_end(self, client, small_world):
        # The ISSUE 5 acceptance path: submit -> poll -> result, all
        # through the SDK.
        parents = sorted(small_world.existing_taxonomy.roots())
        job = client.submit_expand_job(
            {parents[0]: sorted(small_world.new_concepts)[4:6]})
        assert job["status"] in ("pending", "running")
        done = client.wait_for_job(job["id"], timeout=60.0)
        assert done["status"] == "succeeded"
        assert done["result"]["scored_candidates"] >= 1

    def test_reload_job_end_to_end(self, client, bundle_dir):
        job = client.submit_reload_job(bundle_dir)
        done = client.wait_for_job(job["id"], timeout=120.0)
        assert done["result"]["reloaded"] is True
        assert done["result"]["directory"] == bundle_dir

    def test_failed_job_raises_with_stable_code(self, client):
        job = client.submit_reload_job("/no/such/bundle")
        with pytest.raises(TaxonomyApiError) as exc:
            client.wait_for_job(job["id"], timeout=60.0)
        assert exc.value.code == "reload_failed"

    def test_jobs_listing(self, client):
        listing = client.jobs()
        assert listing["jobs"]


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Fails the first N requests with a given status, then succeeds."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        server = self.server
        server.attempts += 1
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        if server.attempts <= server.failures:
            envelope = {"error": {"code": server.fail_code,
                                  "message": "scripted failure",
                                  "detail": None,
                                  "request_id": "req-scripted"}}
            body = json.dumps(envelope).encode()
            self.send_response(server.fail_status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Retry-After", "1")
            self.end_headers()
            self.wfile.write(body)
            return
        body = json.dumps({"pairs": [["a", "b"]],
                           "probabilities": [0.5]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def scripted_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    httpd.attempts = 0
    httpd.failures = 1
    httpd.fail_status = 429
    httpd.fail_code = "backpressure"
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield httpd, f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


class TestRetryPolicy:
    def test_retries_backpressure_then_succeeds(self, scripted_server):
        httpd, url = scripted_server
        client = TaxonomyClient(url, retries=2, backoff=0.01,
                                max_backoff=0.05)
        result = client.score([("a", "b")])
        assert result["probabilities"] == [0.5]
        assert httpd.attempts == 2  # one failure + one retry

    def test_retries_not_ready_503(self, scripted_server):
        httpd, url = scripted_server
        httpd.fail_status, httpd.fail_code = 503, "not_ready"
        client = TaxonomyClient(url, retries=2, backoff=0.01,
                                max_backoff=0.05)
        assert client.score([("a", "b")])["probabilities"] == [0.5]
        assert httpd.attempts == 2

    def test_no_retry_when_disabled(self, scripted_server):
        httpd, url = scripted_server
        client = TaxonomyClient(url, retries=0)
        with pytest.raises(TaxonomyApiError) as exc:
            client.score([("a", "b")])
        assert exc.value.code == "backpressure"
        assert httpd.attempts == 1

    def test_non_retryable_errors_fail_fast(self, scripted_server):
        httpd, url = scripted_server
        httpd.fail_status, httpd.fail_code = 400, "invalid_request"
        httpd.failures = 99
        client = TaxonomyClient(url, retries=3, backoff=0.01)
        with pytest.raises(TaxonomyApiError) as exc:
            client.score([("a", "b")])
        assert exc.value.code == "invalid_request"
        assert httpd.attempts == 1


class TestRetryJitter:
    """Unit tests for the full-jitter backoff schedule."""

    @staticmethod
    def _client(**kwargs):
        import random
        kwargs.setdefault("rng", random.Random(1234))
        return TaxonomyClient("http://localhost:1", backoff=0.1,
                              max_backoff=2.0, **kwargs)

    def test_delay_within_exponential_window(self):
        client = self._client()
        for attempt in range(6):
            window = min(0.1 * (2 ** attempt), 2.0)
            for _ in range(20):
                delay = client._retry_delay(attempt, None)
                assert 0.0 <= delay <= window

    def test_repeated_draws_differ(self):
        client = self._client()
        draws = {client._retry_delay(3, None) for _ in range(10)}
        assert len(draws) > 1  # full jitter, not a fixed schedule

    def test_retry_after_is_a_floor(self):
        client = self._client()
        # window at attempt 0 is 0.1s, but the server asked for 1s
        for _ in range(10):
            assert client._retry_delay(0, "1") >= 1.0

    def test_retry_after_floor_capped_at_max_backoff(self):
        client = self._client()
        delay = client._retry_delay(0, "3600")
        assert delay <= 2.0

    def test_unparseable_retry_after_ignored(self):
        client = self._client()
        delay = client._retry_delay(0, "Wed, 21 Oct 2015 07:28:00 GMT")
        assert 0.0 <= delay <= 0.1

    def test_seeded_rng_is_deterministic(self):
        import random
        first = TaxonomyClient("http://localhost:1", backoff=0.1,
                               max_backoff=2.0, rng=random.Random(7))
        second = TaxonomyClient("http://localhost:1", backoff=0.1,
                                max_backoff=2.0, rng=random.Random(7))
        assert [first._retry_delay(i, None) for i in range(5)] == \
            [second._retry_delay(i, None) for i in range(5)]


class TestRemoteCliCommands:
    def test_score_remote(self, served, capsys):
        from repro.cli import main
        url, _service = served
        exit_code = main(["score-remote", "--url", url,
                          "fruit,apple", "apple,fruit"])
        assert exit_code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "fruit -> apple" in lines[0]

    def test_score_remote_json_output(self, served, capsys):
        from repro.cli import main
        url, _service = served
        assert main(["score-remote", "--url", url, "--json",
                     "fruit,apple"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [["fruit", "apple"]]

    def test_score_remote_rejects_malformed_pair(self, served, capsys):
        from repro.cli import main
        url, _service = served
        assert main(["score-remote", "--url", url, "no-comma"]) == 2

    def test_ingest_remote(self, served, tmp_path, capsys):
        from repro.cli import main
        url, _service = served
        records = tmp_path / "records.json"
        records.write_text(json.dumps(
            [["fruit", "cli fruit item", 2], ["apple", "cli apple"]]))
        exit_code = main(["ingest-remote", "--url", url,
                          str(records), "--sync"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "sent 2 record(s) in 1 batch(es)" in out
        assert "attached edges:" in out

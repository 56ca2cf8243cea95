"""End-to-end contract tests for the versioned ``/v1`` HTTP API.

Covers the ISSUE 5 acceptance surface: typed schema round-trips on
every ``/v1`` endpoint, the canonical error envelope (shape, status,
``X-Request-Id``) for every stable error code, 413 on oversized
bodies, 429-with-``Retry-After`` backpressure vs 503 not-ready,
deprecated legacy aliases, async jobs over HTTP, and the generated
OpenAPI document.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ERROR_CODES, ROUTES
from repro.serving import (
    ArtifactBundle, AsyncServerThread, ServiceConfig, TaxonomyService,
)
from repro.serving.routes import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def bundle_dir(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("api_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return directory


@pytest.fixture(scope="module")
def server(bundle_dir):
    service = TaxonomyService(ArtifactBundle.load(bundle_dir))
    service.start()
    harness = AsyncServerThread(service)
    harness.start()
    yield harness
    harness.stop()
    service.stop()


def request(server, method, path, payload=None):
    """One request; returns (status, headers, parsed body)."""
    host, port = server.address
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            body = response.read()
            headers = dict(response.headers)
            status = response.status
    except urllib.error.HTTPError as error:
        body = error.read()
        headers = dict(error.headers)
        status = error.code
    content_type = headers.get("Content-Type", "")
    parsed = json.loads(body) if content_type.startswith(
        "application/json") else body.decode("utf-8")
    return status, headers, parsed


def assert_envelope(status, headers, body, code):
    """The canonical error contract: shape, status, X-Request-Id."""
    assert status == ERROR_CODES[code], body
    error = body["error"]
    assert error["code"] == code
    assert isinstance(error["message"], str) and error["message"]
    assert "detail" in error
    assert error["request_id"] == headers["X-Request-Id"]


class TestV1RoundTrips:
    def test_score_through_schema_layer(self, server, small_world):
        edges = sorted(small_world.existing_taxonomy.edges())[:3]
        status, headers, body = request(
            server, "POST", "/v1/score",
            {"pairs": [list(edge) for edge in edges]})
        assert status == 200
        assert set(body) == {"pairs", "probabilities"}
        assert len(body["probabilities"]) == 3
        assert all(0.0 <= p <= 1.0 for p in body["probabilities"])
        # parity with the legacy alias (same service underneath)
        _s, _h, legacy = request(
            server, "POST", "/score",
            {"pairs": [list(edge) for edge in edges]})
        assert legacy["probabilities"] == body["probabilities"]

    def test_expand_and_taxonomy(self, server, small_world):
        parents = sorted(small_world.existing_taxonomy.roots())
        candidates = {parents[0]: sorted(small_world.new_concepts)[:2]}
        status, _h, body = request(server, "POST", "/v1/expand",
                                   {"candidates": candidates})
        assert status == 200
        assert set(body) == {"attached_edges", "num_attached",
                             "scored_candidates", "taxonomy_edges"}
        status, _h, tax = request(server, "GET", "/v1/taxonomy")
        assert status == 200
        assert set(tax) == {"version", "nodes", "edges", "stats",
                            "reports"}
        assert tax["stats"]["edges"] == body["taxonomy_edges"]

    def test_suggest_round_trip(self, server, small_world):
        query = sorted(small_world.new_concepts)[0]
        status, _h, body = request(server, "POST", "/v1/suggest",
                                   {"query": query, "k": 3})
        assert status == 200
        assert set(body) == {"query", "k", "candidates", "retrieval"}
        assert body["query"] == query and body["k"] == 3
        assert 0 < len(body["candidates"]) <= 3
        for candidate in body["candidates"]:
            assert set(candidate) == {"concept", "probability",
                                      "similarity", "already_parent"}
            assert 0.0 <= candidate["probability"] <= 1.0
        probabilities = [c["probability"] for c in body["candidates"]]
        assert probabilities == sorted(probabilities, reverse=True)
        assert body["retrieval"]["mode"] in ("exact", "partitioned")
        assert body["retrieval"]["retrieved"] >= len(body["candidates"])

    def test_expand_via_retrieved_queries(self, server, small_world):
        queries = sorted(small_world.new_concepts)[2:4]
        status, _h, body = request(server, "POST", "/v1/expand",
                                   {"queries": queries, "top_k": 5})
        assert status == 200
        assert body["scored_candidates"] > 0

    def test_ingest_sync_and_async(self, server):
        status, _h, sync = request(
            server, "POST", "/v1/ingest",
            {"records": [["apple", "a fresh apple", 2]], "sync": True})
        assert status == 202
        assert sync["accepted"] is True
        assert sync["report"]["batch_index"] >= 1
        assert sync["pending_batches"] is None
        status, _h, async_ack = request(
            server, "POST", "/v1/ingest",
            {"records": [["pear", "a ripe pear"]]})
        assert status == 202
        assert async_ack["report"] is None
        assert async_ack["pending_batches"] >= 0

    def test_healthz_includes_job_counters(self, server):
        status, _h, body = request(server, "GET", "/v1/healthz")
        assert status == 200
        assert body["status"] in ("ok", "degraded")
        assert set(body["jobs"]) == {"submitted", "succeeded", "failed",
                                     "rejected", "listener_failures",
                                     "pending", "running", "retained"}

    def test_metrics_exposes_job_families(self, server):
        status, headers, text = request(server, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        for name in ("repro_jobs_submitted_total", "repro_jobs_pending",
                     "repro_scorer_requests_total"):
            assert f"# TYPE {name}" in text

    def test_reload_same_directory(self, server, bundle_dir):
        # Prior tests scored pairs, so the reload has cache entries to
        # replay through the new engine (cache warming).
        status, _h, body = request(server, "POST", "/v1/admin/reload",
                                   {"artifacts": bundle_dir})
        assert status == 200
        assert body["reloaded"] is True
        assert body["directory"] == bundle_dir
        assert body["cache_warmed_pairs"] > 0
        _s, _h, text = request(server, "GET", "/v1/metrics")
        assert "# TYPE repro_cache_warmed_pairs_total" in text


#: (method, path, body, expected code) — every stable error code is
#: asserted for envelope shape, status, and X-Request-Id, across every
#: /v1 route family.
ERROR_CASES = [
    ("POST", "/v1/score", {"pairs": [["lonely"]]}, "invalid_request"),
    ("POST", "/v1/score", {"pears": []}, "invalid_request"),
    ("POST", "/v1/score", {"pairs": "nope"}, "invalid_request"),
    ("POST", "/v1/expand", {"candidates": [1]}, "invalid_request"),
    ("POST", "/v1/expand", {}, "invalid_request"),
    ("POST", "/v1/expand",
     {"candidates": {"a": ["b"]}, "queries": ["c"]}, "invalid_request"),
    ("POST", "/v1/expand", {"queries": "apple"}, "invalid_request"),
    ("POST", "/v1/suggest", {}, "invalid_request"),
    ("POST", "/v1/suggest", {"query": "   "}, "invalid_request"),
    ("POST", "/v1/suggest", {"query": "apple", "k": 0},
     "invalid_request"),
    ("POST", "/v1/suggest", {"query": "apple", "k": 101},
     "invalid_request"),
    ("POST", "/v1/suggest", {"query": "apple", "bogus": 1},
     "invalid_request"),
    ("POST", "/v1/ingest", {"records": [["only-query"]]},
     "invalid_request"),
    ("POST", "/v1/ingest", {"records": [["q", "i", 0]]},
     "invalid_request"),
    ("POST", "/v1/admin/reload", {"artifacts": 7}, "invalid_request"),
    ("POST", "/v1/jobs/expand", {"candidates": 3}, "invalid_request"),
    ("POST", "/v1/jobs/reload", {"bogus": 1}, "invalid_request"),
    ("GET", "/v1/jobs/job-missing", None, "job_not_found"),
    ("GET", "/v1/nope", None, "not_found"),
    ("POST", "/v1/nope", {"x": 1}, "not_found"),
    ("GET", "/v1/jobs/deeper/nope", None, "not_found"),
    ("POST", "/v1/admin/reload", {"artifacts": "/no/such/bundle"},
     "reload_failed"),
]


class TestErrorEnvelope:
    @pytest.mark.parametrize("method,path,body,code", ERROR_CASES)
    def test_canonical_envelope(self, server, method, path, body, code):
        status, headers, parsed = request(server, method, path, body)
        assert_envelope(status, headers, parsed, code)

    def test_invalid_request_names_offending_field(self, server):
        _s, _h, body = request(server, "POST", "/v1/score",
                               {"pairs": "nope"})
        assert body["error"]["detail"] == {"field": "pairs"}

    def test_malformed_json_is_invalid_request(self, server):
        host, port = server.address
        req = urllib.request.Request(
            f"http://{host}:{port}/v1/score", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        assert exc.value.code == 400
        body = json.loads(exc.value.read())
        assert body["error"]["code"] == "invalid_request"

    def test_payload_too_large_is_413(self, server):
        # Announce an oversized body; the server must reject on the
        # header alone with the canonical envelope, before reading.
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/score")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length",
                                 str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 413
            assert body["error"]["code"] == "payload_too_large"
            assert body["error"]["detail"]["limit_bytes"] == \
                MAX_BODY_BYTES
            assert response.headers["X-Request-Id"] == \
                body["error"]["request_id"]
        finally:
            connection.close()

    def test_negative_content_length_is_rejected(self, server):
        # a negative length must be refused from the header alone
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/score")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "invalid_request"
        finally:
            connection.close()

    def test_request_ids_are_unique_per_request(self, server):
        _s1, h1, _b1 = request(server, "GET", "/v1/healthz")
        _s2, h2, _b2 = request(server, "GET", "/v1/healthz")
        assert h1["X-Request-Id"] != h2["X-Request-Id"]


class TestBackpressureVsNotReady:
    def test_ingest_queue_full_is_429_with_retry_after(self, bundle_dir):
        service = TaxonomyService(ArtifactBundle.load(bundle_dir),
                                  ServiceConfig(max_ingest_queue=2))
        service.start()
        harness = AsyncServerThread(service)
        harness.start()
        try:
            # Stall the ingest worker: it blocks on the taxonomy lock
            # holding one batch, so the bounded queue fills behind it.
            with service._taxonomy_lock:
                saw_backpressure = None
                for _ in range(10):
                    status, headers, body = request(
                        harness, "POST", "/v1/ingest",
                        {"records": [["apple", "an apple"]]})
                    if status != 202:
                        saw_backpressure = (status, headers, body)
                        break
                assert saw_backpressure is not None, \
                    "queue never filled"
                status, headers, body = saw_backpressure
                assert_envelope(status, headers, body, "backpressure")
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                assert "pending_batches" in body["error"]["detail"]
        finally:
            harness.stop()
            service.stop()

    def test_legacy_ingest_keeps_503_on_queue_full(self, bundle_dir):
        service = TaxonomyService(ArtifactBundle.load(bundle_dir),
                                  ServiceConfig(max_ingest_queue=2))
        service.start()
        harness = AsyncServerThread(service)
        harness.start()
        try:
            with service._taxonomy_lock:
                saw_rejection = None
                for _ in range(10):
                    status, _h, body = request(
                        harness, "POST", "/ingest",
                        {"records": [["apple", "an apple"]]})
                    if status != 202:
                        saw_rejection = (status, body)
                        break
                assert saw_rejection is not None
                status, body = saw_rejection
                assert status == 503  # historical alias semantics
                assert body["accepted"] is False
        finally:
            harness.stop()
            service.stop()

    def test_reload_in_flight_is_503_not_ready(self, server):
        # /v1/admin/reload must not queue behind a running swap — it
        # answers 503 not_ready so callers can tell "busy" from "broken".
        service = server.server.service
        with service._reload_lock:
            status, headers, body = request(
                server, "POST", "/v1/admin/reload", {"artifacts": None})
        assert_envelope(status, headers, body, "not_ready")
        assert int(headers["Retry-After"]) >= 1

    def test_unstarted_service_is_503_not_ready(self, bundle_dir):
        service = TaxonomyService(ArtifactBundle.load(bundle_dir))
        harness = AsyncServerThread(service)
        harness.start()
        try:
            status, headers, body = request(
                harness, "POST", "/v1/score",
                {"pairs": [["fruit", "apple"]]})
            assert_envelope(status, headers, body, "not_ready")
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
        finally:
            harness.stop()


class TestLegacyAliases:
    LEGACY = [route for route in ROUTES if route.legacy_alias]

    @pytest.mark.parametrize(
        "route", LEGACY, ids=[r.legacy_alias for r in LEGACY])
    def test_alias_emits_deprecation_and_successor(self, server, route):
        body = None
        if route.method == "POST":
            body = {}  # legacy permissive defaults: empty body is fine
            if route.handler == "reload":
                pytest.skip("legacy reload with empty body swaps the "
                            "bundle; covered by reload tests")
        status, headers, _parsed = request(
            server, route.method, route.legacy_alias, body)
        assert status < 500, (route.legacy_alias, _parsed)
        assert headers["Deprecation"] == "true"
        assert headers["Link"] == \
            f'<{route.path}>; rel="successor-version"'
        assert "X-Request-Id" in headers

    def test_v1_routes_are_not_deprecated(self, server):
        _s, headers, _b = request(server, "GET", "/v1/healthz")
        assert "Deprecation" not in headers

    def test_legacy_score_keeps_permissive_defaults(self, server):
        status, _h, body = request(server, "POST", "/score", {})
        assert status == 200
        assert body["probabilities"] == []

    def test_legacy_healthz_keeps_raw_shape(self, server):
        # no schema normalisation on the alias: a journal-less service
        # omits "journal" entirely (pre-/v1 monitoring contract)
        _s, _h, body = request(server, "GET", "/healthz")
        assert "journal" not in body
        _s, _h, v1 = request(server, "GET", "/v1/healthz")
        assert v1["journal"] is None  # normalised: nullable, present


class TestOpenApiDocument:
    def test_served_document_lists_every_route(self, server):
        status, _h, doc = request(server, "GET", "/v1/openapi.json")
        assert status == 200
        for route in ROUTES:
            assert route.path in doc["paths"], route.path
            assert route.method.lower() in doc["paths"][route.path]
            if route.legacy_alias:
                alias = doc["paths"][route.legacy_alias]
                assert alias[route.method.lower()]["deprecated"] is True

    def test_routes_declare_their_503s(self, server):
        # reload and job submissions can answer 503 not_ready; the
        # generated document must declare it (no contract drift).
        _s, _h, doc = request(server, "GET", "/v1/openapi.json")
        for path in ("/v1/admin/reload", "/v1/jobs/expand",
                     "/v1/jobs/reload"):
            responses = doc["paths"][path]["post"]["responses"]
            assert "503" in responses, path

    def test_schema_refs_resolve(self, server):
        _s, _h, doc = request(server, "GET", "/v1/openapi.json")
        schemas = doc["components"]["schemas"]
        for path_entry in doc["paths"].values():
            for operation in path_entry.values():
                text = json.dumps(operation)
                for chunk in text.split('"#/components/schemas/')[1:]:
                    name = chunk.split('"', 1)[0]
                    assert name in schemas, name


class TestJobsOverHttp:
    def poll(self, server, job_id, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _s, _h, job = request(server, "GET", f"/v1/jobs/{job_id}")
            if job["status"] in ("succeeded", "failed"):
                return job
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never finished")

    def test_expand_job_completes(self, server, small_world):
        parents = sorted(small_world.existing_taxonomy.roots())
        candidates = {parents[0]: sorted(small_world.new_concepts)[2:4]}
        status, _h, job = request(server, "POST", "/v1/jobs/expand",
                                  {"candidates": candidates})
        assert status == 202
        assert job["status"] in ("pending", "running")
        done = self.poll(server, job["id"])
        assert done["status"] == "succeeded"
        assert done["result"]["scored_candidates"] >= 1
        assert done["error"] is None

    def test_failed_job_stores_stable_code(self, server):
        _s, _h, job = request(server, "POST", "/v1/jobs/reload",
                              {"artifacts": "/no/such/bundle"})
        done = self.poll(server, job["id"])
        assert done["status"] == "failed"
        assert done["error"]["code"] == "reload_failed"
        assert done["result"] is None

    def test_job_listing_is_newest_first(self, server):
        _s, _h, listing = request(server, "GET", "/v1/jobs")
        assert listing["jobs"], "jobs from earlier tests expected"
        times = [job["submitted_at"] for job in listing["jobs"]]
        assert times == sorted(times, reverse=True)

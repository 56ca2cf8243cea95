"""End-to-end HTTP smoke tests on an ephemeral port.

Exercises the full serving path the way ``repro serve`` wires it: export a
fitted pipeline to a bundle directory, load it back, wrap it in a
:class:`TaxonomyService`, and talk JSON over a real socket.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.serving import ArtifactBundle, AsyncServerThread, TaxonomyService


@pytest.fixture(scope="module")
def server(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("http_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    service = TaxonomyService(ArtifactBundle.load(directory))
    service.start()
    harness = AsyncServerThread(service)  # ephemeral port
    harness.start()
    yield harness
    harness.stop()
    service.stop()


def request(server, path, payload=None):
    host, port = server.address
    url = f"http://{host}:{port}{path}"
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def request_text(server, path):
    host, port = server.address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=30) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


class TestMetrics:
    def test_prometheus_exposition(self, server):
        # Generate some traffic first so counters are non-trivial.
        request(server, "/score", {"pairs": [["fruit", "apple"]]})
        status, content_type, text = request_text(server, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        for name in ("repro_scorer_requests_total",
                     "repro_scorer_cache_hits_total",
                     "repro_scorer_pairs_scored_total",
                     "repro_ingest_queue_depth",
                     "repro_ingest_processed_batches_total",
                     "repro_taxonomy_edges",
                     "repro_uptime_seconds"):
            assert f"# TYPE {name}" in text, name
            assert f"\n{name}" in text or text.startswith(name), name

    def test_engine_counters_exported(self, server):
        request(server, "/score", {"pairs": [["fruit", "banana"]]})
        _status, _ct, text = request_text(server, "/metrics")
        # The bundle compiles the fast engine at load time, so its
        # dtype-labelled counters must be present.
        assert 'repro_engine_info{dtype="float32"} 1' in text
        assert 'repro_engine_pairs_scored_total{dtype="float32"}' in text

    def test_counters_move_with_traffic(self, server):
        def scored_total():
            _s, _c, text = request_text(server, "/metrics")
            line = [l for l in text.splitlines()
                    if l.startswith("repro_scorer_pairs_requested_total ")]
            return float(line[0].split()[-1])

        before = scored_total()
        request(server, "/score", {"pairs": [["fruit", "cherry"]]})
        assert scored_total() == before + 1


class TestHealthz:
    def test_reports_ok(self, server):
        status, body = request(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == {"ingestor": True}
        assert body["taxonomy_edges"] > 0


class TestScore:
    def test_scores_pairs(self, server, small_world):
        edges = sorted(small_world.existing_taxonomy.edges())[:3]
        status, body = request(server, "/score",
                               {"pairs": [list(edge) for edge in edges]})
        assert status == 200
        assert len(body["probabilities"]) == 3
        assert all(0.0 <= p <= 1.0 for p in body["probabilities"])

    def test_matches_bundle_scoring(self, server, tiny_fitted_pipeline,
                                    small_world):
        import numpy as np
        from repro.nn import SCORE_TOLERANCE
        edges = sorted(small_world.existing_taxonomy.edges())[:5]
        _status, body = request(server, "/score",
                                {"pairs": [list(edge) for edge in edges]})
        direct = tiny_fitted_pipeline.score_pairs(
            [tuple(edge) for edge in edges])
        # The served path may score a pair inside a different float32
        # batch composition than the direct call (BLAS blocking varies
        # with shape), so parity holds to the engine tolerance, not
        # bit-for-bit.
        np.testing.assert_allclose(body["probabilities"], direct,
                                   atol=SCORE_TOLERANCE, rtol=0)

    def test_bad_pair_shape_is_400(self, server):
        status, body = request(server, "/score",
                               {"pairs": [["lonely"]]})
        assert status == 400
        assert "error" in body


class TestIngestAndTaxonomy:
    def test_sync_ingest_reports(self, server, small_world,
                                 small_click_log):
        records = [[query, item, count] for (query, item), count
                   in sorted(small_click_log.counts.items())[:40]]
        status, body = request(server, "/ingest",
                               {"records": records, "sync": True})
        assert status == 202
        assert body["accepted"] is True
        assert body["report"]["batch_index"] >= 1
        assert body["report"]["taxonomy_edges_after"] >= \
            small_world.existing_taxonomy.num_edges

    def test_async_ingest_accepted(self, server):
        status, body = request(
            server, "/ingest",
            {"records": [["apple", "a fresh apple", 2]]})
        assert status == 202
        assert body["accepted"] is True

    def test_taxonomy_reflects_ingestion(self, server):
        # A sync roundtrip guarantees prior async batches are processed too.
        request(server, "/ingest", {"records": [["pear", "a ripe pear"]],
                                    "sync": True})
        status, body = request(server, "/taxonomy")
        assert status == 200
        stats = body["stats"]
        assert stats["ingested_batches"] >= 2
        assert stats["accumulated_click_records"] >= 3
        # reports is a bounded recent-history window
        assert 1 <= len(body["reports"]) <= stats["ingested_batches"]
        assert stats["edges"] == len(body["edges"])

    def test_malformed_records_are_400(self, server):
        status, body = request(server, "/ingest",
                               {"records": [["missing-item"]]})
        assert status == 400
        assert "error" in body


class TestExpand:
    def test_expand_commits_accepted_edges(self, server, small_world):
        # Oracle-free: candidates drawn from real held-out concepts; the
        # tiny detector may accept or reject, but the route must answer
        # and keep state consistent.
        parents = sorted(small_world.existing_taxonomy.roots())
        candidates = {parents[0]: sorted(small_world.new_concepts)[:3]}
        status, body = request(server, "/expand",
                               {"candidates": candidates})
        assert status == 200
        assert body["scored_candidates"] >= 1
        _status, tax = request(server, "/taxonomy")
        assert tax["stats"]["edges"] == body["taxonomy_edges"]


class TestRouting:
    def test_unknown_route_404(self, server):
        status, body = request(server, "/nope")
        assert status == 404
        assert "error" in body

    def test_unknown_post_route_404(self, server):
        status, _body = request(server, "/nope", {"x": 1})
        assert status == 404

    def test_invalid_json_400(self, server):
        host, port = server.address
        req = urllib.request.Request(
            f"http://{host}:{port}/score", data=b"{not json",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400

"""Candidate-retrieval subsystem: kernels, index, freshness, service.

Four layers under test:

* ``repro.retrieval.kernels`` — the blocked exact top-k must be
  *bit-identical* to the naive "score everything, argsort" oracle,
  including boundary ties, ``k > n`` and empty inputs;
* ``repro.retrieval.index`` — partitioned (IVF) search recall,
  the measured-recall escape hatch, and incremental ``add``;
* ``repro.retrieval.refresh`` — epoch-fenced ``CandidateRetriever``
  maintenance (extend-only embedding, engine epoch stamping);
* ``TaxonomyService.suggest`` / retrieval-backed ``expand`` — the
  serving integration, including index freshness after ingest.
"""

import threading

import numpy as np
import pytest

from repro.api.errors import ApiError
from repro.retrieval import (
    CandidateIndex, CandidateRetriever, IndexConfig, row_norms,
    topk_blocked,
)
from repro.serving import ArtifactBundle, AsyncServerThread, TaxonomyService


def naive_topk(queries, matrix, k, metric="cosine"):
    """Reference oracle: full scores, full lexsort, total order."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    matrix = np.asarray(matrix, dtype=np.float64)
    out_scores, out_ids = [], []
    for query in queries:
        scores = matrix @ query
        if metric == "cosine":
            qnorm = np.linalg.norm(query) or 1.0
            norms = np.linalg.norm(matrix, axis=1)
            scores = scores / (np.where(norms > 0, norms, 1.0) * qnorm)
        order = np.lexsort((np.arange(len(scores)), -scores))[:k]
        out_scores.append(scores[order])
        out_ids.append(order)
    return out_scores, out_ids


class TestKernels:
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    @pytest.mark.parametrize("k", [1, 5, 499, 500, 600])
    def test_blocked_matches_naive_oracle(self, metric, k, rng):
        matrix = rng.normal(size=(500, 12))
        queries = rng.normal(size=(4, 12))
        scores, ids = topk_blocked(
            queries.astype(np.float64), matrix.astype(np.float64), k,
            metric=metric, block_rows=37)
        _oracle_scores, oracle_ids = naive_topk(
            queries, matrix, k, metric)
        for q in range(4):
            assert np.array_equal(ids[q], oracle_ids[q][:len(ids[q])])
        assert ids.shape[1] == min(k, 500)

    def test_boundary_ties_resolve_by_row_id(self):
        # Every row identical: top-k must be rows 0..k-1 regardless of
        # where slab boundaries fall relative to the argpartition cut.
        matrix = np.ones((100, 6))
        _scores, ids = topk_blocked(np.ones(6), matrix, 7, block_rows=9)
        assert ids[0].tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_zero_rows_and_zero_queries(self):
        scores, ids = topk_blocked(np.ones((0, 4)), np.ones((5, 4)), 3)
        assert scores.shape == (0, 0) and ids.shape == (0, 0)
        scores, ids = topk_blocked(np.ones((2, 4)), np.ones((0, 4)), 3)
        assert scores.shape == (2, 0) and ids.shape == (2, 0)

    def test_zero_norm_rows_score_zero_not_nan(self):
        matrix = np.vstack([np.zeros(4), np.ones(4)])
        scores, ids = topk_blocked(np.ones(4), matrix, 2)
        assert ids[0].tolist() == [1, 0]
        assert scores[0][1] == 0.0 and np.isfinite(scores[0]).all()

    def test_exclusion_and_row_ids(self, rng):
        matrix = rng.normal(size=(50, 8))
        query = matrix[3]
        _s, ids = topk_blocked(query, matrix, 3, exclude=[3])
        assert 3 not in ids[0]
        # global row ids survive a gathered submatrix
        rows = np.array([40, 3, 17], dtype=np.int64)
        _s, gathered = topk_blocked(query, matrix[rows], 1, row_ids=rows)
        assert gathered[0][0] == 3

    def test_everything_excluded_is_empty(self):
        scores, ids = topk_blocked(np.ones(3), np.eye(3), 2,
                                   exclude=[0, 1, 2])
        assert scores.shape == (1, 0) and ids.shape == (1, 0)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            topk_blocked(np.ones(3), np.eye(3), 0)
        with pytest.raises(ValueError):
            topk_blocked(np.ones(3), np.eye(3), 1, metric="euclid")
        with pytest.raises(ValueError):
            topk_blocked(np.ones(4), np.eye(3), 1)  # dim mismatch

    def test_row_norms_matches_linalg(self, rng):
        matrix = rng.normal(size=(20, 5))
        assert np.allclose(row_norms(matrix),
                           np.linalg.norm(matrix, axis=1))


def clustered(num_rows, dim, clusters, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    labels = rng.integers(0, clusters, size=num_rows)
    return centers[labels] + rng.normal(size=(num_rows, dim)) * noise


class TestCandidateIndex:
    def test_exact_search_returns_ranked_concepts(self, rng):
        matrix = rng.normal(size=(30, 6))
        index = CandidateIndex([f"c{i}" for i in range(30)], matrix)
        assert index.mode == "exact" and len(index) == 30
        results = index.search(matrix[4], 3)[0]
        assert results[0][0] == "c4"
        scores = [score for _c, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_duplicate_concepts_rejected(self):
        with pytest.raises(ValueError):
            CandidateIndex(["a", "a"], np.ones((2, 3)))

    def test_add_dedupes_and_makes_retrievable(self, rng):
        matrix = rng.normal(size=(10, 4))
        index = CandidateIndex([f"c{i}" for i in range(10)], matrix)
        fresh = rng.normal(size=(2, 4))
        added = index.add(["new0", "c3", "new1"],
                          np.vstack([fresh[0], matrix[3], fresh[1]]))
        assert added == 2 and len(index) == 12
        assert "new0" in index and "new1" in index
        assert index.search(fresh[1], 1)[0][0][0] == "new1"
        stats = index.stats_snapshot()
        assert stats.adds == 1 and stats.rows_added == 2

    def test_partitioned_mode_recall_vs_exact(self):
        matrix = clustered(3000, 12, 12)
        concepts = [f"c{i}" for i in range(3000)]
        index = CandidateIndex(concepts, matrix, IndexConfig(
            partition_min_rows=256, cells=12))
        assert index.mode == "partitioned"
        queries = matrix[:40] + 0.01
        exact = index.search(queries, 10, mode="exact")
        part = index.search(queries, 10)
        hits = total = 0
        for truth_row, got_row in zip(exact, part):
            truth = {c for c, _s in truth_row}
            hits += len(truth & {c for c, _s in got_row})
            total += len(truth)
        assert hits / total >= 0.95
        stats = index.stats_snapshot()
        assert stats.partition_searches >= 1
        assert stats.partition_probes > 0

    def test_partitioned_add_is_searchable_without_rebuild(self):
        matrix = clustered(2000, 8, 8)
        index = CandidateIndex([f"c{i}" for i in range(2000)], matrix,
                               IndexConfig(partition_min_rows=128,
                                           cells=8))
        assert index.mode == "partitioned"
        probe = clustered(1, 8, 8, seed=9)[0]
        index.add(["fresh"], probe[np.newaxis, :])
        assert index.search(probe, 1)[0][0][0] == "fresh"

    def test_measured_recall_escape_hatch(self):
        # An impossible floor forces the build-time measurement to fail:
        # partitions are disabled, searches fall back to exact, and the
        # fallback is counted.
        matrix = clustered(1000, 8, 8)
        index = CandidateIndex([f"c{i}" for i in range(1000)], matrix,
                               IndexConfig(partition_min_rows=64,
                                           cells=8, min_recall=1.01))
        assert index.mode == "exact"
        index.search(matrix[0], 3)
        stats = index.stats_snapshot()
        assert stats.exact_fallbacks == 1
        assert stats.measured_recall <= 1.0

    def test_forced_exact_mode_on_partitioned_index(self):
        matrix = clustered(1500, 8, 6)
        index = CandidateIndex([f"c{i}" for i in range(1500)], matrix,
                               IndexConfig(partition_min_rows=128,
                                           cells=6))
        ids_exact = [c for c, _s in
                     index.search(matrix[7], 5, mode="exact")[0]]
        oracle = naive_topk(matrix[7], matrix, 5)[1][0]
        assert ids_exact == [f"c{i}" for i in oracle]

    def test_concurrent_search_and_add(self, rng):
        matrix = rng.normal(size=(200, 6))
        index = CandidateIndex([f"c{i}" for i in range(200)], matrix)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    index.search(matrix[:4], 5)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for batch in range(20):
            index.add([f"x{batch}"], rng.normal(size=(1, 6)))
        for thread in threads:
            thread.join()
        assert not errors and len(index) == 220


class FakeEngine:
    """Just enough engine surface for epoch bookkeeping tests."""

    def __init__(self, epoch=0):
        self.structural_epoch = epoch
        self.marked = []

    def mark_norms_cached(self, epoch):
        self.marked.append(epoch)


class TestCandidateRetriever:
    def embed_factory(self, dim=6):
        calls = []

        def embed(concepts):
            calls.append(list(concepts))
            rng = np.random.default_rng(
                abs(hash(tuple(concepts))) % (2 ** 32))
            return rng.normal(size=(len(concepts), dim))

        embed.calls = calls
        return embed

    def test_extend_embeds_only_missing(self):
        embed = self.embed_factory()
        retriever = CandidateRetriever(embed, ["a", "b", "c"])
        assert len(retriever) == 3 and embed.calls == [["a", "b", "c"]]
        added = retriever.extend(["b", "d", "d"])
        assert added == 1 and embed.calls[-1] == ["d"]
        assert "d" in retriever
        assert retriever.extend(["a", "d"]) == 0
        assert len(embed.calls) == 2  # nothing re-embedded

    def test_epoch_recording_and_engine_stamp(self):
        engine = FakeEngine(epoch=5)
        retriever = CandidateRetriever(self.embed_factory(), ["a"],
                                       engine=engine)
        assert retriever.synced_epoch == 5 and engine.marked == [5]
        engine.structural_epoch = 9
        retriever.extend(["b"])  # picks the epoch up from the engine
        assert retriever.synced_epoch == 9
        retriever.extend(["c"], epoch=7)  # monotonic: never regresses
        assert retriever.synced_epoch == 9
        assert engine.marked[-1] == 9

    def test_empty_initial_build_then_extend(self):
        retriever = CandidateRetriever(self.embed_factory(), [])
        assert len(retriever) == 0
        assert retriever.neighbors("anything", 3) == []
        assert retriever.extend(["a", "b"]) == 2
        assert retriever.rebuilds == 2  # zero-dim matrix was replaced
        assert len(retriever.neighbors("a", 5)) >= 1

    def test_neighbors_excludes_query_itself(self):
        retriever = CandidateRetriever(self.embed_factory(),
                                       ["a", "b", "c"])
        names = [c for c, _s in retriever.neighbors("a", 10)]
        assert "a" not in names and len(names) == 2
        stats = retriever.stats()
        assert stats["mode"] == "exact" and stats["size"] == 3


@pytest.fixture(scope="module")
def service(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("retrieval_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    service = TaxonomyService(ArtifactBundle.load(directory))
    service.start()
    yield service
    service.stop()


class TestServiceIntegration:
    def test_suggest_payload_shape(self, service, small_world):
        query = sorted(small_world.new_concepts)[0]
        result = service.suggest(query, k=4)
        assert result["query"] == query and result["k"] == 4
        assert 0 < len(result["candidates"]) <= 4
        probabilities = [c["probability"]
                         for c in result["candidates"]]
        assert probabilities == sorted(probabilities, reverse=True)
        retrieval = result["retrieval"]
        assert retrieval["mode"] in ("exact", "partitioned")
        assert retrieval["retrieved"] >= retrieval["reranked"] \
            or retrieval["reranked"] <= retrieval["retrieved"]
        assert retrieval["index_size"] > 0

    def test_index_absorbs_expansion_without_rebuild(
            self, service, small_world):
        # Attach a new concept (threshold dropped to 0 so the
        # attachment is deterministic), then confirm it is retrievable
        # and the retriever did not rebuild the index to get there.
        import dataclasses

        service.suggest(sorted(small_world.new_concepts)[0])
        retriever = service._retriever
        rebuilds_before = retriever.rebuilds
        parent = sorted(small_world.existing_taxonomy.roots())[0]
        fresh = "retrieval-freshness-probe"
        config = service.expander.config
        service.expander.config = dataclasses.replace(
            config, threshold=0.0)
        try:
            outcome = service.expand({parent: [fresh]})
        finally:
            service.expander.config = config
        assert [parent, fresh] in outcome["attached_edges"]
        assert fresh in retriever
        assert retriever.rebuilds == rebuilds_before
        suggestion = service.suggest(fresh, k=3)
        assert suggestion["candidates"]

    def test_expand_via_queries_uses_index(self, service, small_world):
        queries = sorted(small_world.new_concepts)[1:3]
        outcome = service.expand(queries=queries, top_k=5)
        assert outcome["scored_candidates"] > 0

    def test_expand_requires_exactly_one_of(self, service):
        with pytest.raises(ApiError) as excinfo:
            service.expand()
        assert excinfo.value.code == "invalid_request"
        with pytest.raises(ApiError):
            service.expand({"a": ["b"]}, queries=["c"])

    def test_health_and_metrics_expose_retrieval(self, service):
        service.suggest("apple")
        health = service.health()
        assert "retrieval" in health and health["retrieval"] is not None
        assert health["retrieval"]["size"] > 0
        assert health["retrieval"]["suggest_requests"] >= 1
        text = service.metrics_text()
        for name in ("repro_suggest_requests_total",
                     "repro_retrieval_index_size",
                     "repro_retrieval_index_rebuilds_total",
                     "repro_retrieval_synced_epoch",
                     "repro_engine_norms_epoch"):
            assert f"# TYPE {name}" in text, name


class TestHttpSuggest:
    def test_round_trip_over_http(self, service, small_world):
        import json
        import urllib.request

        harness = AsyncServerThread(service)
        host, port = harness.start()
        try:
            query = sorted(small_world.new_concepts)[0]
            payload = json.dumps({"query": query, "k": 2}).encode()
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/suggest", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
                assert response.status == 200
            assert body["query"] == query
            assert len(body["candidates"]) <= 2
        finally:
            harness.stop()

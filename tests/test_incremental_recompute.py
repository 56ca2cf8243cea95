"""Recompute-on-ingest: the engine's live GNN propagation vs the oracle.

The compiled engine now owns the structural graph: it propagates node
embeddings itself and, when the serving layer attaches concepts, merges
the new edges and recomputes only the dirty k-hop frontier.  These tests
pin the contract from every layer:

* kernel/engine level — for every aggregator and hop count, the
  incrementally grown engine matches a *freshly built* autograd
  :class:`~repro.gnn.StructuralEncoder` over the engine's exported
  arrays to 1e-4, and a frontier recompute equals a full rebuild;
* serving level — after ``/expand`` or streamed ingest the very next
  score uses the updated structural features with no reload, in both
  single-process and sharded (2-worker) mode, including across worker
  respawns and hot reloads.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, HyponymyDetector
from repro.gnn import StructuralConfig, StructuralEncoder
from repro.infer import InferenceEngine
from repro.serving import (
    ArtifactBundle, BatchingScorer, ServiceConfig, ShardedScorerPool,
    TaxonomyService,
)

AGGREGATORS = ("gcn", "sage", "gat")


def _structural_detector(aggregator: str, num_hops: int, n: int = 30,
                         seed: int = 0):
    """A structural-only detector over a random weighted graph (no PLM,
    so engine compilation is instant)."""
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n))
    for _ in range(2 * n):
        u, v = rng.integers(0, n, 2)
        if u != v:
            weight = float(rng.uniform(0.5, 2.0))
            adjacency[u, v] = adjacency[v, u] = weight
    np.fill_diagonal(adjacency, 1.0)
    nodes = [f"c{i}" for i in range(n)]
    features = rng.normal(0.0, 0.3, size=(n, 16))
    encoder = StructuralEncoder.from_arrays(
        nodes, features, adjacency,
        StructuralConfig(hidden_dim=8, num_hops=num_hops,
                         aggregator=aggregator, position_dim=2))
    detector = HyponymyDetector(
        None, encoder,
        DetectorConfig(use_relational=False, use_structural=True))
    return encoder, detector


def _oracle_matrix(engine: InferenceEngine,
                   encoder: StructuralEncoder) -> np.ndarray:
    """Node embeddings of a from-scratch autograd encoder over the
    engine's live (incrementally grown) arrays."""
    arrays = engine.structural_arrays()
    oracle = StructuralEncoder.from_arrays(
        arrays["nodes"], arrays["features"], arrays["adjacency"],
        encoder.config)
    oracle.load_state_dict(encoder.state_dict())
    return oracle.node_embedding_matrix()


class TestEnginePropagation:
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("num_hops", (1, 2))
    def test_build_matches_autograd(self, aggregator, num_hops):
        encoder, detector = _structural_detector(aggregator, num_hops)
        engine = detector.compile_inference()
        delta = np.abs(encoder.node_embedding_matrix()
                       - engine.node_embedding_matrix()).max()
        assert delta < 1e-4

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("num_hops", (1, 2))
    def test_incremental_matches_fresh_oracle(self, aggregator, num_hops):
        encoder, detector = _structural_detector(aggregator, num_hops)
        engine = detector.compile_inference()
        summary = engine.apply_attachments(
            [("c0", "brand new concept"), ("c3", "c7"),
             ("brand new concept", "c5")])
        assert summary["applied"]
        assert summary["new_nodes"] == ["brand new concept"]
        assert summary["applied_edges"] == 3
        assert "brand new concept" in summary["dirty_concepts"]
        delta = np.abs(_oracle_matrix(engine, encoder)
                       - engine.node_embedding_matrix()).max()
        assert delta < 1e-4

    def test_frontier_equals_full_rebuild(self):
        _encoder, detector = _structural_detector("gcn", 2, n=60)
        engine = detector.compile_inference()
        engine.apply_attachments([("c1", "c40"), ("c2", "new a"),
                                  ("new a", "new b")])
        incremental = engine.node_embedding_matrix()
        engine.recompute_structural()
        np.testing.assert_array_equal(incremental,
                                      engine.node_embedding_matrix())

    def test_reapply_is_idempotent(self):
        _encoder, detector = _structural_detector("gcn", 1)
        engine = detector.compile_inference()
        edges = [("c0", "c9"), ("c1", "fresh")]
        first = engine.apply_attachments(edges)
        second = engine.apply_attachments(edges)
        assert first["applied_edges"] == 2
        assert second["applied_edges"] == 0
        assert second["new_nodes"] == []
        assert second["epoch"] == first["epoch"]  # no-op: fence untouched

    def test_new_concept_leaves_zero_fallback(self):
        _encoder, detector = _structural_detector("gcn", 1)
        engine = detector.compile_inference()
        before = engine.pair_features([("c0", "late arrival")])
        hidden = 8
        assert np.all(before[0, hidden + 2:2 * hidden + 2] == 0.0)
        engine.apply_attachments([("c0", "late arrival")])
        after = engine.pair_features([("c0", "late arrival")])
        assert np.any(after[0, hidden + 2:2 * hidden + 2] != 0.0) or \
            np.any(after[0, :hidden] != before[0, :hidden])

    def test_growth_past_slack_keeps_parity(self):
        """Buffer reallocation (beyond the growth slack) must preserve
        every existing row and the zero-fallback invariant."""
        encoder, detector = _structural_detector("gcn", 1, n=10)
        engine = detector.compile_inference()
        edges = [("c0", f"streamed {i}")
                 for i in range(engine._GROWTH_SLACK + 20)]
        engine.apply_attachments(edges)
        delta = np.abs(_oracle_matrix(engine, encoder)
                       - engine.node_embedding_matrix()).max()
        assert delta < 1e-4
        unknown = engine.pair_features([("nope", "also nope")])
        hidden = 8
        assert np.all(unknown[0, :hidden] == 0.0)

    def test_concurrent_scoring_during_attachments(self):
        encoder, detector = _structural_detector("gcn", 2, n=40)
        engine = detector.compile_inference()
        pairs = [(f"c{i}", f"c{(i + 3) % 40}") for i in range(20)]
        stop = threading.Event()
        errors: list[BaseException] = []

        def hammer():
            while not stop.is_set():
                try:
                    probs = engine.score_pairs(pairs)
                    assert np.all(np.isfinite(probs))
                except BaseException as error:  # pragma: no cover
                    errors.append(error)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for batch in range(8):
                engine.apply_attachments(
                    [(f"c{batch}", f"streamed {batch}")])
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
        assert not errors
        delta = np.abs(_oracle_matrix(engine, encoder)
                       - engine.node_embedding_matrix()).max()
        assert delta < 1e-4


class TestScorerInvalidation:
    def test_invalidate_pairs_touching(self):
        calls: list[list] = []

        def backend(pairs):
            calls.append(list(pairs))
            return np.full(len(pairs), 0.5)

        scorer = BatchingScorer(backend, cache_size=64)
        scorer.score_pairs([("a", "b"), ("b", "c"), ("x", "y")])
        assert scorer.cache_len() == 3
        evicted = scorer.invalidate_pairs_touching({"b"})
        assert evicted == 2
        assert scorer.cache_len() == 1
        assert scorer.invalidate_pairs_touching(set()) == 0
        scorer.score_pairs([("x", "y")])  # untouched pair: cache hit
        assert len(calls) == 1


# ----------------------------------------------------------------------
# serving level
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def eager_bundle_dir(tiny_fitted_pipeline, small_world, tmp_path_factory):
    """A bundle whose expansion threshold is 0, so every scored
    candidate attaches — deterministic attachments for delta tests."""
    from repro.core import ExpansionConfig

    directory = str(tmp_path_factory.mktemp("recompute_bundle"))
    eager = copy.copy(tiny_fitted_pipeline)
    eager.config = replace(tiny_fitted_pipeline.config,
                           expansion=ExpansionConfig(threshold=0.0))
    ArtifactBundle.export(eager, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return directory


def _structural_slice(engine, pairs):
    """The structural feature block of ``engine.pair_features``."""
    return np.asarray(
        engine.pair_features(pairs)[:, engine._relational_dim:],
        dtype=np.float64)


def _service_oracle_features(service, pairs):
    """Pair representations from a freshly built autograd encoder over
    the serving engine's live arrays (the acceptance oracle)."""
    engine = service.bundle.engine
    arrays = engine.structural_arrays()
    structural = service.bundle.pipeline.structural
    oracle = StructuralEncoder.from_arrays(
        arrays["nodes"], arrays["features"], arrays["adjacency"],
        structural.config)
    oracle.load_state_dict(structural.state_dict())
    return oracle.pair_representation(pairs).data


class TestServiceSingleProcess:
    def test_expand_updates_engine_without_reload(self, eager_bundle_dir):
        bundle = ArtifactBundle.load(eager_bundle_dir)
        with TaxonomyService(bundle) as service:
            engine = bundle.engine
            parent = sorted(bundle.taxonomy.roots())[0]
            fresh = "galactic snack cluster"
            assert fresh not in engine._graph
            before_epoch = engine.structural_epoch
            outcome = service.expand({parent: [fresh]})
            assert outcome["num_attached"] == 1
            assert fresh in engine._graph
            assert engine.structural_epoch == before_epoch + 1
            pairs = [(parent, fresh), (fresh, parent)]
            got = _structural_slice(engine, pairs)
            want = _service_oracle_features(service, pairs)
            np.testing.assert_allclose(got, want, atol=1e-4, rtol=0)
            # The very next /score uses the live features: identical to
            # scoring straight through the (updated) engine.
            served = service.score([list(pairs[0])])["probabilities"][0]
            direct = float(engine.score_pairs([pairs[0]])[0])
            assert served == pytest.approx(direct, abs=1e-9)

    def test_expand_invalidates_stale_cached_scores(self,
                                                    eager_bundle_dir):
        bundle = ArtifactBundle.load(eager_bundle_dir)
        with TaxonomyService(bundle) as service:
            engine = bundle.engine
            parent = sorted(bundle.taxonomy.roots())[0]
            fresh = "stale cache probe"
            # Prime the score cache with the zero-fallback score.
            service.score([[parent, fresh]])
            primed = service.scorer.stats_snapshot().pairs_scored
            service.expand({parent: [fresh]})
            after_expand = service.scorer.stats_snapshot().pairs_scored
            served = service.score([[parent, fresh]])["probabilities"][0]
            direct = float(engine.score_pairs([(parent, fresh)])[0])
            assert served == pytest.approx(direct, abs=1e-9)
            # The pre-attach cache entry was evicted, so the post-attach
            # request had to hit the model again.
            final = service.scorer.stats_snapshot().pairs_scored
            assert final > after_expand >= primed

    def test_sync_ingest_applies_delta_before_ack(self, eager_bundle_dir):
        bundle = ArtifactBundle.load(eager_bundle_dir)
        with TaxonomyService(bundle) as service:
            engine = bundle.engine
            epoch = engine.structural_epoch
            parent = sorted(bundle.taxonomy.roots())[0]
            candidates = sorted(
                concept for concept in bundle.vocabulary.concepts()
                if concept != parent
                and not bundle.taxonomy.has_edge(parent, concept))[:2]
            records = [[parent, concept, 3] for concept in candidates]
            outcome = service.ingest(records, sync=True)
            assert outcome["accepted"]
            if outcome["report"]["num_attached"]:
                assert engine.structural_epoch == epoch + 1
                pairs = [tuple(edge)
                         for edge in outcome["report"]["attached_edges"]]
                got = _structural_slice(engine, pairs)
                want = _service_oracle_features(service, pairs)
                np.testing.assert_allclose(got, want, atol=1e-4, rtol=0)

    def test_hot_reload_replays_attachments(self, eager_bundle_dir):
        bundle = ArtifactBundle.load(eager_bundle_dir)
        with TaxonomyService(bundle) as service:
            parent = sorted(bundle.taxonomy.roots())[0]
            fresh = "reload survivor"
            service.expand({parent: [fresh]})
            service.reload(eager_bundle_dir)
            engine = service.bundle.engine
            assert engine is not bundle.engine
            assert fresh in engine._graph
            pairs = [(parent, fresh)]
            got = _structural_slice(engine, pairs)
            want = _service_oracle_features(service, pairs)
            np.testing.assert_allclose(got, want, atol=1e-4, rtol=0)


class TestServiceSharded:
    def test_expand_reaches_every_worker(self, eager_bundle_dir):
        bundle = ArtifactBundle.load(eager_bundle_dir)
        with ShardedScorerPool(eager_bundle_dir, num_workers=2,
                               watchdog_interval=None) as pool:
            with TaxonomyService(bundle, pool=pool) as service:
                parent = sorted(bundle.taxonomy.roots())[0]
                fresh = "sharded newcomer"
                service.expand({parent: [fresh]})
                stats = pool.stats_snapshot()
                assert stats.delta_broadcasts >= 1
                # Both orientations shard to (usually) different
                # workers; each must agree with the updated in-process
                # engine to the documented tolerance — i.e. every
                # worker applied the delta.
                pairs = [[parent, fresh], [fresh, parent]]
                served = service.score(pairs)["probabilities"]
                expected = bundle.pipeline.score_pairs(
                    [tuple(pair) for pair in pairs])
                np.testing.assert_allclose(served, expected, atol=1e-4,
                                           rtol=0)

    def test_respawned_worker_replays_delta_log(self, eager_bundle_dir):
        bundle = ArtifactBundle.load(eager_bundle_dir)
        with ShardedScorerPool(eager_bundle_dir, num_workers=2,
                               watchdog_interval=None) as pool:
            with TaxonomyService(bundle, pool=pool) as service:
                parent = sorted(bundle.taxonomy.roots())[0]
                fresh = "crash survivor"
                service.expand({parent: [fresh]})
                pairs = [(parent, fresh), (fresh, parent)]
                expected = bundle.pipeline.score_pairs(pairs)
                for worker in pool._workers:
                    worker.process.kill()
                    worker.process.join()
                # Respawn-on-demand must replay the delta log before
                # serving; the first call may race the death signal.
                try:
                    got = pool.score_pairs(pairs)
                except RuntimeError:
                    got = pool.score_pairs(pairs)
                np.testing.assert_allclose(got, expected, atol=1e-4,
                                           rtol=0)


class TestWatchdog:
    def test_watchdog_respawns_without_traffic(self, eager_bundle_dir):
        with ShardedScorerPool(eager_bundle_dir, num_workers=2,
                               watchdog_interval=0.2) as pool:
            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if pool.stats_snapshot().watchdog_restarts >= 1 and \
                        victim.alive:
                    break
                time.sleep(0.1)
            stats = pool.stats_snapshot()
            assert stats.watchdog_restarts >= 1
            assert stats.worker_deaths >= 1
            # The respawned worker serves without any prior request.
            probs = pool.score_pairs([("fruit", "apple"), ("a", "b")])
            assert np.all(np.isfinite(probs))

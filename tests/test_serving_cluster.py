"""ShardedScorerPool tests: parity, sharding, failure recovery, reload,
and the BLAS thread budget.

The pool must be a drop-in ``Scorer``: identical probabilities (within
the float32 batch-composition tolerance) to the in-process engine, with
worker processes that die loudly, respawn, and hot-swap bundles without
dropping requests, and that together run no more BLAS threads than
there are cores.
"""

import gc
import json
import os
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    ArtifactBundle, AsyncServerThread, BatchingScorer, ServiceConfig,
    ShardedScorerPool, TaxonomyService,
)
from repro.serving.blas import (
    _openblas, blas_threads, limit_blas_threads, usable_cores,
)


@pytest.fixture(scope="module")
def bundle_dir(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cluster_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return directory


@pytest.fixture(scope="module")
def scoring_pairs(tiny_fitted_pipeline):
    pairs = [s.pair for s in tiny_fitted_pipeline.dataset.all_pairs][:48]
    pairs += [("definitely unknown", "also unknown"), ("a", "b")]
    return pairs


@pytest.fixture(scope="module")
def pool(bundle_dir):
    with ShardedScorerPool(bundle_dir, num_workers=2) as pool:
        yield pool


class TestScoring:
    def test_parity_with_single_process(self, pool, bundle_dir,
                                        scoring_pairs):
        single = ArtifactBundle.load(bundle_dir).score_pairs(scoring_pairs)
        pooled = pool.score_pairs(scoring_pairs)
        np.testing.assert_allclose(pooled, single, atol=1e-4, rtol=0)

    def test_empty_request(self, pool):
        assert pool.score_pairs([]).shape == (0,)

    def test_duplicate_pairs_keep_positions(self, pool, scoring_pairs):
        pair = scoring_pairs[0]
        out = pool.score_pairs([pair, scoring_pairs[1], pair])
        assert out[0] == out[2]

    def test_sharding_is_stable_and_partitioned(self, pool, scoring_pairs):
        shards = [pool.shard(pair) for pair in scoring_pairs]
        assert shards == [pool.shard(pair) for pair in scoring_pairs]
        assert set(shards) <= set(range(pool.num_workers))
        # CRC sharding must not depend on PYTHONHASHSEED.
        assert ShardedScorerPool.shard_of(("fruit", "apple"), 4) == \
            ShardedScorerPool.shard_of(("fruit", "apple"), 4)

    def test_unstarted_pool_rejects(self, bundle_dir):
        pool = ShardedScorerPool(bundle_dir, num_workers=1)
        with pytest.raises(RuntimeError):
            pool.score_pairs([("a", "b")])

    def test_stats_roll_up(self, pool, scoring_pairs):
        before = pool.stats_snapshot()
        pool.score_pairs(scoring_pairs[:8])
        after = pool.stats_snapshot()
        assert after.requests == before.requests + 1
        assert after.pairs_scored == before.pairs_scored + 8
        assert sum(after.worker_pairs.values()) >= 8

    def test_worker_stats_expose_engine_counters(self, pool,
                                                 scoring_pairs):
        pool.score_pairs(scoring_pairs)
        stats = pool.worker_stats()
        assert len(stats) == pool.num_workers
        assert all(s["alive"] for s in stats)
        assert any(s.get("pairs_scored", 0) > 0 for s in stats)


class TestFailureRecovery:
    def test_killed_worker_respawns_and_serves(self, bundle_dir,
                                               scoring_pairs):
        with ShardedScorerPool(bundle_dir, num_workers=2) as pool:
            expected = pool.score_pairs(scoring_pairs)
            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join()
            # The first call may race the death notification; the pool
            # must recover within a retry.
            try:
                got = pool.score_pairs(scoring_pairs)
            except RuntimeError:
                got = pool.score_pairs(scoring_pairs)
            np.testing.assert_allclose(got, expected, atol=1e-4, rtol=0)
            stats = pool.stats_snapshot()
            assert stats.worker_deaths >= 1
            assert stats.worker_restarts >= 1

    def test_inflight_requests_fail_loudly_not_silently(self, bundle_dir):
        with ShardedScorerPool(bundle_dir, num_workers=1) as pool:
            worker = pool._workers[0]
            # A batch of distinct unseen pairs keeps the worker busy for
            # far longer than the kill takes to land, so the request is
            # reliably still in flight (4 cached pairs could finish
            # before the kill and let the future resolve cleanly).
            pairs = [("fruit", f"unseen candidate {i}")
                     for i in range(1500)]
            future = pool._dispatch(0, "score", pairs)
            worker.process.kill()
            with pytest.raises(RuntimeError, match="died|error|broken"):
                future.wait(30.0)


class TestReload:
    def test_reload_swaps_all_workers(self, bundle_dir, scoring_pairs,
                                      tmp_path_factory):
        shifted_dir = str(tmp_path_factory.mktemp("cluster_bundle_v2"))
        pipeline = ArtifactBundle.load(bundle_dir).pipeline
        for parameter in pipeline.detector.classifier.parameters():
            parameter.data = parameter.data + 0.05
        pipeline.detector.compile_inference(force=True)
        ArtifactBundle.export(pipeline, shifted_dir)
        expected = ArtifactBundle.load(shifted_dir) \
            .score_pairs(scoring_pairs)

        with ShardedScorerPool(bundle_dir, num_workers=2) as pool:
            original = pool.score_pairs(scoring_pairs)
            results = pool.reload(shifted_dir)
            assert all(result["ok"] for result in results)
            assert pool.bundle_dir == shifted_dir
            reloaded = pool.score_pairs(scoring_pairs)
            assert float(np.max(np.abs(reloaded - original))) > 1e-4
            np.testing.assert_allclose(reloaded, expected, atol=1e-4,
                                       rtol=0)

    def test_reload_missing_bundle_keeps_serving(self, bundle_dir,
                                                 scoring_pairs):
        with ShardedScorerPool(bundle_dir, num_workers=1) as pool:
            before = pool.score_pairs(scoring_pairs)
            results = pool.reload("/nonexistent/bundle/path")
            assert not any(result["ok"] for result in results)
            after = pool.score_pairs(scoring_pairs)
            np.testing.assert_allclose(after, before, atol=0, rtol=0)


class TestServiceIntegration:
    def test_pool_backed_service_scores(self, pool, bundle_dir,
                                        scoring_pairs):
        service = TaxonomyService(ArtifactBundle.load(bundle_dir),
                                  ServiceConfig(), pool=pool)
        try:
            single = ArtifactBundle.load(bundle_dir) \
                .score_pairs(scoring_pairs)
            out = service.score([list(pair) for pair in scoring_pairs])
            np.testing.assert_allclose(out["probabilities"], single,
                                       atol=1e-4, rtol=0)
            metrics = service.metrics_text()
            assert "repro_pool_requests_total" in metrics
            assert 'repro_pool_worker_pairs_total{worker="0"}' in metrics
            assert service.health()["workers"]["pool"] is True
        finally:
            service.stop()

    def test_pool_behind_batching_scorer(self, pool, scoring_pairs):
        scorer = BatchingScorer(pool.score_pairs, cache_size=64)
        first = scorer.score_pairs(scoring_pairs[:8])
        second = scorer.score_pairs(scoring_pairs[:8])  # cache hits
        np.testing.assert_allclose(second, first, atol=0, rtol=0)
        assert scorer.stats_snapshot().cache_hits >= 8


def _os_threads(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


def _start_methods():
    import multiprocessing
    return [m for m in ("fork", "spawn")
            if m in multiprocessing.get_all_start_methods()]


@pytest.mark.parametrize("mp_context", _start_methods())
class TestBlasThreadBudget:
    def test_workers_run_the_budget_and_healthz_reports_it(
            self, bundle_dir, mp_context):
        initial = blas_threads()
        if initial is None:
            pytest.skip("numpy links no OpenBLAS the limiter can resolve")
        # The limiter lowers a count; it never raises one.
        assert limit_blas_threads(initial + 1) == initial
        assert blas_threads() == initial
        budget = max(1, usable_cores() // 2)
        expected = min(initial, budget)

        with ShardedScorerPool(bundle_dir, num_workers=2,
                               mp_context=mp_context,
                               watchdog_interval=None) as pool:
            counts = {"budget": budget, "workers": [expected, expected]}
            assert pool.blas_thread_counts() == counts
            # The budget is the workers'; the parent keeps its own count.
            assert blas_threads() == initial
            if (expected < initial and os.path.isdir("/proc/self/task")
                    and _openblas()[2] is not None):
                # Lowering the count starts OpenBLAS's thread pool, whose
                # idle threads spin; the limiter shuts it down again, so
                # a fresh worker runs its main thread only.
                assert [_os_threads(worker.process.pid)
                        for worker in pool._workers] == [1, 1]
            service = TaxonomyService(ArtifactBundle.load(bundle_dir),
                                      ServiceConfig(), pool=pool)
            harness = AsyncServerThread(service)
            host, port = harness.start()
            try:
                with urllib.request.urlopen(
                        f"http://{host}:{port}/v1/healthz",
                        timeout=30) as response:
                    health = json.loads(response.read())
            finally:
                harness.stop()
                service.stop()
            assert health["workers"]["blas_threads"] == counts
        assert blas_threads() == initial


def _private_dirty_kb() -> int:
    with open("/proc/self/smaps_rollup") as rollup:
        for line in rollup:
            if line.startswith("Private_Dirty:"):
                return int(line.split()[1])
    raise AssertionError("smaps_rollup has no Private_Dirty line")


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup")
                    or "fork" not in _start_methods(),
                    reason="needs /proc smaps_rollup and fork")
def test_parent_collection_keeps_inherited_pages_shared(bundle_dir):
    """A full collection in the parent copies no page its workers share.

    The collector writes into every object it scans, so without the
    pool's ``gc.freeze`` before each fork this collection turns the
    pages under the parent's (and the loaded bundle's) objects from
    shared to private parent memory, megabytes of them.
    """
    bundle = ArtifactBundle.load(bundle_dir)
    gc.collect()
    with ShardedScorerPool(bundle_dir, num_workers=2, mp_context="fork",
                           watchdog_interval=None, bundle=bundle):
        before = _private_dirty_kb()
        gc.collect()
        grown_kb = _private_dirty_kb() - before
    assert grown_kb < 2048, grown_kb

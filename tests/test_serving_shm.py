"""Shared-memory worker-pool tests: lifecycle, parity, fallback, cleanup.

The zero-copy contract (ISSUE 7): one weight copy in shared-memory
segments, attached read-only by every worker, with **bit-identical**
scores to the private-copy path; segments are unlinked exactly once on
every exit path (stop, SIGTERM, atexit) so ``/dev/shm`` never leaks and
the stdlib ``resource_tracker`` never warns.
"""

import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from repro.infer import InferenceEngine
from repro.infer.graph import DynamicGraph
from repro.retrieval import CandidateIndex
from repro.serving import (
    ArtifactBundle, ShardedScorerPool, SharedArtifactStore,
    SharedBundleView, TaxonomyService, attach_manifest,
)
from repro.serving.cluster import _load_worker_bundle


@pytest.fixture(scope="module")
def bundle_dir(tiny_fitted_pipeline, small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("shm_bundle"))
    ArtifactBundle.export(tiny_fitted_pipeline, directory,
                          taxonomy=small_world.existing_taxonomy,
                          vocabulary=small_world.vocabulary)
    return directory


@pytest.fixture(scope="module")
def scoring_pairs(tiny_fitted_pipeline):
    pairs = [s.pair for s in tiny_fitted_pipeline.dataset.all_pairs][:40]
    pairs += [("unseen concept", "another unseen"), ("a", "b")]
    return pairs


def _dev_shm_entries(prefix: str) -> list[str]:
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    return [name for name in os.listdir(root) if name.startswith(prefix)]


# ---------------------------------------------------------------------------
# store lifecycle


class TestStoreLifecycle:
    def test_publish_attach_round_trip(self):
        store = SharedArtifactStore()
        arrays = {"a": np.arange(12, dtype=np.float32).reshape(3, 4),
                  "b": np.array([1.5, -2.5]),
                  "empty": np.zeros((0, 4), dtype=np.int64)}
        manifest = store.publish(arrays, meta={"tag": "t"})
        try:
            assert manifest["generation"] == 1
            assert manifest["owner_pid"] == os.getpid()
            view = attach_manifest(manifest)
            assert view.meta == {"tag": "t"}
            for name, source in arrays.items():
                got = view.array(name)
                np.testing.assert_array_equal(got, source)
                assert got.dtype == source.dtype
                assert not got.flags.writeable
            view.close()
        finally:
            store.unlink()

    def test_views_are_read_only_owner_side(self):
        store = SharedArtifactStore()
        store.publish({"w": np.ones(4)})
        try:
            view = store.views()["w"]
            with pytest.raises(ValueError):
                view[0] = 2.0
        finally:
            store.unlink()

    def test_generations_and_retirement(self):
        store = SharedArtifactStore()
        try:
            first = store.publish({"w": np.ones(4)})
            second = store.publish({"w": np.full(4, 2.0)})
            assert second["generation"] == 2
            assert store.segment_stats()["segments"] == 2
            # old generation still attachable until retired
            old = attach_manifest(first)
            np.testing.assert_array_equal(old.array("w"), np.ones(4))
            old.close()
            removed = store.retire_before(second["generation"])
            assert removed == 1
            assert store.live_segment_names() == \
                [second["arrays"]["w"]["segment"]]
            with pytest.raises(FileNotFoundError):
                attach_manifest(first)
        finally:
            store.unlink()

    def test_labels_are_independent_families(self):
        store = SharedArtifactStore()
        try:
            store.publish({"w": np.ones(2)}, label="engine")
            retrieval = store.publish({"m": np.ones(3)}, label="retrieval")
            assert retrieval["generation"] == 1
            assert store.generation("engine") == 1
            assert store.generation("retrieval") == 1
            store.retire_before(2, label="retrieval")
            assert store.generation("engine") == 1
            assert store.segment_stats()["segments"] == 1
        finally:
            store.unlink()

    def test_unlink_is_idempotent_and_removes_dev_shm(self):
        store = SharedArtifactStore()
        store.publish({"w": np.ones(8)})
        assert _dev_shm_entries(store.prefix)
        store.unlink()
        assert store.closed
        assert not _dev_shm_entries(store.prefix)
        store.unlink()  # second call is a no-op
        with pytest.raises(RuntimeError):
            store.publish({"w": np.ones(2)})

    def test_attach_rejects_size_mismatch(self):
        store = SharedArtifactStore()
        manifest = store.publish({"w": np.ones(4)})
        try:
            doctored = dict(manifest)
            doctored["arrays"] = {"w": dict(manifest["arrays"]["w"],
                                            nbytes=10 ** 9)}
            with pytest.raises(ValueError):
                attach_manifest(doctored)
        finally:
            store.unlink()


# ---------------------------------------------------------------------------
# engine attach parity (in-process)


class TestEngineAttach:
    def _attach_round_trip(self, engine):
        store = SharedArtifactStore()
        meta, arrays = engine.shared_state()
        manifest = store.publish(arrays, meta=meta)
        view = attach_manifest(manifest)
        attached = InferenceEngine.attach_shared(view.meta, view.arrays)
        return store, view, attached

    def test_attached_scores_bit_identical(self, tiny_fitted_pipeline,
                                           scoring_pairs):
        engine = tiny_fitted_pipeline.detector.compile_inference()
        store, view, attached = self._attach_round_trip(engine)
        try:
            expected = engine.score_pairs(scoring_pairs)
            got = attached.score_pairs(scoring_pairs)
            assert np.array_equal(got, expected)
        finally:
            view.close()
            store.unlink()

    def test_attached_engine_grows_copy_on_write(self, tiny_fitted_pipeline,
                                                 small_world, scoring_pairs):
        engine = tiny_fitted_pipeline.detector.compile_inference()
        store, view, attached = self._attach_round_trip(engine)
        try:
            structural = {name: array.copy()
                          for name, array in view.arrays.items()
                          if name.startswith("structural.")}
            assert "structural.features" in structural
            nodes = sorted(small_world.existing_taxonomy.nodes)
            edges = [(nodes[0], "cow new concept"),
                     (nodes[1], nodes[-1])]
            oracle = InferenceEngine(tiny_fitted_pipeline.detector)
            first = attached.apply_attachments(edges)
            second = oracle.apply_attachments(edges)
            assert first["applied_edges"] == second["applied_edges"]
            assert first["new_nodes"] == second["new_nodes"]
            assert np.array_equal(attached.score_pairs(scoring_pairs),
                                  oracle.score_pairs(scoring_pairs))
            # growth went into private buffers, never a shared segment
            for name, snapshot in structural.items():
                np.testing.assert_array_equal(view.array(name), snapshot)
        finally:
            view.close()
            store.unlink()

    def test_shared_bundle_view_matches_disk_load(self, bundle_dir,
                                                  scoring_pairs):
        bundle = ArtifactBundle.load(bundle_dir)
        engine = bundle.pipeline.detector.compile_inference()
        store = SharedArtifactStore()
        meta, arrays = engine.shared_state()
        manifest = store.publish(arrays, meta=meta)
        try:
            shared = SharedBundleView.attach(manifest, bundle_dir)
            assert shared.mode == "shared"
            assert np.array_equal(shared.score_pairs(scoring_pairs),
                                  bundle.score_pairs(scoring_pairs))
            shared.close()
        finally:
            store.unlink()

    def test_worker_loader_falls_back_private(self, bundle_dir):
        garbage = {"store": "nope", "owner_pid": -1, "label": "engine",
                   "generation": 1, "meta": {},
                   "arrays": {"w": {"segment": "rp-does-not-exist",
                                    "dtype": "<f8", "shape": [2],
                                    "nbytes": 16}}}
        bundle, info = _load_worker_bundle(bundle_dir, garbage)
        assert isinstance(bundle, ArtifactBundle)
        assert info["mode"] == "private"
        assert "FileNotFoundError" in info["attach_error"]


# ---------------------------------------------------------------------------
# graph CSR slabs


class TestGraphCsr:
    def test_round_trip_and_copy_on_write(self):
        nodes = ["a", "b", "c", "d"]
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 2.0
        adjacency[1, 2] = adjacency[2, 1] = 0.5
        graph = DynamicGraph(nodes, adjacency)
        csr = graph.export_csr()
        for slab in csr.values():
            slab.flags.writeable = False  # simulate shared segments
        clone = DynamicGraph.from_csr(nodes, csr)
        np.testing.assert_array_equal(clone.dense_adjacency(),
                                      graph.dense_adjacency())
        clone.add_node("e")
        clone.add_edge("a", "e", weight=3.0)
        assert clone.has_edge("a", "e")
        # original CSR slabs were never written through
        np.testing.assert_array_equal(csr["cols"],
                                      graph.export_csr()["cols"])

    def test_duplicate_nodes_rejected(self):
        graph = DynamicGraph(["a", "b"], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            DynamicGraph.from_csr(["a", "a"], graph.export_csr())


# ---------------------------------------------------------------------------
# retrieval slab


class TestRetrievalSlab:
    def test_slab_round_trip_preserves_search(self, rng):
        concepts = [f"concept {i}" for i in range(40)]
        vectors = rng.normal(size=(40, 8))
        index = CandidateIndex(concepts, vectors)
        meta, arrays = index.export_slab()
        store = SharedArtifactStore()
        manifest = store.publish(arrays, meta=meta, label="retrieval")
        try:
            view = attach_manifest(manifest)
            attached = CandidateIndex.from_slab(view.meta, view.arrays)
            queries = rng.normal(size=(3, 8))
            assert attached.search(queries, k=5) == index.search(
                queries, k=5)
            # growth after attach allocates private buffers
            added = attached.add(["fresh concept"],
                                 rng.normal(size=(1, 8)))
            assert added == 1
            assert "fresh concept" in attached
            view.close()
        finally:
            store.unlink()


# ---------------------------------------------------------------------------
# pool integration


class TestSharedPool:
    def test_shared_pool_bit_identical_to_private(self, bundle_dir,
                                                  scoring_pairs):
        with ShardedScorerPool(bundle_dir, num_workers=2,
                               share_memory=True,
                               watchdog_interval=None) as shared_pool:
            assert [w.mode for w in shared_pool._workers] == \
                ["shared", "shared"]
            stats = shared_pool.shared_memory_stats()
            assert stats["enabled"] and stats["attached_workers"] == 2
            assert stats["segments"] > 0 and stats["bytes"] > 0
            shared = shared_pool.score_pairs(scoring_pairs)
            prefix = shared_pool._store.prefix
            with ShardedScorerPool(bundle_dir, num_workers=2,
                                   share_memory=False,
                                   watchdog_interval=None) as private_pool:
                assert private_pool.shared_memory_stats()["enabled"] \
                    is False
                private = private_pool.score_pairs(scoring_pairs)
            assert np.array_equal(shared, private)
        assert not _dev_shm_entries(prefix)

    def test_reload_flips_generation_without_leaks(self, bundle_dir,
                                                   scoring_pairs):
        with ShardedScorerPool(bundle_dir, num_workers=2,
                               share_memory=True,
                               watchdog_interval=None) as pool:
            before = pool.score_pairs(scoring_pairs)
            segments_before = pool._store.segment_stats()["segments"]
            results = pool.reload(bundle_dir)
            assert all(r["ok"] and r.get("mode") == "shared"
                       for r in results)
            stats = pool.shared_memory_stats()
            assert stats["generation"] == 2
            # generation 1 was retired: segment count did not grow
            assert pool._store.segment_stats()["segments"] == \
                segments_before
            assert np.array_equal(pool.score_pairs(scoring_pairs), before)
            prefix = pool._store.prefix
        assert not _dev_shm_entries(prefix)

    def test_attach_failure_falls_back_to_private(self, bundle_dir,
                                                  scoring_pairs):
        with ShardedScorerPool(bundle_dir, num_workers=1,
                               share_memory=True,
                               watchdog_interval=None) as pool:
            worker = pool._workers[0]
            assert worker.mode == "shared"
            reference = pool.score_pairs(scoring_pairs)
            # tear the segments down under the live manifest, then kill
            # the worker: the respawn's attach must fail and fall back
            pool._store.unlink()
            worker.process.terminate()
            worker.process.join(10.0)
            deadline = time.monotonic() + 10.0
            while worker.alive and time.monotonic() < deadline:
                time.sleep(0.02)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fallback = pool.score_pairs(scoring_pairs)
            assert worker.mode == "private"
            assert pool.stats_snapshot().attach_failures >= 1
            assert np.array_equal(fallback, reference)

    def test_seed_bundle_is_reused_for_publish(self, bundle_dir,
                                               scoring_pairs):
        bundle = ArtifactBundle.load(bundle_dir)
        with ShardedScorerPool(bundle_dir, num_workers=1,
                               share_memory=True, bundle=bundle,
                               watchdog_interval=None) as pool:
            assert pool._workers[0].mode == "shared"
            assert np.array_equal(pool.score_pairs(scoring_pairs),
                                  bundle.score_pairs(scoring_pairs))

    def test_metrics_expose_shm_state(self, bundle_dir, scoring_pairs):
        bundle = ArtifactBundle.load(bundle_dir)
        with ShardedScorerPool(bundle_dir, num_workers=2,
                               share_memory=True, bundle=bundle,
                               watchdog_interval=None) as pool:
            service = TaxonomyService(bundle, pool=pool)
            text = service.metrics_text()
            assert "repro_shm_segment_bytes" in text
            assert "repro_pool_shared_workers 2" in text
            assert "repro_pool_attach_failures_total 0" in text
            assert "repro_pool_respawn_seconds_count 2" in text
            assert 'repro_pool_respawn_seconds_bucket{le="+Inf"} 2' in text


# ---------------------------------------------------------------------------
# exit-path hygiene (subprocess)

_TRACKER_SCRIPT = r"""
import multiprocessing as mp
import sys

import numpy as np

from repro.serving import SharedArtifactStore, attach_manifest


def child(manifest):
    view = attach_manifest(manifest)
    assert float(view.array("w").sum()) == 10.0
    view.close()


if __name__ == "__main__":
    store = SharedArtifactStore()
    manifest = store.publish({"w": np.full(4, 2.5)})
    for method in sys.argv[1:]:
        ctx = mp.get_context(method)
        process = ctx.Process(target=child, args=(manifest,))
        process.start()
        process.join(30)
        assert process.exitcode == 0, (method, process.exitcode)
    store.unlink()
    print("PREFIX", store.prefix)
"""

_SIGTERM_SCRIPT = r"""
import os
import signal

import numpy as np

from repro.serving import SharedArtifactStore

store = SharedArtifactStore()
store.publish({"w": np.ones(16)})
print("PREFIX", store.prefix, flush=True)
os.kill(os.getpid(), signal.SIGTERM)
"""


def _run_script(script: str, tmp_path, *argv: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"),
         env.get("PYTHONPATH", "")])
    # a real file (not ``-c``) so the spawn start method can re-import it
    path = tmp_path / "shm_script.py"
    path.write_text(script)
    return subprocess.run([sys.executable, str(path), *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)


class TestExitHygiene:
    def test_no_resource_tracker_noise_across_start_methods(self, tmp_path):
        methods = [m for m in ("fork", "spawn")
                   if m in __import__("multiprocessing")
                   .get_all_start_methods()]
        result = _run_script(_TRACKER_SCRIPT, tmp_path, *methods)
        assert result.returncode == 0, result.stderr
        assert "leaked shared_memory" not in result.stderr
        assert "resource_tracker" not in result.stderr
        assert "KeyError" not in result.stderr
        prefix = result.stdout.split("PREFIX", 1)[1].strip()
        assert not _dev_shm_entries(prefix)

    def test_sigterm_unlinks_segments(self, tmp_path):
        result = _run_script(_SIGTERM_SCRIPT, tmp_path)
        # killed by SIGTERM after the chained handler ran
        assert result.returncode == -signal.SIGTERM, (result.returncode,
                                                      result.stderr)
        assert "leaked shared_memory" not in result.stderr
        prefix = result.stdout.split("PREFIX", 1)[1].strip()
        assert not _dev_shm_entries(prefix)


# ---------------------------------------------------------------------------
# respawn after snapshot-driven delta compaction


def _start_methods():
    import multiprocessing
    return [m for m in ("fork", "spawn")
            if m in multiprocessing.get_all_start_methods()]


@pytest.mark.parametrize("mp_context", _start_methods())
class TestRespawnAfterCompaction:
    def test_killed_worker_replays_only_post_snapshot_tail(
            self, bundle_dir, scoring_pairs, mp_context):
        bundle = ArtifactBundle.load(bundle_dir)
        engine = bundle.engine
        parent = scoring_pairs[0][0]
        pre = [[(parent, "pre snapshot node a"),
                (parent, "pre snapshot node b")],
               [(parent, "pre snapshot node c")]]
        tail = [(parent, "post snapshot node d"),
                (parent, "post snapshot node e")]
        probes = scoring_pairs[:10] + [
            (parent, "pre snapshot node a"),
            (parent, "post snapshot node d")]

        with ShardedScorerPool(bundle_dir, num_workers=2,
                               share_memory=True, mp_context=mp_context,
                               watchdog_interval=None) as pool:
            assert [w.mode for w in pool._workers] == ["shared", "shared"]
            # Pre-snapshot history: broadcast to workers and mirror on
            # the parent engine (the service keeps both in step).
            for batch in pre:
                engine.apply_attachments(list(batch))
                assert all(r["ok"]
                           for r in pool.broadcast_attachments(batch))
            # The snapshot moment: fold the delta log and republish the
            # parent engine's post-snapshot state as a new generation.
            outcome = pool.compact_deltas(engine)
            assert outcome["covered"] is True
            assert outcome["baseline_edges"] == 3
            backlog = pool.delta_backlog_stats()
            assert backlog["covered_generation"] == outcome["generation"]
            assert backlog["tail_edges"] == 0
            # Post-snapshot tail, delivered live to current workers.
            engine.apply_attachments(list(tail))
            assert all(r["ok"] for r in pool.broadcast_attachments(tail))
            assert pool.delta_backlog_stats()["tail_edges"] == len(tail)

            before = pool.score_pairs(probes)
            stats0 = pool.stats_snapshot()

            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join()
            try:
                after = pool.score_pairs(probes)
            except RuntimeError:
                after = pool.score_pairs(probes)

            # Bitwise parity: the respawned worker attached the
            # republished (baseline-inclusive) generation and converged
            # on the same structural state via the tail alone.
            assert np.array_equal(after, before)
            stats = pool.stats_snapshot()
            assert stats.worker_restarts == stats0.worker_restarts + 1
            assert stats.delta_replays == stats0.delta_replays + 1
            # Only the post-snapshot tail was replayed — not the three
            # baseline edges folded into the republished generation.
            assert stats.delta_replayed_edges == \
                stats0.delta_replayed_edges + len(tail)

    def test_respawn_without_compaction_replays_everything(
            self, bundle_dir, scoring_pairs, mp_context):
        parent = scoring_pairs[0][0]
        batches = [[(parent, "delta node a"), (parent, "delta node b")],
                   [(parent, "delta node c")]]
        with ShardedScorerPool(bundle_dir, num_workers=1,
                               share_memory=True, mp_context=mp_context,
                               watchdog_interval=None) as pool:
            for batch in batches:
                assert all(r["ok"]
                           for r in pool.broadcast_attachments(batch))
            stats0 = pool.stats_snapshot()
            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join()
            try:
                pool.score_pairs(scoring_pairs[:4])
            except RuntimeError:
                pool.score_pairs(scoring_pairs[:4])
            stats = pool.stats_snapshot()
            # No covering generation: the full cumulative log replays.
            assert stats.delta_replayed_edges == \
                stats0.delta_replayed_edges + 3

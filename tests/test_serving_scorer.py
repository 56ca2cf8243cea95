"""BatchingScorer tests: equivalence, caching, coalescing, backoff paths."""

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.serving import BatchingScorer


class CountingScorer:
    """Deterministic fake scorer that records every underlying call and
    the thread it ran on."""

    def __init__(self, delay: float = 0.0):
        self.calls: list[list] = []
        self.threads: list[threading.Thread] = []
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, pairs):
        with self._lock:
            self.calls.append(list(pairs))
            self.threads.append(threading.current_thread())
        if self.delay:
            time.sleep(self.delay)
        return np.array([self.score(p) for p in pairs])

    @staticmethod
    def score(pair):
        return (hash(pair) % 997) / 997.0

    @property
    def num_pairs_scored(self):
        with self._lock:
            return sum(len(c) for c in self.calls)


def expected(pairs):
    return np.array([CountingScorer.score((str(a), str(b)))
                     for a, b in pairs])


PAIRS = [(f"parent {i}", f"child {i}") for i in range(20)]


def start_threads(target, indices) -> list[threading.Thread]:
    """One started thread per index, each running ``target(index)``."""
    threads = [threading.Thread(target=target, args=(i,)) for i in indices]
    for thread in threads:
        thread.start()
    return threads


def join_all(threads) -> None:
    """Join every thread, failing if any of them hangs."""
    for thread in threads:
        thread.join(60.0)
        assert not thread.is_alive()


def wait_for_requests(scorer, count: int) -> None:
    """Block until ``scorer`` has counted (and so queued) ``count`` calls."""
    deadline = time.monotonic() + 10.0
    while scorer.stats_snapshot().requests < count:
        assert time.monotonic() < deadline
        time.sleep(0.001)


class TestStatsSnapshot:
    def test_snapshot_is_an_independent_copy(self):
        scorer = BatchingScorer(CountingScorer())
        scorer.score_pairs(PAIRS[:4])
        snapshot = scorer.stats_snapshot()
        assert snapshot is not scorer.stats
        assert snapshot.pairs_requested == 4
        scorer.score_pairs(PAIRS[4:8])
        # The snapshot must not move with subsequent traffic.
        assert snapshot.pairs_requested == 4
        assert scorer.stats_snapshot().pairs_requested == 8

    def test_snapshot_is_internally_consistent_under_load(self):
        """Concurrent readers must never see a torn snapshot where
        cache_hits + pairs_scored exceeds pairs_requested."""
        import threading

        scorer = BatchingScorer(CountingScorer(), cache_size=0)
        stop = threading.Event()
        torn: list[tuple] = []

        def reader():
            while not stop.is_set():
                s = scorer.stats_snapshot()
                if s.cache_hits + s.pairs_scored > s.pairs_requested:
                    torn.append((s.cache_hits, s.pairs_scored,
                                 s.pairs_requested))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(50):
                scorer.score_pairs(PAIRS)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not torn


class TestSynchronousMode:
    def test_matches_direct_scoring(self):
        raw = CountingScorer()
        scorer = BatchingScorer(raw)
        np.testing.assert_allclose(scorer.score_pairs(PAIRS),
                                   expected(PAIRS))

    def test_empty_request(self):
        scorer = BatchingScorer(CountingScorer())
        assert scorer.score_pairs([]).shape == (0,)

    def test_repeat_requests_hit_cache(self):
        raw = CountingScorer()
        scorer = BatchingScorer(raw)
        scorer.score_pairs(PAIRS)
        scorer.score_pairs(PAIRS)
        assert raw.num_pairs_scored == len(PAIRS)
        assert scorer.stats.cache_hits == len(PAIRS)

    def test_duplicates_within_request_scored_once(self):
        raw = CountingScorer()
        scorer = BatchingScorer(raw)
        result = scorer.score_pairs([PAIRS[0]] * 5 + [PAIRS[1]])
        assert raw.num_pairs_scored == 2
        np.testing.assert_allclose(
            result, expected([PAIRS[0]] * 5 + [PAIRS[1]]))

    def test_lru_eviction(self):
        raw = CountingScorer()
        scorer = BatchingScorer(raw, cache_size=2)
        scorer.score_pairs([PAIRS[0], PAIRS[1], PAIRS[2]])
        assert scorer.cache_len() == 2
        scorer.score_pairs([PAIRS[0]])  # evicted -> re-scored
        assert raw.num_pairs_scored == 4

    def test_cache_disabled(self):
        raw = CountingScorer()
        scorer = BatchingScorer(raw, cache_size=0)
        scorer.score_pairs(PAIRS[:3])
        scorer.score_pairs(PAIRS[:3])
        assert raw.num_pairs_scored == 6
        assert scorer.cache_len() == 0

    def test_clear_cache(self):
        scorer = BatchingScorer(CountingScorer())
        scorer.score_pairs(PAIRS[:3])
        assert scorer.cache_len() == 3
        scorer.clear_cache()
        assert scorer.cache_len() == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BatchingScorer(CountingScorer(), max_batch=0)
        with pytest.raises(ValueError):
            BatchingScorer(CountingScorer(), cache_size=-1)


class TestWorkerMode:
    """Concurrent callers: equivalence, coalescing and error paths."""

    def test_threaded_results_match_direct(self):
        raw = CountingScorer(delay=0.005)
        scorer = BatchingScorer(raw)
        results = {}

        def request(i):
            mine = [(f"q{i}", f"c{j}") for j in range(4)]
            results[i] = (mine, scorer.score_pairs(mine))

        join_all(start_threads(request, range(8)))
        assert len(results) == 8
        for mine, got in results.values():
            np.testing.assert_allclose(got, expected(mine))

    def test_concurrent_requests_coalesce(self):
        raw = CountingScorer(delay=0.01)
        scorer = BatchingScorer(raw, max_batch=256)
        join_all(start_threads(lambda i: scorer.score_pairs(
            [(f"q{i}", f"c{j}") for j in range(3)]), range(10)))
        assert len(raw.calls) < 10  # fewer model calls than requests
        assert scorer.stats.coalesced_requests >= scorer.stats.batches

    def test_small_queued_requests_coalesce_up_to_max_batch(self):
        raw = CountingScorer(delay=0.01)
        requests = [PAIRS[2 * i:2 * i + 2] for i in range(10)]
        results = {}
        scorer = BatchingScorer(raw, max_batch=8)

        def request(i):
            results[i] = scorer.score_pairs(requests[i])

        join_all(start_threads(request, range(len(requests))))
        assert len(raw.calls) < len(requests)
        assert max(len(call) for call in raw.calls) <= 8
        for i, mine in enumerate(requests):
            np.testing.assert_allclose(results[i], expected(mine))

    def test_errors_propagate_to_caller(self):
        def explode(pairs):
            raise RuntimeError("model died")

        scorer = BatchingScorer(explode)
        with pytest.raises(RuntimeError, match="model died"):
            scorer.score_pairs(PAIRS[:2])
        assert scorer.stats.requests == 1


class TestCallerRuns:
    """Batches run on the callers' own threads, with no waiting window."""

    def test_backend_runs_on_caller_threads(self, tiny_fitted_pipeline,
                                            small_world):
        from repro.serving import ArtifactBundle, TaxonomyService

        raw = CountingScorer(delay=0.002)
        service = TaxonomyService(ArtifactBundle(
            tiny_fitted_pipeline, small_world.existing_taxonomy,
            small_world.vocabulary))
        service.scorer.swap_scorer(raw)
        callers = []

        def request(i):
            callers.append(threading.current_thread())
            size = service.config.max_batch if i == 0 else 1 + i % 5
            service.scorer.score_pairs(
                [(f"q{i}", f"c{j}") for j in range(size)])

        with service:  # a started service, as `repro serve` runs it
            join_all(start_threads(request, range(8)))
        assert raw.calls
        assert set(raw.threads) <= set(callers)

    def test_callers_queued_behind_a_held_leader_share_one_call(self):
        entered, release = threading.Event(), threading.Event()
        raw = CountingScorer()

        def held_first_call(pairs):
            scores = raw(pairs)
            if len(raw.calls) == 1:
                entered.set()
                assert release.wait(10.0)
            return scores

        scorer = BatchingScorer(held_first_call, max_batch=8, cache_size=0)
        requests = [PAIRS[2 * i:2 * i + 2] for i in range(4)]
        results = {}

        def request(i):
            results[i] = scorer.score_pairs(requests[i])

        leader = start_threads(request, [0])
        assert entered.wait(10.0)  # the leader is inside the backend
        queued = start_threads(request, range(1, len(requests)))
        wait_for_requests(scorer, len(requests))
        release.set()
        join_all(leader + queued)
        assert raw.calls[0] == requests[0]
        assert sorted(raw.calls[1]) == sorted(sum(requests[1:], []))
        assert len(raw.calls) == 2
        stats = scorer.stats_snapshot()
        assert (stats.batches, stats.coalesced_requests) == (2, 4)
        for i, mine in enumerate(requests):
            np.testing.assert_allclose(results[i], expected(mine))


class TestBatchFillingRequests:
    """Requests whose misses reach ``max_batch`` skip the queue."""

    def test_one_call_on_the_callers_thread(self):
        raw = CountingScorer()
        scorer = BatchingScorer(raw, max_batch=4)
        got = scorer.score_pairs(PAIRS)
        np.testing.assert_allclose(got, expected(PAIRS))
        assert raw.calls == [PAIRS]
        assert raw.threads == [threading.current_thread()]
        stats = scorer.stats_snapshot()
        assert (stats.model_calls, stats.batches,
                stats.coalesced_requests) == (1, 1, 1)

    def test_threshold_counts_cache_misses_not_request_size(self):
        raw = CountingScorer()
        scorer = BatchingScorer(raw, max_batch=4)
        scorer.score_pairs(PAIRS[:2])
        # 5 pairs, 3 of them misses: below max_batch, so queued.
        scorer.score_pairs(PAIRS[:5])
        # exactly max_batch misses: skips the queue
        scorer.score_pairs(PAIRS[5:9])
        assert raw.calls == [PAIRS[:2], PAIRS[2:5], PAIRS[5:9]]

    def test_concurrent_requests_overlap_in_the_backend(self):
        """Two batch-filling requests are inside the backend at once.

        Each call waits for the other at a barrier; requests served one
        at a time would break it on its timeout.
        """
        barrier = threading.Barrier(2, timeout=10.0)

        def rendezvous(pairs):
            barrier.wait()
            return expected(pairs)

        requests = [PAIRS[:10], PAIRS[10:]]
        results, errors = {}, []
        scorer = BatchingScorer(rendezvous, max_batch=4)

        def request(i):
            try:
                results[i] = scorer.score_pairs(requests[i])
            except Exception as error:
                errors.append(error)

        join_all(start_threads(request, range(2)))
        assert not errors
        for i, mine in enumerate(requests):
            np.testing.assert_allclose(results[i], expected(mine))

    def test_swap_fences_an_in_flight_call_out_of_the_cache(self):
        entered, release = threading.Event(), threading.Event()
        old_threads = []

        def old_model(pairs):
            old_threads.append(threading.current_thread())
            entered.set()
            assert release.wait(10.0)
            return np.zeros(len(pairs))

        new_model = CountingScorer()
        results = {}
        scorer = BatchingScorer(old_model, max_batch=4)
        caller = threading.Thread(target=lambda: results.setdefault(
            "old", scorer.score_pairs(PAIRS[:8])))
        caller.start()
        assert entered.wait(10.0)
        scorer.swap_scorer(new_model)
        release.set()
        caller.join(10.0)
        assert not caller.is_alive()
        # the old model's scores reach their caller but not the cache
        np.testing.assert_array_equal(results["old"], np.zeros(8))
        assert old_threads == [caller]
        assert scorer.cache_len() == 0
        np.testing.assert_allclose(scorer.score_pairs(PAIRS[:8]),
                                   expected(PAIRS[:8]))
        assert new_model.calls == [PAIRS[:8]]

    def test_mixed_concurrent_traffic_loses_no_update(self):
        """Queued and caller-thread batches interleave while a tenth of
        backend calls fail: every caller gets its scores or the injected
        error, and counters and the cache account for every pair."""
        raw = CountingScorer()
        rng, rng_lock, failed_calls = random.Random(7), threading.Lock(), []

        def flaky(pairs):
            with rng_lock:
                if rng.random() < 0.1:
                    failed_calls.append(list(pairs))
                    raise RuntimeError("injected failure")
            return raw(pairs)

        sizes = [1, 3, 4, 9]  # two below max_batch=4, two at or above it
        clients, rounds = 6, 15
        results, failures, errors = [], [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scorer = BatchingScorer(flaky, max_batch=4,
                                    cache_size=clients * rounds * sum(sizes))

            def client(c):
                try:
                    for r in range(rounds):
                        for size in sizes:
                            mine = [(f"c{c} r{r} n{size}", f"child {k}")
                                    for k in range(size)]
                            try:
                                results.append(
                                    (mine, scorer.score_pairs(mine)))
                            except RuntimeError as error:
                                assert str(error) == "injected failure"
                                failures.append(mine)
                except Exception as error:
                    errors.append(error)

            join_all(start_threads(client, range(clients)))
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert failures
        assert len(results) + len(failures) == clients * rounds * len(sizes)
        for mine, got in results:
            np.testing.assert_allclose(got, expected(mine))
        scored_pairs = sum(len(mine) for mine, _got in results)
        assert sum(map(len, failed_calls)) == sum(map(len, failures))
        stats = scorer.stats_snapshot()
        assert stats.requests == len(results) + len(failures)
        assert stats.pairs_scored == raw.num_pairs_scored == scored_pairs
        assert stats.model_calls == len(raw.calls)
        assert stats.coalesced_requests == len(results)
        assert scorer.cache_len() == scored_pairs


class TestAsScorerProtocol:
    def test_usable_by_expand_taxonomy(self):
        from repro.core import expand_taxonomy
        from repro.taxonomy import Taxonomy

        def oracle(pairs):
            return np.array([1.0 if parent == "food" else 0.0
                             for parent, child in pairs])

        scorer = BatchingScorer(oracle)
        taxonomy = Taxonomy(edges=[("food", "bread")])
        result = expand_taxonomy(scorer, taxonomy,
                                 {"food": ["cake"], "bread": ["toast"]})
        assert ("food", "cake") in result.taxonomy.edge_set()
        assert ("bread", "toast") not in result.taxonomy.edge_set()

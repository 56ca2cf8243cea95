"""Micro-batched, cached candidate scoring for the online path.

Top-down expansion re-scores the same (parent, child) pairs constantly —
every traversal of a node revisits its candidate set, and concurrent
requests overlap heavily.  :class:`BatchingScorer` wraps any
``Scorer``-protocol callable (typically
``HyponymyDetector.predict_proba`` via ``pipeline.score_pairs``) with

* an **LRU score cache** keyed on the (parent, child) pair, and
* **group commit**: small requests queue, and the first caller to find
  no batch running becomes the *leader*.  It scores the queue head plus
  whatever else queued behind it, up to ``max_batch`` pairs, in one
  underlying model call, then hands leadership to the new queue head
  (or marks the scorer idle).  Requests that arrive while a batch runs
  therefore coalesce into the next one, amortising per-call encoder
  overhead across clients, while a request that finds the scorer idle
  is scored at once: there is no waiting window and no thread.

A request whose cache misses alone reach ``max_batch`` has nothing to
gain from coalescing: it skips the queue and makes its one underlying
call on its own thread, so concurrent large requests run side by side
(a worker pool sees all of them at once) instead of one at a time
behind the leader.  The backend chunks by its own limits
(:class:`~repro.infer.InferenceEngine` by its ``max_batch``).

Every backend call runs on a thread that called :meth:`score_pairs`,
so the scorer needs no lifecycle and stands in for the raw scorer
anywhere — including inside :class:`~repro.core.IncrementalExpander`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["BatchingScorer", "ScorerStats"]

_MISSING = object()

Pair = tuple[str, str]


@dataclass
class ScorerStats:
    """Counters describing scorer traffic since construction."""

    requests: int = 0
    pairs_requested: int = 0
    cache_hits: int = 0
    pairs_scored: int = 0
    model_calls: int = 0
    batches: int = 0
    coalesced_requests: int = 0

    def as_dict(self) -> dict[str, int | float]:
        """JSON-friendly snapshot including the derived hit rate."""
        hit_rate = (self.cache_hits / self.pairs_requested
                    if self.pairs_requested else 0.0)
        return {
            "requests": self.requests,
            "pairs_requested": self.pairs_requested,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(hit_rate, 4),
            "pairs_scored": self.pairs_scored,
            "model_calls": self.model_calls,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
        }


class _Request:
    """One caller's pending cache misses plus its wake-up signal.

    ``event`` is set once the request is resolved (``scores`` or
    ``error`` set) or made leader (``leads`` set), whichever comes first.
    """

    __slots__ = ("pairs", "event", "scores", "error", "leads")

    def __init__(self, pairs: list[Pair]):
        self.pairs = pairs
        self.event = threading.Event()
        self.scores: dict[Pair, float] = {}
        self.error: BaseException | None = None
        self.leads = False


class BatchingScorer:
    """Thread-safe scoring front-end with coalescing and an LRU cache.

    Parameters
    ----------
    scorer:
        Underlying callable mapping ``list[(parent, child)]`` to an array
        of positive-class probabilities.
    max_batch:
        Coalescing cap: a leader stops adding queued requests to its
        batch before it would exceed this many pairs.  A request with at
        least this many cache misses skips the queue and is scored in one
        call on its own thread.
    cache_size:
        Maximum number of cached pair scores; 0 disables caching.
    """

    def __init__(self, scorer, max_batch: int = 64, cache_size: int = 4096):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self._scorer = scorer
        self.max_batch = max_batch
        self.cache_size = cache_size
        self._cache: OrderedDict[Pair, float] = OrderedDict()  # guarded-by: self._lock
        # Bumped by swap_scorer: batches started under an older epoch
        # must not write their (old-model) scores into the new cache.
        self._epoch = 0  # guarded-by: self._lock
        self._queue: deque[_Request] = deque()  # guarded-by: self._lock
        # True from the moment a caller becomes leader until the last
        # leader finds the queue empty; while False the queue is empty.
        self._leading = False  # guarded-by: self._lock
        self._lock = threading.Lock()
        self._stats = ScorerStats()  # guarded-by: self._lock

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score_pairs(self, pairs: list[Pair]) -> np.ndarray:
        """Probabilities for ``pairs``; cache-aware and coalescing."""
        pairs = [(str(parent), str(child)) for parent, child in pairs]
        if not pairs:
            return np.zeros(0)
        resolved: dict[Pair, float] = {}
        request = None
        with self._lock:
            self._stats.requests += 1
            self._stats.pairs_requested += len(pairs)
            missing: list[Pair] = []
            for pair in dict.fromkeys(pairs):
                value = self._cache_get(pair)
                if value is _MISSING:
                    missing.append(pair)
                else:
                    self._stats.cache_hits += 1
                    resolved[pair] = value
            if 0 < len(missing) < self.max_batch:
                request = _Request(missing)
                self._queue.append(request)
                if not self._leading:
                    self._leading = request.leads = True
                    request.event.set()
        if request is not None:
            request.event.wait()
            if request.leads:
                self._lead()
            if request.error is not None:
                raise request.error
            resolved.update(request.scores)
        elif missing:
            # A batch-filling request: one backend call on this thread.
            resolved.update(self._score_batch(missing, coalesced=1))
        return np.asarray([resolved[pair] for pair in pairs])

    def __call__(self, pairs: list[Pair]) -> np.ndarray:
        """Scorer-protocol alias for :meth:`score_pairs`."""
        return self.score_pairs(pairs)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ScorerStats:
        """Live traffic counters (shared object, read-only use).

        Scoring threads mutate this object mid-batch; use
        :meth:`stats_snapshot` when a consistent view is needed (e.g.
        ``/metrics`` must never see pairs_scored from one batch with
        cache_hits from the next).
        """
        return self._stats

    def stats_snapshot(self) -> ScorerStats:
        """An atomic copy of the counters taken under the scorer lock."""
        with self._lock:
            return replace(self._stats)

    def cache_len(self) -> int:
        """Number of pair scores currently cached."""
        with self._lock:
            return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached score."""
        with self._lock:
            self._cache.clear()

    def recent_pairs(self, limit: int) -> list:
        """The most recently used cached pairs, hottest first.

        The hot-reload cache-warming path captures these *before*
        ``swap_scorer`` clears the cache, then replays them through the
        new engine — post-reload traffic keeps hitting warm entries
        instead of falling off a latency cliff.
        """
        if limit <= 0:
            return []
        with self._lock:
            keys = list(self._cache.keys())
        return keys[-limit:][::-1]

    def invalidate_pairs_touching(self, concepts) -> int:
        """Drop cached scores for pairs involving any of ``concepts``.

        The recompute-on-ingest path calls this with the dirty frontier
        of a structural delta: only pairs whose node embeddings actually
        moved are evicted, so the rest of the cache keeps its hit rate.
        Returns the number of evicted entries.
        """
        concepts = set(concepts)
        if not concepts:
            return 0
        with self._lock:
            stale = [pair for pair in self._cache
                     if pair[0] in concepts or pair[1] in concepts]
            for pair in stale:
                del self._cache[pair]
            return len(stale)

    def swap_scorer(self, scorer, clear_cache: bool = True) -> None:
        """Atomically replace the underlying scorer (hot reload).

        Future batches call the new ``scorer``; a batch already executing
        keeps its reference to the old one and completes on it (the old
        engine drains naturally) — but its results are fenced out of the
        cache by an epoch bump, so a post-swap cache never serves
        old-model probabilities.  The LRU cache is cleared by default —
        cached probabilities belong to the outgoing model.
        """
        with self._lock:
            self._scorer = scorer
            self._epoch += 1
            if clear_cache:
                self._cache.clear()

    # ------------------------------------------------------------------
    # internals (callers hold self._lock where noted)
    # ------------------------------------------------------------------
    def _cache_get(self, pair: Pair):
        """LRU lookup; returns ``_MISSING`` on absence.  Lock held."""
        # holds: self._lock
        if self.cache_size and pair in self._cache:
            self._cache.move_to_end(pair)
            return self._cache[pair]
        return _MISSING

    def _score_batch(self, pairs: list[Pair],
                     coalesced: int) -> dict[Pair, float]:
        """Score ``pairs`` in one underlying call and cache the results."""
        with self._lock:
            scorer = self._scorer
            epoch = self._epoch
        scores = np.asarray(scorer(pairs), dtype=np.float64)
        with self._lock:
            self._record_batch(pairs, scores, coalesced, epoch)
        return dict(zip(pairs, scores.tolist()))

    def _record_batch(self, pairs: list[Pair], scores: np.ndarray,
                      coalesced: int, epoch: int) -> None:
        """Account for one underlying call and fill the cache.  Lock held."""
        # holds: self._lock
        self._stats.model_calls += 1
        self._stats.batches += 1
        self._stats.pairs_scored += len(pairs)
        self._stats.coalesced_requests += coalesced
        if not self.cache_size or epoch != self._epoch:
            # A swap_scorer happened mid-batch: these scores came from
            # the outgoing model and must not repopulate the new cache.
            return
        for pair, score in zip(pairs, scores.tolist()):
            self._cache[pair] = float(score)
            self._cache.move_to_end(pair)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _lead(self) -> None:
        """Score one batch from the queue head, then pass leadership on.

        The leader's own request is the queue head, so each caller leads
        at most one batch.  Requests behind the head join it while the
        batch stays within ``max_batch`` pairs.  Whatever happens, the
        ``finally`` wakes the new queue head as the next leader or marks
        the scorer idle, so no queued request is left without one.
        """
        try:
            with self._lock:
                batch = [self._queue.popleft()]
                size = len(batch[0].pairs)
                while self._queue and \
                        size + len(self._queue[0].pairs) <= self.max_batch:
                    size += len(self._queue[0].pairs)
                    batch.append(self._queue.popleft())
            self._process_batch(batch)
        finally:
            with self._lock:
                if self._queue:
                    self._queue[0].leads = True
                    self._queue[0].event.set()
                else:
                    self._leading = False

    def _process_batch(self, batch: list[_Request]) -> None:
        """Score one coalesced batch and resolve its requests.

        An exception of any kind resolves every request in the batch
        with that error, so none of their callers waits forever, and is
        re-raised to the leader.
        """
        try:
            # Dedup across coalesced requests; re-check the cache in case
            # a concurrent batch already scored some of these pairs.
            unique = list(dict.fromkeys(
                pair for request in batch for pair in request.pairs))
            known: dict[Pair, float] = {}
            with self._lock:
                to_score = []
                for pair in unique:
                    value = self._cache_get(pair)
                    if value is _MISSING:
                        to_score.append(pair)
                    else:
                        known[pair] = value
            if to_score:
                known.update(self._score_batch(
                    to_score, coalesced=len(batch)))
            for request in batch:
                request.scores = {pair: known[pair]
                                  for pair in request.pairs}
        except BaseException as error:  # propagate to every waiter
            for request in batch:
                request.error = error
            raise
        finally:
            for request in batch:
                request.event.set()

"""Epoch-fenced index maintenance: keep retrieval fresh as the
taxonomy grows and as artifact bundles hot-reload.

:class:`CandidateRetriever` pairs one :class:`~repro.retrieval.index.
CandidateIndex` with the embedding source that feeds it (the fitted
pipeline's ``concept_embedding_matrix``) and with the engine's
``structural_epoch`` fence:

* **ingest** — after ``InferenceEngine.apply_attachments`` lands new
  concepts, :meth:`CandidateRetriever.extend` embeds only the concepts
  the index has not seen and appends them (no rebuild); the engine
  epoch observed at that point is recorded as ``synced_epoch`` so
  staleness is observable (and exported via ``EngineStats.norms_epoch``).
* **hot reload** — a reload builds a *new* retriever from the new
  bundle and swaps the reference atomically alongside the scorer;
  in-flight searches finish against the old index, new ones see the
  new one.  The swap itself lives in ``TaxonomyService``; this module
  only guarantees a retriever is cheap to rebuild and safe to share.

Queries go through :meth:`CandidateRetriever.neighbors`, which embeds
the query text through the same pipeline (the engine's concept LRU
makes repeat queries near-free) and searches the index excluding the
query itself.
"""

from __future__ import annotations

import threading

import numpy as np

from .index import CandidateIndex, IndexConfig

__all__ = ["CandidateRetriever"]


class CandidateRetriever:
    """A :class:`CandidateIndex` plus the machinery to keep it fresh.

    Parameters
    ----------
    embed:
        ``embed(concepts) -> (len(concepts), dim) ndarray`` — typically
        ``pipeline.concept_embedding_matrix``, which routes through the
        compiled engine and its concept cache.
    concepts:
        Initial concepts to index (e.g. the taxonomy node set).
    config:
        Optional :class:`IndexConfig` for the wrapped index.
    engine:
        Optional ``InferenceEngine`` — used to stamp the cached-norm
        epoch (``mark_norms_cached``) whenever the index syncs.
    epoch:
        Engine ``structural_epoch`` the initial build corresponds to.
    """

    def __init__(self, embed, concepts, *, config: IndexConfig | None = None,
                 engine=None, epoch: int | None = None):
        self._embed = embed
        self._engine = engine
        self._lock = threading.RLock()
        concepts = list(dict.fromkeys(str(c) for c in concepts))
        if concepts:
            vectors = np.asarray(embed(concepts))
        else:
            vectors = np.zeros((0, 0))
        self._index = CandidateIndex(concepts, vectors, config)
        self._config = self._index.config
        self._synced_epoch = -1
        self._rebuilds = 1
        self._record_epoch(epoch)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    @property
    def index(self) -> CandidateIndex:
        """The live index (atomic reference; safe to search directly)."""
        with self._lock:
            return self._index

    @property
    def synced_epoch(self) -> int:
        """Engine ``structural_epoch`` the index last synced at."""
        with self._lock:
            return self._synced_epoch

    @property
    def rebuilds(self) -> int:
        """Full index (re)builds this retriever has performed."""
        with self._lock:
            return self._rebuilds

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, concept: str) -> bool:
        return concept in self.index

    def neighbors(self, query: str, k: int, *, exclude=()) -> list:
        """Top-k indexed concepts for a query string.

        Embeds ``query`` through the same pipeline that built the index
        and searches excluding the query concept itself plus any names
        in ``exclude``.  Returns ``[(concept, score), ...]``.
        """
        index = self.index
        if len(index) == 0:
            return []
        vector = np.asarray(self._embed([str(query)]))
        skip = {str(query), *map(str, exclude)}
        return index.search(vector, k, exclude=skip)[0]

    def stats(self) -> dict:
        """Index counters plus retriever-level freshness fields."""
        snapshot = self.index.stats_snapshot().as_dict()
        with self._lock:
            snapshot["synced_epoch"] = self._synced_epoch
            snapshot["rebuilds"] = self._rebuilds
        snapshot["mode"] = self.index.mode
        return snapshot

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def extend(self, concepts, *, epoch: int | None = None) -> int:
        """Make ``concepts`` retrievable, embedding only unseen ones.

        Idempotent: already-indexed names are skipped, so replaying an
        ingest journal cannot duplicate rows.  Records ``epoch`` (the
        engine ``structural_epoch`` these concepts belong to) as the
        new sync point.  Returns the number of rows actually added.
        """
        wanted = list(dict.fromkeys(str(c) for c in concepts))
        with self._lock:
            index = self._index
            missing = [c for c in wanted if c not in index]
            if not missing:
                self._record_epoch(epoch)
                return 0
            vectors = np.asarray(self._embed(missing))
            if len(index) == 0 and index.dim == 0:
                # the initial build saw zero concepts; establish the
                # matrix now that we know the embedding width
                self._index = CandidateIndex(
                    missing, vectors, self._config)
                self._rebuilds += 1
                added = len(missing)
            else:
                added = index.add(missing, vectors)
            self._record_epoch(epoch)
            return added

    def _record_epoch(self, epoch: int | None) -> None:
        engine = self._engine
        if epoch is None and engine is not None:
            epoch = engine.structural_epoch
        if epoch is None:
            return
        self._synced_epoch = max(self._synced_epoch, int(epoch))
        if engine is not None:
            engine.mark_norms_cached(self._synced_epoch)

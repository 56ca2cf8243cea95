"""The vectorized inference engine for the scoring hot path.

:class:`InferenceEngine` snapshots every weight a fitted
:class:`~repro.core.HyponymyDetector` needs into contiguous float32
arrays and executes scoring entirely through the fused kernels of
:mod:`repro.nn.inference` — zero ``Tensor`` allocation, no autograd
graph, no per-row Python input loops:

* template token ids are assembled from a per-concept token cache and
  padded with **length bucketing** (short pairs never pay long-pair
  attention cost; bucket widths are rounded up so workspace buffers
  recycle across calls),
* segment ids come from vectorized boundary arithmetic instead of a
  per-row fill loop,
* the structural representation is computed **by the engine itself**:
  GNN propagation runs through the CSR kernels of
  :class:`~repro.nn.inference.CompiledPropagation` over an engine-owned
  :class:`~repro.infer.graph.DynamicGraph`, filling a node-embedding
  matrix served as a vectorized gather (unknown concepts hit a zero
  fallback row, exactly like the autograd path),
* **incremental recompute**: :meth:`InferenceEngine.apply_attachments`
  merges streamed taxonomy attachments into the live graph and
  refreshes only the k-hop dirty frontier around the new edges, in
  place, under an epoch fence — no full rebuild, no artifact reload,
* single-concept embeddings are memoised in an LRU cache.

The engine is a pure function of the detector's weights plus the
attachment deltas applied since compilation: rebuild it
(``HyponymyDetector.compile_inference(force=True)``) after any
parameter update.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..nn.inference import (
    CompiledBert, CompiledClassifier, CompiledPropagation, SCORE_TOLERANCE,
)
from .graph import DynamicGraph

__all__ = ["EngineStats", "InferenceEngine"]

#: per-concept token-id cache bound; the whole dict is dropped when
#: exceeded (entries are tiny lists — wholesale reset is cheaper than
#: LRU churn)
_TOKEN_CACHE_LIMIT = 65536


@dataclass
class EngineStats:
    """Counters describing engine traffic since compilation."""

    batches: int = 0
    pairs_scored: int = 0
    sequences_encoded: int = 0
    concepts_encoded: int = 0
    concept_cache_hits: int = 0
    dtype: str = "float32"
    #: incremental-recompute fence: bumped once per applied delta
    structural_epoch: int = 0
    structural_nodes: int = 0
    recompute_batches: int = 0
    rows_recomputed: int = 0
    #: last ``structural_epoch`` a retrieval index cached row norms at
    #: (-1: no index has synced); lag behind ``structural_epoch`` means
    #: a stale candidate index
    norms_epoch: int = -1

    def as_dict(self) -> dict:
        """JSON/metrics-friendly snapshot."""
        return {
            "dtype": self.dtype,
            "batches": self.batches,
            "pairs_scored": self.pairs_scored,
            "sequences_encoded": self.sequences_encoded,
            "concepts_encoded": self.concepts_encoded,
            "concept_cache_hits": self.concept_cache_hits,
            "structural_epoch": self.structural_epoch,
            "structural_nodes": self.structural_nodes,
            "recompute_batches": self.recompute_batches,
            "rows_recomputed": self.rows_recomputed,
            "norms_epoch": self.norms_epoch,
        }


class InferenceEngine:
    """Graph-free scoring over a fitted hyponymy detector.

    Parameters
    ----------
    detector:
        A fitted :class:`~repro.core.HyponymyDetector`; its relational
        and/or structural encoders and classifier head are exported.
    dtype:
        Kernel dtype (float32 by default; float64 reproduces the
        autograd path bit-for-bit and is useful for debugging parity).
    max_batch:
        Sequences per encoder call; longer inputs are chunked.  The
        encoder's scratch buffers are sized by the largest chunk, so the
        default matches the service's coalescing cap
        (``ServiceConfig.max_batch``): a bulk request, which reaches the
        engine in one call, runs in the same row counts as coalesced
        traffic instead of growing the workspace.  Shared-memory workers
        copy the parent engine's value.
    bucket_multiple:
        Padded widths are rounded up to this multiple so length buckets
        collapse onto few distinct shapes and scratch buffers recycle.
    concept_cache_size:
        LRU capacity of the single-concept embedding cache.
    """

    #: headroom rows allocated beyond the current node count so streamed
    #: attachments rarely trigger a buffer reallocation
    _GROWTH_SLACK = 64

    def __init__(self, detector, dtype=np.float32, max_batch: int = 64,
                 bucket_multiple: int = 4, concept_cache_size: int = 4096):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if bucket_multiple < 1:
            raise ValueError("bucket_multiple must be >= 1")
        self.dtype = np.dtype(dtype)
        self.max_batch = max_batch
        self.bucket_multiple = bucket_multiple
        self.concept_cache_size = concept_cache_size
        self.stats = EngineStats(dtype=str(self.dtype))
        self.score_tolerance = SCORE_TOLERANCE
        # The compiled encoder reuses scratch buffers across calls, so
        # scoring is serialised: concurrent callers (a BatchingScorer
        # leader and batch-filling requests, each on its caller's own
        # thread) must not interleave writes into the shared workspace.
        self._lock = threading.RLock()

        relational = detector.relational
        self._relational_dim = 0
        if relational is not None:
            self.bert = CompiledBert(relational.model, dtype=self.dtype)
            tok = relational.tokenizer
            self._tokenizer = tok
            self._use_template = bool(relational.use_template)
            from ..plm.relational import TEMPLATE_WORDS
            self._infix = [tok.token_to_id(w) for w in TEMPLATE_WORDS]
            self._cls_id = tok.cls_id
            self._sep_id = tok.sep_id
            self._pad_id = tok.pad_id
            self._max_len = relational.model.config.max_len
            self._relational_dim = relational.dim
            self._token_cache: dict[str, list[int]] = {}  # guarded-by: self._lock
            #: pair -> pooled concept vector (LRU)
            self._concept_cache: OrderedDict = OrderedDict()  # guarded-by: self._lock
        else:
            self.bert = None

        structural = detector.structural
        self._structural_dim = 0
        self._graph = None
        self._structural_epoch = 0
        # True only on engines built by attach_shared: structural buffers
        # are read-only shared-memory views until the first mutation
        # copies them private (_materialize_structural).
        self._shared_structural = False
        if structural is not None:
            spec = structural.propagation_spec()
            self._gnn = CompiledPropagation(spec["layers"], dtype=self.dtype)
            self._graph = DynamicGraph(spec["nodes"], spec["adjacency"])
            self._num_nodes = self._graph.num_nodes
            self._hidden_dim = self._gnn.layers[-1].out_dim
            features = np.asarray(spec["features"], dtype=self.dtype)
            capacity = self._num_nodes + 1 + self._GROWTH_SLACK
            self._features = np.zeros((capacity, features.shape[1]),
                                      dtype=self.dtype)
            self._features[:self._num_nodes] = features
            # Per-hop hidden states are retained: an incremental
            # recompute of hop k reads hop k-1 values of the frontier's
            # neighbourhood without re-propagating the whole graph.  The
            # last hop is the node-embedding matrix scoring gathers
            # from; rows >= num_nodes stay zero, so row `num_nodes` is
            # always the zero fallback for concepts outside the graph —
            # even as the buffers grow in place.
            self._hidden_layers = [
                np.zeros((capacity, layer.out_dim), dtype=self.dtype)
                for layer in self._gnn.layers]
            self.recompute_structural()
            self.stats.structural_nodes = self._num_nodes
            if structural.config.use_position:
                self._position_parent = np.asarray(
                    structural.position_parent.data, dtype=self.dtype)
                self._position_child = np.asarray(
                    structural.position_child.data, dtype=self.dtype)
            else:
                self._position_parent = None
                self._position_child = None
            self._structural_dim = structural.out_dim

        self.classifier = CompiledClassifier(detector.classifier,
                                             dtype=self.dtype)
        self.feature_dim = self._relational_dim + self._structural_dim

    # ------------------------------------------------------------------
    # scoring (the hot path)
    # ------------------------------------------------------------------
    def score_pairs(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Positive-class probabilities, float64, autograd-compatible."""
        if not pairs:
            return np.zeros(0)
        with self._lock:
            features = self.pair_features(pairs)
            probs = self.classifier.positive_probability(features)
            self.stats.batches += 1
            self.stats.pairs_scored += len(pairs)
        return np.asarray(probs, dtype=np.float64)

    def stats_snapshot(self) -> EngineStats:
        """An atomic copy of the counters taken under the engine lock."""
        with self._lock:
            return replace(self.stats)

    def mark_norms_cached(self, epoch: int | None) -> None:
        """Record that a retrieval index cached row norms at ``epoch``.

        Called by :class:`~repro.retrieval.refresh.CandidateRetriever`
        whenever it syncs with this engine; ``stats.norms_epoch`` then
        exposes index staleness (lag vs ``structural_epoch``) through
        ``/metrics``.  Monotonic — an older epoch never regresses the
        marker — and a ``None`` epoch is a no-op.
        """
        if epoch is None:
            return
        with self._lock:
            self.stats.norms_epoch = max(self.stats.norms_epoch,
                                         int(epoch))

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no scoring batch is executing in this engine.

        The hot-reload path calls this on the *outgoing* engine after
        swapping a new one in: in-flight batches keep their reference
        and finish on the old weights; once :meth:`drain` returns True
        the old engine is idle and safe to discard.  Returns False if
        the engine is still busy after ``timeout`` seconds (``None``
        waits forever).  Re-entrant: a thread that is itself scoring
        returns True immediately (the workspace ``RLock`` is held by
        it).
        """
        acquired = self._lock.acquire(
            timeout=-1 if timeout is None else timeout)
        if acquired:
            self._lock.release()
        return acquired

    def pair_features(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Eq. 14 edge features ``(len(pairs), feature_dim)`` in dtype."""
        with self._lock:
            n = len(pairs)
            features = np.empty((n, self.feature_dim), dtype=self.dtype)
            if self.bert is not None:
                self._encode_pair_cls(
                    pairs, out=features[:, :self._relational_dim])
            if self._graph is not None:
                self._structural_features(
                    pairs, out=features[:, self._relational_dim:])
            return features

    # ------------------------------------------------------------------
    # relational fast path
    # ------------------------------------------------------------------
    def _concept_token_ids(self, concept: str) -> list[int]:
        # holds: self._lock
        ids = self._token_cache.get(concept)
        if ids is None:
            tok = self._tokenizer
            ids = [tok.token_to_id(t) for t in concept.split()]
            if len(self._token_cache) >= _TOKEN_CACHE_LIMIT:
                # Arbitrary client strings reach this cache via /score;
                # wholesale reset keeps a long-running service bounded.
                self._token_cache.clear()
            self._token_cache[concept] = ids
        return ids

    def pair_token_ids(self, query: str, item: str) -> tuple[list[int], int]:
        """Template ids + segment boundary, mirroring
        :meth:`~repro.plm.RelationalEncoder.pair_ids` (truncation
        included); the boundary is the first segment-1 position.

        Built on every call from the per-concept token cache — two dict
        lookups and a list concatenation — so the engine keeps no
        per-pair state and never-repeated pairs do not grow its memory.
        """
        # holds: self._lock
        query_ids = self._concept_token_ids(query)
        item_ids = self._concept_token_ids(item)
        if self._use_template:
            ids = ([self._cls_id] + query_ids + self._infix
                   + item_ids + [self._sep_id])
            boundary = 1 + len(query_ids) + len(self._infix)
        else:
            ids = ([self._cls_id] + query_ids + [self._sep_id]
                   + item_ids + [self._sep_id])
            boundary = 2 + len(query_ids)
        if len(ids) > self._max_len:
            ids = ids[:self._max_len]
            ids[-1] = self._sep_id
            boundary = min(boundary, self._max_len)
        return ids, boundary

    def _bucket_width(self, length: int) -> int:
        multiple = self.bucket_multiple
        return min(self._max_len, -(-length // multiple) * multiple)

    def _pack_batch(self, sequences: list[list[int]],
                    boundaries: np.ndarray, width: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized pad + mask + segment assembly for one bucket."""
        lengths = np.fromiter((len(s) for s in sequences), dtype=np.int64,
                              count=len(sequences))
        positions = np.arange(width)
        valid = positions < lengths[:, None]
        ids = np.full((len(sequences), width), self._pad_id, dtype=np.int64)
        ids[valid] = np.concatenate(sequences) if sequences else []
        segments = ((positions >= boundaries[:, None]) & valid) \
            .astype(np.int64)
        return ids, valid.astype(self.dtype), segments

    def _encode_pair_cls(self, pairs: list[tuple[str, str]],
                         out: np.ndarray) -> None:
        """Write each pair's ``[CLS]`` representation into ``out`` rows."""
        n = len(pairs)
        sequences: list[list[int]] = [None] * n
        boundaries = np.empty(n, dtype=np.int64)
        lengths = np.empty(n, dtype=np.int64)
        for row, (query, item) in enumerate(pairs):
            ids, boundary = self.pair_token_ids(query, item)
            sequences[row] = ids
            boundaries[row] = boundary
            lengths[row] = len(ids)
        # Length-sorted processing: each chunk pads only to its own
        # (rounded) max, so short pairs skip long-pair attention cost.
        # A uniform-length chunk carries no padding at all, so the
        # attention mask (and its per-layer bias pass) is dropped.
        order = np.argsort(lengths, kind="stable")
        for start in range(0, n, self.max_batch):
            chunk = order[start:start + self.max_batch]
            shortest, longest = int(lengths[chunk[0]]), int(lengths[chunk[-1]])
            uniform = shortest == longest
            width = longest if uniform else self._bucket_width(longest)
            ids, mask, segments = self._pack_batch(
                [sequences[i] for i in chunk], boundaries[chunk], width)
            hidden = self.bert.encode(ids, None if uniform else mask,
                                      segments)
            out[chunk] = hidden[:, 0, :]
            self.stats.sequences_encoded += len(chunk)

    # ------------------------------------------------------------------
    # single-concept embeddings (cached)
    # ------------------------------------------------------------------
    def encode_concepts(self, concepts: list[str],
                        pool: str = "cls") -> np.ndarray:
        """``[CLS] u [SEP]`` concept embeddings with an LRU cache.

        Matches :meth:`~repro.plm.RelationalEncoder.encode_concepts`
        within float32 tolerance; repeated concepts are free.
        """
        if self.bert is None:
            raise RuntimeError("engine has no relational encoder")
        if pool not in ("cls", "mean"):
            raise ValueError("pool must be 'cls' or 'mean'")
        with self._lock:
            return self._encode_concepts_locked(concepts, pool)

    def concept_embedding_matrix(self, concepts: list[str],
                                 batch_size: int | None = None,
                                 pool: str = "cls") -> np.ndarray:
        """Drop-in for :meth:`RelationalEncoder.concept_embedding_matrix
        <repro.plm.RelationalEncoder.concept_embedding_matrix>`.

        Same float64 output contract (within float32 tolerance), but
        served through the compiled encoder with the LRU concept cache —
        the baselines' embedding tables build at engine speed.
        ``batch_size`` is accepted for signature compatibility; the
        engine chunks by its own ``max_batch``.
        """
        del batch_size
        return np.asarray(self.encode_concepts(concepts, pool=pool),
                          dtype=np.float64)

    def _encode_concepts_locked(self, concepts: list[str],
                                pool: str) -> np.ndarray:
        # holds: self._lock
        resolved: dict[str, np.ndarray] = {}
        missing: dict[str, None] = {}
        for concept in concepts:
            cached = self._concept_cache.get((concept, pool))
            if cached is not None:
                self._concept_cache.move_to_end((concept, pool))
                self.stats.concept_cache_hits += 1
                resolved[concept] = cached
            else:
                missing[concept] = None
        todo = list(missing)
        for start in range(0, len(todo), self.max_batch):
            chunk = todo[start:start + self.max_batch]
            embedded = self._encode_concept_chunk(chunk, pool)
            for concept, vector in zip(chunk, embedded):
                resolved[concept] = vector
                self._cache_concept((concept, pool), vector)
        out = np.empty((len(concepts), self._relational_dim),
                       dtype=self.dtype)
        for row, concept in enumerate(concepts):
            out[row] = resolved[concept]
        return out

    def _encode_concept_chunk(self, concepts: list[str],
                              pool: str) -> np.ndarray:
        sequences = []
        for concept in concepts:
            ids = ([self._cls_id] + self._concept_token_ids(concept)
                   + [self._sep_id])
            if len(ids) > self._max_len:
                ids = ids[:self._max_len]
                ids[-1] = self._sep_id
            sequences.append(ids)
        boundaries = np.fromiter((len(s) for s in sequences),
                                 dtype=np.int64, count=len(sequences))
        width = self._bucket_width(int(boundaries.max(initial=1)))
        ids, mask, _ = self._pack_batch(sequences, boundaries, width)
        hidden = self.bert.encode(ids, mask)  # no segments for concepts
        self.stats.concepts_encoded += len(concepts)
        if pool == "cls":
            return hidden[:, 0, :].copy()
        content = mask.copy()
        content[ids == self._cls_id] = 0.0
        content[ids == self._sep_id] = 0.0
        denom = np.maximum(content.sum(axis=1, keepdims=True), 1.0)
        return np.einsum("bsd,bs->bd", hidden,
                         (content / denom).astype(self.dtype))

    def _cache_concept(self, key: tuple[str, str],
                       vector: np.ndarray) -> None:
        # holds: self._lock
        if not self.concept_cache_size:
            return
        self._concept_cache[key] = vector
        self._concept_cache.move_to_end(key)
        while len(self._concept_cache) > self.concept_cache_size:
            self._concept_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # structural fast path (engine-owned GNN propagation)
    # ------------------------------------------------------------------
    @property
    def structural_epoch(self) -> int:
        """Monotone fence bumped by every applied attachment delta."""
        with self._lock:
            return self._structural_epoch

    def restore_structural_epoch(self, epoch: int) -> int:
        """Pin the epoch fence after a snapshot restore; returns it.

        A restore applies the whole attachment log as *one* batch, so
        the epoch would land lower than the uninterrupted run's (which
        bumped once per batch).  Raising the fence to the recorded value
        keeps epoch-tagged consumers (shared-memory delta protocol,
        metrics, parity tests) consistent across restarts.  Never lowers
        the fence.
        """
        with self._lock:
            if int(epoch) > self._structural_epoch:
                self._structural_epoch = int(epoch)
                self.stats.structural_epoch = self._structural_epoch
            return self._structural_epoch

    def structural_csr(self) -> dict | None:
        """JSON-friendly export of the live structural graph.

        Snapshot capture uses this to persist the engine's
        :class:`~repro.infer.graph.DynamicGraph` exactly — node order,
        CSR topology, weights, and the epoch fence — so recovery can
        verify that replaying the attachment log reproduced the
        pre-crash graph bit-for-bit.  Returns ``None`` when the engine
        has no structural graph (no GNN in the compiled model).
        """
        with self._lock:
            if self._graph is None:
                return None
            csr = self._graph.export_csr()
            return {
                "epoch": int(self._structural_epoch),
                "num_nodes": int(self._num_nodes),
                "names": list(self._graph.names),
                "indptr": [int(v) for v in csr["indptr"]],
                "cols": [int(v) for v in csr["cols"]],
                "weights": [float(v) for v in csr["weights"]],
                "degrees": [float(v) for v in csr["degrees"]],
            }

    def _pair_rows(self, pairs: list[tuple[str, str]]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of each pair's nodes in the *live* engine graph.

        Mirrors ``StructuralEncoder.pair_rows`` but over the engine's
        own (growing) index: concepts attached since compilation resolve
        to their recomputed rows; unknown concepts hit the zero fallback
        row at index ``num_nodes``.
        """
        index = self._graph.index
        fallback = self._num_nodes
        q_rows = np.fromiter((index.get(q, fallback) for q, _ in pairs),
                             dtype=np.int64, count=len(pairs))
        i_rows = np.fromiter((index.get(i, fallback) for _, i in pairs),
                             dtype=np.int64, count=len(pairs))
        return q_rows, i_rows

    def _structural_features(self, pairs: list[tuple[str, str]],
                             out: np.ndarray) -> None:
        """Vectorized gather over the last hop's propagated embeddings.

        The fallback row for unknown concepts is the zero row at index
        ``num_nodes`` (rows past the live node count are never written),
        matching the autograd path's zero-embedding fallback.
        """
        q_rows, i_rows = self._pair_rows(pairs)
        nodes = self._hidden_layers[-1]
        hidden = self._hidden_dim
        if self._position_parent is None:
            out[:, :hidden] = nodes[q_rows]
            out[:, hidden:] = nodes[i_rows]
            return
        position = self._position_parent.shape[0]
        out[:, :hidden] = nodes[q_rows]
        out[:, hidden:hidden + position] = self._position_parent
        out[:, hidden + position:2 * hidden + position] = nodes[i_rows]
        out[:, 2 * hidden + position:] = self._position_child

    # ------------------------------------------------------------------
    # GNN propagation + incremental recompute-on-ingest
    # ------------------------------------------------------------------
    def recompute_structural(self) -> int:
        """Full K-hop propagation over every node.

        Returns the number of row recomputations performed (rows x
        hops).  This is the from-scratch baseline the dirty-frontier
        pass of :meth:`apply_attachments` is benchmarked against
        (``benchmarks/bench_incremental_recompute.py``).
        """
        with self._lock:
            if self._graph is None:
                return 0
            self._materialize_structural()
            rows = np.arange(self._num_nodes, dtype=np.int64)
            total, _final = self._propagate_rows(rows)
            return total

    def _propagate_rows(self, rows: np.ndarray
                        ) -> tuple[int, np.ndarray]:
        """Recompute hop outputs for ``rows``, widening one hop per layer.

        Hop 1 outputs change only for nodes whose adjacency row changed
        (``rows``); hop k+1 outputs change for those nodes plus their
        neighbourhood — so the frontier is expanded *between* hops, and
        the final-hop frontier is exactly the set of node-embedding rows
        that moved.  Returns ``(total rows recomputed, final frontier)``.
        Caller holds the engine lock.
        """
        total = 0
        count = self._num_nodes
        hidden_prev = self._features[:count]
        for k in range(self._gnn.num_hops):
            if k > 0 and len(rows) < count:
                rows = self._graph.expand_rows(rows)
            sub = self._graph.gather(rows, self._gnn.includes_self(k))
            out = self._gnn.propagate_rows(
                k, hidden_prev, rows, sub.cols, sub.offsets, sub.counts,
                sub.weights, sub.degrees)
            self._hidden_layers[k][rows] = out
            total += len(rows)
            hidden_prev = self._hidden_layers[k][:count]
        return total, rows

    def apply_attachments(self, edges: list[tuple[str, str]]) -> dict:
        """Merge taxonomy attachments into the live structural graph.

        For each ``(parent, child)`` edge: unseen concepts join the
        graph (initial features from the engine's own C-BERT concept
        encoder; zeros without a relational encoder), the edge is added
        with taxonomy weight 1.0, and the k-hop neighbourhood around the
        touched nodes is recomputed in place under the engine lock — an
        **epoch fence**: scoring either sees the complete pre-delta or
        the complete post-delta matrix, never a torn mix.  Already-known
        edges are skipped, so re-applying a delta log (worker respawn,
        hot reload) is idempotent.

        Returns a JSON-friendly summary: ``epoch`` (post-apply fence
        value), ``new_nodes``, ``applied_edges``, ``rows_recomputed``
        and ``dirty_concepts`` — the concepts whose structural features
        moved, which is exactly the set serving caches must invalidate.
        """
        cleaned = [(str(parent), str(child)) for parent, child in edges]
        with self._lock:
            if self._graph is None:
                return {"applied": False, "reason": "engine has no "
                        "structural graph", "epoch": 0, "new_nodes": [],
                        "applied_edges": 0, "rows_recomputed": 0,
                        "dirty_concepts": []}
            graph = self._graph
            new_nodes: list[str] = []
            seen: set[str] = set()
            for parent, child in cleaned:
                for concept in (parent, child):
                    if concept not in graph and concept not in seen:
                        seen.add(concept)
                        new_nodes.append(concept)
            fresh = [pair for pair in cleaned
                     if not graph.has_edge(*pair) and pair[0] != pair[1]]
            if not fresh and not new_nodes:
                return {"applied": True, "epoch": self._structural_epoch,
                        "new_nodes": [], "applied_edges": 0,
                        "rows_recomputed": 0, "dirty_concepts": []}
            self._materialize_structural()
            features = self._new_node_features(new_nodes)
            self._ensure_node_capacity(self._num_nodes + len(new_nodes))
            for slot, concept in enumerate(new_nodes):
                row = graph.add_node(concept)
                self._features[row] = features[slot]
            self._num_nodes = graph.num_nodes
            touched: set[int] = {graph.index[c] for c in new_nodes}
            applied = 0
            for parent, child in fresh:
                if graph.add_edge(parent, child, weight=1.0):
                    applied += 1
                    touched.add(graph.index[parent])
                    touched.add(graph.index[child])
            rows = np.fromiter(sorted(touched), dtype=np.int64,
                               count=len(touched))
            total, final_rows = self._propagate_rows(rows)
            self._structural_epoch += 1
            self.stats.structural_epoch = self._structural_epoch
            self.stats.structural_nodes = self._num_nodes
            self.stats.recompute_batches += 1
            self.stats.rows_recomputed += total
            names = graph.names
            return {"applied": True, "epoch": self._structural_epoch,
                    "new_nodes": list(new_nodes), "applied_edges": applied,
                    "rows_recomputed": total,
                    "dirty_concepts": [names[row] for row in final_rows]}

    def _new_node_features(self, concepts: list[str]) -> np.ndarray:
        """Initial (hop-0) feature rows for freshly attached concepts.

        Uses the engine's cached C-BERT ``[CLS]`` concept embeddings —
        the same source the training pipeline seeds GNN features from —
        falling back to zero rows when the detector has no relational
        encoder (or its width differs, e.g. random-feature ablations).
        Caller holds the engine lock.
        """
        width = self._features.shape[1]
        out = np.zeros((len(concepts), width), dtype=self.dtype)
        if concepts and self.bert is not None \
                and self._relational_dim == width:
            out[:] = self._encode_concepts_locked(concepts, "cls")
        return out

    def _ensure_node_capacity(self, num_nodes: int) -> None:
        """Grow the per-node buffers to hold ``num_nodes`` + fallback row.

        Amortised doubling; freshly exposed rows are zero, preserving
        the invariant that the fallback row (index ``num_nodes``) reads
        as a zero embedding.  Caller holds the engine lock.
        """
        needed = num_nodes + 1
        if self._features.shape[0] >= needed:
            return
        capacity = max(needed + self._GROWTH_SLACK,
                       2 * self._features.shape[0])

        def grown(buffer: np.ndarray) -> np.ndarray:
            replacement = np.zeros((capacity, buffer.shape[1]),
                                   dtype=buffer.dtype)
            replacement[:self._num_nodes] = buffer[:self._num_nodes]
            return replacement

        self._features = grown(self._features)
        self._hidden_layers = [grown(layer) for layer in
                               self._hidden_layers]

    def node_embedding_matrix(self) -> np.ndarray:
        """The live propagated node embeddings as float64 ``(N, hidden)``.

        Row order matches :meth:`structural_arrays`; compare against
        ``StructuralEncoder.from_arrays(...).node_embedding_matrix()``
        for incremental-recompute parity.
        """
        with self._lock:
            return np.asarray(self._hidden_layers[-1][:self._num_nodes],
                              dtype=np.float64)

    def structural_arrays(self) -> dict:
        """The engine's live structural state as autograd-oracle inputs.

        Feed the result to :meth:`repro.gnn.StructuralEncoder.from_arrays`
        (plus ``load_state_dict`` of the original encoder weights) to
        build a from-scratch float64 encoder over exactly the graph this
        engine has grown incrementally — the parity contract for
        recompute-on-ingest.
        """
        with self._lock:
            if self._graph is None:
                raise RuntimeError("engine has no structural graph")
            count = self._num_nodes
            return {
                "nodes": list(self._graph.names),
                "features": np.asarray(self._features[:count],
                                       dtype=np.float64),
                "adjacency": self._graph.dense_adjacency(),
            }

    # ------------------------------------------------------------------
    # zero-copy shared-memory export / attach
    # ------------------------------------------------------------------
    def shared_state(self) -> tuple[dict, dict]:
        """Flatten every read-only array into (picklable meta, array dict).

        The arrays dict is what a :class:`~repro.serving.shm.SharedArtifactStore`
        publishes into segments; :meth:`attach_shared` rebuilds an engine
        over the attached views with zero copies.  Node names travel as a
        JSON-encoded ``uint8`` array so the manifest itself stays tiny.
        """
        with self._lock:
            arrays: dict[str, np.ndarray] = {}
            meta: dict = {
                "engine": {
                    "dtype": self.dtype.str,
                    "max_batch": self.max_batch,
                    "bucket_multiple": self.bucket_multiple,
                    "concept_cache_size": self.concept_cache_size,
                    "relational_dim": self._relational_dim,
                    "structural_dim": self._structural_dim,
                    "structural_epoch": self._structural_epoch,
                },
            }
            if self.bert is not None:
                bert_meta, bert_arrays = self.bert.export_arrays()
                meta["bert"] = bert_meta
                meta["engine"]["use_template"] = self._use_template
                # Specials are re-prepended by WordTokenizer (mirrors the
                # bundle manifest), making attach_shared self-contained —
                # a worker attaches without touching the bundle on disk.
                tok = self._tokenizer
                meta["engine"]["tokenizer_vocab"] = [
                    tok.id_to_token(i) for i in range(tok.vocab_size)
                ][tok.num_special:]
                for name, array in bert_arrays.items():
                    arrays[f"bert.{name}"] = array
            clf_meta, clf_arrays = self.classifier.export_arrays()
            meta["classifier"] = clf_meta
            for name, array in clf_arrays.items():
                arrays[f"classifier.{name}"] = array
            if self._graph is not None:
                gnn_meta, gnn_arrays = self._gnn.export_arrays()
                meta["gnn"] = gnn_meta
                for name, array in gnn_arrays.items():
                    arrays[f"gnn.{name}"] = array
                count = self._num_nodes
                meta["structural"] = {
                    "num_nodes": count,
                    "hidden_dim": self._hidden_dim,
                    "use_position": self._position_parent is not None,
                }
                arrays["structural.features"] = self._features[:count]
                # Row `count` is the zero fallback for unknown concepts;
                # exporting it keeps the attached gather path identical.
                for k, hidden in enumerate(self._hidden_layers):
                    arrays[f"structural.hidden{k}"] = hidden[:count + 1]
                for name, slab in self._graph.export_csr().items():
                    arrays[f"graph.{name}"] = slab
                arrays["graph.names"] = np.frombuffer(
                    json.dumps(self._graph.names).encode("utf-8"),
                    dtype=np.uint8)
                if self._position_parent is not None:
                    arrays["structural.position_parent"] = \
                        self._position_parent
                    arrays["structural.position_child"] = \
                        self._position_child
            return meta, arrays

    @classmethod
    def attach_shared(cls, meta: dict, arrays: dict,
                      tokenizer=None) -> "InferenceEngine":
        """Build an engine whose weights are views over shared buffers.

        ``meta``/``arrays`` come from :meth:`shared_state` (the arrays
        typically re-materialised as read-only shared-memory views by
        :func:`repro.serving.shm.attach_manifest`).  No weight array is
        copied; only per-engine scratch (workspaces, caches, locks) is
        allocated.  Scores are bit-identical to an engine compiled from
        the same bundle because the attached arrays *are* that engine's
        arrays.  Structural buffers stay copy-on-write: the first
        ``apply_attachments``/``recompute_structural`` copies them into
        private memory before mutating.
        """
        def sub(prefix: str) -> dict:
            return {name[len(prefix):]: array
                    for name, array in arrays.items()
                    if name.startswith(prefix)}

        spec = meta["engine"]
        engine = cls.__new__(cls)
        engine.dtype = np.dtype(spec["dtype"])
        engine.max_batch = int(spec["max_batch"])
        engine.bucket_multiple = int(spec["bucket_multiple"])
        engine.concept_cache_size = int(spec["concept_cache_size"])
        engine.stats = EngineStats(dtype=str(engine.dtype))
        engine.score_tolerance = SCORE_TOLERANCE
        engine._lock = threading.RLock()

        engine._relational_dim = int(spec["relational_dim"])
        if "bert" in meta:
            if tokenizer is None and "tokenizer_vocab" in spec:
                from ..plm import WordTokenizer
                tokenizer = WordTokenizer(spec["tokenizer_vocab"])
            if tokenizer is None:
                raise ValueError("a tokenizer is required to attach a "
                                 "relational engine")
            engine.bert = CompiledBert.from_arrays(meta["bert"],
                                                   sub("bert."))
            engine._tokenizer = tokenizer
            engine._use_template = bool(spec["use_template"])
            from ..plm.relational import TEMPLATE_WORDS
            engine._infix = [tokenizer.token_to_id(w)
                             for w in TEMPLATE_WORDS]
            engine._cls_id = tokenizer.cls_id
            engine._sep_id = tokenizer.sep_id
            engine._pad_id = tokenizer.pad_id
            engine._max_len = engine.bert.max_len
            engine._token_cache = {}
            engine._concept_cache = OrderedDict()
        else:
            engine.bert = None

        engine._structural_dim = int(spec["structural_dim"])
        engine._graph = None
        engine._structural_epoch = int(spec["structural_epoch"])
        engine._shared_structural = False
        engine.stats.structural_epoch = engine._structural_epoch
        if "structural" in meta:
            structural = meta["structural"]
            engine._gnn = CompiledPropagation.from_arrays(meta["gnn"],
                                                          sub("gnn."))
            names = json.loads(bytes(arrays["graph.names"])
                               .decode("utf-8"))
            engine._graph = DynamicGraph.from_csr(names, sub("graph."))
            engine._num_nodes = int(structural["num_nodes"])
            engine._hidden_dim = int(structural["hidden_dim"])
            engine._features = arrays["structural.features"]
            engine._hidden_layers = [
                arrays[f"structural.hidden{k}"]
                for k in range(engine._gnn.num_hops)]
            engine._shared_structural = True
            engine.stats.structural_nodes = engine._num_nodes
            if structural["use_position"]:
                engine._position_parent = \
                    arrays["structural.position_parent"]
                engine._position_child = \
                    arrays["structural.position_child"]
            else:
                engine._position_parent = None
                engine._position_child = None

        engine.classifier = CompiledClassifier.from_arrays(
            meta["classifier"], sub("classifier."))
        engine.feature_dim = engine._relational_dim \
            + engine._structural_dim
        return engine

    def _materialize_structural(self) -> None:
        """Copy shared structural views into private, growable buffers.

        Copy-on-write: an attached engine serves directly off the shared
        segments until its first mutation (streamed attachment or full
        recompute); this copies features and per-hop hidden states —
        with fresh growth slack and a zero fallback row — so no write
        ever lands on a shared mapping.  The shared weight arrays
        (BERT/classifier/GNN) are never mutated and stay shared for the
        engine's lifetime.  Caller holds the engine lock.
        """
        if not self._shared_structural:
            return
        count = self._num_nodes
        capacity = count + 1 + self._GROWTH_SLACK

        def private(buffer: np.ndarray) -> np.ndarray:
            replacement = np.zeros((capacity, buffer.shape[1]),
                                   dtype=buffer.dtype)
            replacement[:count] = buffer[:count]
            return replacement

        self._features = private(self._features)
        self._hidden_layers = [private(hidden)
                               for hidden in self._hidden_layers]
        self._shared_structural = False

"""The online taxonomy service facade.

:class:`TaxonomyService` composes the serving subsystem around one loaded
:class:`~repro.serving.ArtifactBundle`:

* a :class:`~repro.serving.BatchingScorer` front-ending the detector —
  either the in-process compiled engine or a
  :class:`~repro.serving.ShardedScorerPool` of worker processes,
* an :class:`~repro.core.IncrementalExpander` owning the live taxonomy,
* a :class:`~repro.serving.StreamingIngestor` applying click-log batches
  from a background worker, optionally write-ahead journaled into an
  :class:`~repro.serving.IngestJournal` and replayed on startup
  (:meth:`TaxonomyService.replay_journal`),
* zero-downtime hot reload (:meth:`TaxonomyService.reload`): a new
  bundle is loaded in the background, smoke-tested, and atomically
  swapped into the scorer (and every pool worker) while in-flight
  batches drain on the old engine,
* snapshot + compaction (:meth:`TaxonomyService.snapshot` /
  :meth:`TaxonomyService.recover`): the full recovered state —
  taxonomy, expander accumulation, attachment log, engine CSR — is
  periodically captured into an atomic
  :class:`~repro.serving.SnapshotStore` file keyed by journal sequence;
  startup loads the latest valid snapshot and replays only the journal
  tail after it, journal segments a snapshot covers are compacted away,
  and the pool folds its delta log at the same point so worker respawn
  replays only the post-snapshot tail.

Every public method takes and returns JSON-friendly values, so the HTTP
layer (:mod:`repro.serving.routes` behind
:mod:`repro.serving.async_http`) is a thin router over this class and
the same operations are directly scriptable in-process.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ..api import errors as api_errors
from ..api.jobs import JobManager
from ..api.schemas import (
    ExpandRequest, IngestRequest, ScoreRequest, SuggestRequest,
    clean_candidates, clean_pairs,
)
from ..core.expansion import expand_taxonomy
from ..core.incremental import IncrementalExpander, IngestReport
from ..retrieval import CandidateRetriever
from ..taxonomy import taxonomy_from_dict, taxonomy_to_dict
from .artifacts import ArtifactBundle
from .ingest import StreamingIngestor, click_log_from_records
from .scorer import BatchingScorer

__all__ = ["ServiceConfig", "TaxonomyService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs for one service instance."""

    max_batch: int = 64
    cache_size: int = 4096
    max_ingest_queue: int = 16
    #: pairs sampled from the incoming bundle's taxonomy for the
    #: pre-swap smoke test during hot reload
    reload_probe_pairs: int = 8
    #: unfinished async jobs accepted before /v1/jobs/... backpressures
    max_pending_jobs: int = 32
    #: finished async jobs retained for polling before eviction
    max_retained_jobs: int = 256
    #: retrieval fan-out per suggest: retrieve ``k * factor`` nearest
    #: concepts, re-rank with the exact scorer, return the top ``k``
    suggest_retrieve_factor: int = 4
    #: recently-hot pairs re-scored through the new engine after a hot
    #: reload so the post-swap cache is warm (0 disables warming)
    reload_warm_pairs: int = 128
    #: take a snapshot once this many journal records accumulate past
    #: the last one (0 disables count-based scheduling)
    snapshot_every_records: int = 0
    #: take a snapshot once the journal's on-disk segments exceed this
    #: many bytes (0 disables size-based scheduling)
    snapshot_every_bytes: int = 0
    #: take a snapshot once this many seconds pass since the last one
    #: (0 disables time-based scheduling)
    snapshot_interval_seconds: float = 0.0


def _report_to_dict(report: IngestReport) -> dict:
    return {
        "batch_index": report.batch_index,
        "new_candidate_queries": report.new_candidate_queries,
        "attached_edges": [list(edge) for edge in report.attached_edges],
        "num_attached": report.num_attached,
        "taxonomy_edges_after": report.taxonomy_edges_after,
    }


class TaxonomyService:
    """Long-running facade over a fitted pipeline and its taxonomy.

    Parameters
    ----------
    bundle:
        The loaded artifact bundle to serve.
    config:
        Operational knobs (batching, caching, queue bounds).
    pool:
        Optional started :class:`~repro.serving.ShardedScorerPool`; when
        given, scoring fans out across its worker processes instead of
        the in-process engine.  The caller keeps ownership (stop it
        after :meth:`stop`).
    journal:
        Optional :class:`~repro.serving.IngestJournal`; every taxonomy
        mutation (``ingest`` batches, synchronous ``expand`` calls,
        ``reload`` events) is journaled write-ahead, and
        :meth:`replay_journal` rebuilds state from it on startup.  The
        caller keeps ownership (close it after :meth:`stop`).
    snapshots:
        Optional :class:`~repro.serving.SnapshotStore`; :meth:`snapshot`
        captures the full live state into it (and compacts the journal
        + pool delta log behind it), and :meth:`recover` restores from
        the latest valid snapshot before replaying the journal tail.
        Scheduling runs automatically once :meth:`start` is called and
        any ``snapshot_every_*`` / ``snapshot_interval_seconds`` knob is
        set.  The caller keeps ownership.
    """

    def __init__(self, bundle: ArtifactBundle,
                 config: ServiceConfig | None = None,
                 pool=None, journal=None, snapshots=None):
        if bundle.pipeline.detector is None:
            raise ValueError("bundle holds an unfitted pipeline")
        self.bundle = bundle
        self.config = config or ServiceConfig()
        self.pool = pool
        self.journal = journal
        backend = pool.score_pairs if pool is not None \
            else bundle.pipeline.score_pairs
        self.scorer = BatchingScorer(
            backend,
            max_batch=self.config.max_batch,
            cache_size=self.config.cache_size)
        # One lock serialises every taxonomy writer: the ingest worker and
        # synchronous /expand requests.
        self._taxonomy_lock = threading.Lock()
        self.expander = IncrementalExpander(
            self.scorer, bundle.taxonomy, bundle.vocabulary,
            bundle.pipeline.config.expansion)
        # Every attachment ever propagated to the engines, in apply
        # order — re-applied onto freshly loaded bundles during hot
        # reload so the new model serves the same live graph.
        self._attached_edges: list[tuple[str, str]] = []  # guarded-by: self._taxonomy_lock
        self.ingestor = StreamingIngestor(
            self.expander, max_queue=self.config.max_ingest_queue,
            lock=self._taxonomy_lock, journal=journal,
            on_attach=self._propagate_attachments)
        # Candidate-retrieval index: built lazily on the first suggest
        # or retrieval-backed expand (embedding every node up front
        # would slow construction for services that never retrieve).
        # _retriever_lock serialises builds; the reference itself swaps
        # atomically so readers never block on a build.
        self._retriever: CandidateRetriever | None = None  # guarded-by: self._retriever_lock
        self._retriever_lock = threading.Lock()
        self._suggest_requests = 0
        self._index_rebuilds = 0  # guarded-by: self._retriever_lock
        self._retrieval_publish_failures = 0  # guarded-by: self._retriever_lock
        self._cache_warmed_pairs = 0
        # Serialises hot reloads; scoring keeps flowing around it.
        self._reload_lock = threading.Lock()
        self._reloads = 0  # guarded-by: self._reload_lock
        # Snapshot + compaction state.  _snapshot_lock serialises
        # capture/compaction; the scheduler thread polls the cheap
        # threshold checks and triggers snapshots off the request path.
        self.snapshots = snapshots
        self._snapshot_lock = threading.Lock()
        self._snapshots_taken = 0  # guarded-by: self._snapshot_lock
        self._last_snapshot_seq = -1  # guarded-by: self._snapshot_lock
        self._last_snapshot_bytes = 0  # guarded-by: self._snapshot_lock
        self._last_snapshot_at: float | None = None  # guarded-by: self._snapshot_lock
        self._replay_tail_records = 0
        self._recovered_snapshot: str | None = None
        self._snapshot_failures = 0  # guarded-by: self._snapshot_lock
        self._snapshot_stop = threading.Event()
        self._snapshot_thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        self._started = False
        # Async-job executor behind POST /v1/jobs/... — one ordered
        # worker, bounded retention (see repro.api.jobs).
        self.jobs = JobManager(
            max_pending=self.config.max_pending_jobs,
            max_retained=self.config.max_retained_jobs)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TaxonomyService":
        """Start the ingestion and job workers; idempotent.

        Also starts the snapshot scheduler when a snapshot store is
        attached and any scheduling knob is set.
        """
        self.ingestor.start()
        self.jobs.start()
        config = self.config
        scheduled = (config.snapshot_every_records
                     or config.snapshot_every_bytes
                     or config.snapshot_interval_seconds)
        if (self.snapshots is not None and scheduled
                and self._snapshot_thread is None):
            self._snapshot_stop.clear()
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop, name="repro-snapshot",
                daemon=True)
            self._snapshot_thread.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Drain and stop every worker; idempotent.

        Flushes (but does not close) an attached journal, and leaves an
        attached pool running — both belong to whoever created them.
        """
        self._started = False
        self._snapshot_stop.set()
        if self._snapshot_thread is not None:
            self._snapshot_thread.join(timeout=10.0)
            self._snapshot_thread = None
        self.jobs.stop()
        self.ingestor.stop()
        if self.journal is not None:
            self.journal.flush()

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run (and :meth:`stop` has not)."""
        return self._started

    def __enter__(self) -> "TaxonomyService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # operations (JSON-friendly in, JSON-friendly out)
    # ------------------------------------------------------------------
    def score(self, pairs) -> dict:
        """Hyponymy probabilities for explicit (parent, child) pairs.

        Accepts a raw ``[[parent, child], ...]`` list or an
        already-validated :class:`~repro.api.ScoreRequest`; raw input is
        cleaned through the same schema validator the HTTP boundary
        uses (violations raise :class:`~repro.api.ApiError`).
        """
        cleaned = (pairs.pairs if isinstance(pairs, ScoreRequest)
                   else clean_pairs(pairs))
        probs = self.scorer.score_pairs(list(cleaned))
        return {
            "pairs": [list(pair) for pair in cleaned],
            "probabilities": [float(p) for p in probs],
        }

    def score_chunks(self, pairs, chunk_size: int = 64):
        """Yield :meth:`score`-shaped results per micro-batch of pairs.

        Input validation matches :meth:`score` exactly (same cleaner,
        same :class:`~repro.api.ApiError` on violations, raised before
        the first chunk is yielded).  Each yielded dict covers the next
        ``chunk_size`` pairs in request order and is scored through the
        same batching scorer — concatenating the chunks reproduces the
        unchunked response element-for-element.  The HTTP transport
        flushes one NDJSON line per chunk so large batches produce
        incremental output instead of one buffered body.
        """
        cleaned = list(pairs.pairs if isinstance(pairs, ScoreRequest)
                       else clean_pairs(pairs))
        chunk_size = max(1, int(chunk_size))
        for start in range(0, len(cleaned), chunk_size):
            chunk = cleaned[start:start + chunk_size]
            probs = self.scorer.score_pairs(list(chunk))
            yield {
                "pairs": [list(pair) for pair in chunk],
                "probabilities": [float(p) for p in probs],
            }

    def expand_chunks(self, candidates=None, *, queries=None,
                      top_k: int = 20, chunk_size: int = 8):
        """Yield :meth:`expand`-shaped results per micro-batch of queries.

        Argument handling matches :meth:`expand` (exactly one of
        ``candidates``/``queries``; retrieval-backed maps are resolved
        up front).  The candidate map is then split into sub-maps of
        ``chunk_size`` query concepts and each sub-map runs through the
        normal journaled expansion — byte-identical on the journal to a
        client issuing one ``/v1/expand`` call per sub-map, so replay
        determinism is preserved.  Later chunks see the taxonomy edges
        attached by earlier ones, exactly as sequential calls would.
        """
        if isinstance(candidates, ExpandRequest):
            request = candidates
            candidates = request.candidates
            queries = request.queries
            top_k = request.top_k
        elif candidates is not None:
            candidates = clean_candidates(candidates)
        if (candidates is None) == (queries is None):
            raise api_errors.invalid_request(
                "exactly one of 'candidates' or 'queries' must be "
                "provided", field="candidates")
        if queries is not None:
            candidates = self._retrieved_candidates(
                [str(query) for query in queries], top_k)
        keys = list(candidates)
        chunk_size = max(1, int(chunk_size))
        for start in range(0, len(keys), chunk_size):
            sub_map = {key: candidates[key]
                       for key in keys[start:start + chunk_size]}
            result = self._expand_cleaned(sub_map, journal_write=True)
            yield {
                "attached_edges": [list(edge)
                                   for edge in result.attached_edges],
                "num_attached": result.num_attached,
                "scored_candidates": len(result.scored_pairs),
                "taxonomy_edges": result.taxonomy.num_edges,
            }

    def suggest(self, query, k: int = 10) -> dict:
        """Ranked attachment candidates for one query concept.

        The retrieve-then-rank split: the candidate index returns the
        ``k * suggest_retrieve_factor`` nearest concepts by embedding
        similarity (sub-linear in partitioned mode), then the exact
        pair scorer re-ranks them as ``(candidate, query)`` hyponymy
        probabilities — "how likely is this candidate to be the
        query's parent?".  Accepts a raw query string (plus ``k``) or a
        validated :class:`~repro.api.SuggestRequest`.
        """
        request = (query if isinstance(query, SuggestRequest)
                   else SuggestRequest.parse({"query": str(query),
                                              "k": int(k)}))
        query, k = request.query, request.k
        retriever = self._get_retriever()
        self._suggest_requests += 1
        retrieve_k = max(k, k * max(1, self.config.suggest_retrieve_factor))
        neighbors = retriever.neighbors(query, retrieve_k)
        pairs = [(concept, query) for concept, _ in neighbors]
        probs = self.scorer.score_pairs(pairs) if pairs else []
        with self._taxonomy_lock:
            taxonomy = self.expander.taxonomy
            parents = (set(taxonomy.parents(query))
                       if query in taxonomy.nodes else set())
        ranked = sorted(
            ((float(prob), concept, float(similarity))
             for (concept, similarity), prob in zip(neighbors, probs)),
            key=lambda item: (-item[0], item[1]))
        candidates = [
            {"concept": concept,
             "probability": prob,
             "similarity": similarity,
             "already_parent": concept in parents}
            for prob, concept, similarity in ranked[:k]]
        return {
            "query": query,
            "k": k,
            "candidates": candidates,
            "retrieval": {
                "mode": retriever.index.mode,
                "retrieved": len(neighbors),
                "reranked": len(pairs),
                "index_size": len(retriever),
                "synced_epoch": retriever.synced_epoch,
            },
        }

    def expand(self, candidates=None, *, queries=None,
               top_k: int = 20) -> dict:
        """Synchronously expand the live taxonomy.

        Exactly one of ``candidates`` (query concept -> candidate item
        concepts, raw dict or inside a validated
        :class:`~repro.api.ExpandRequest`) or ``queries`` (seed
        concepts whose candidates are retrieved from the embedding
        index, ``top_k`` per seed) must be provided.  The retrieved
        map is resolved *before* journaling, so a journaled
        retrieval-backed expand replays deterministically as a plain
        candidate map.  Accepted edges are committed to the service
        taxonomy (and journaled write-ahead when a journal is
        attached).
        """
        if isinstance(candidates, ExpandRequest):
            request = candidates
            candidates = request.candidates
            queries = request.queries
            top_k = request.top_k
        elif candidates is not None:
            candidates = clean_candidates(candidates)
        if (candidates is None) == (queries is None):
            raise api_errors.invalid_request(
                "exactly one of 'candidates' or 'queries' must be "
                "provided", field="candidates")
        if queries is not None:
            candidates = self._retrieved_candidates(
                [str(query) for query in queries], top_k)
        result = self._expand_cleaned(candidates, journal_write=True)
        return {
            "attached_edges": [list(edge)
                               for edge in result.attached_edges],
            "num_attached": result.num_attached,
            "scored_candidates": len(result.scored_pairs),
            "taxonomy_edges": result.taxonomy.num_edges,
        }

    def _expand_cleaned(self, cleaned: dict, journal_write: bool):
        """Expand under the taxonomy lock; journal first when asked."""
        with self._taxonomy_lock:
            if journal_write and self.journal is not None:
                self.journal.append("expand", {"candidates": cleaned})
            result = expand_taxonomy(
                self.scorer, self.expander.taxonomy, cleaned,
                self.expander.config)
            self.expander.taxonomy = result.taxonomy
            if result.attached_edges:
                self._propagate_attachments(result.attached_edges)
        return result

    def _get_retriever(self) -> CandidateRetriever:
        """The candidate retriever, built lazily on first use.

        The build embeds every live taxonomy node, so it runs outside
        the taxonomy lock (concurrent ingest keeps flowing); nodes
        attached *during* the build are topped up right after, and
        every later attachment extends the published index via
        :meth:`_propagate_attachments`.
        """
        retriever = self._retriever
        if retriever is not None:
            return retriever
        with self._retriever_lock:
            if self._retriever is None:
                with self._taxonomy_lock:
                    snapshot = sorted(self.expander.taxonomy.nodes)
                built = self._build_retriever(self.bundle, snapshot)
                # nodes attached while we were embedding
                with self._taxonomy_lock:
                    missed = sorted(self.expander.taxonomy.nodes)
                built.extend(missed)
                self._retriever = built
                self._index_rebuilds += 1
                self._publish_retrieval_slab(built)
            return self._retriever

    def _publish_retrieval_slab(self, retriever: CandidateRetriever) -> None:
        """Mirror the freshly built index's embedding slab into shared
        memory (``"retrieval"`` label of the pool's segment store).

        Best-effort: the in-process index keeps serving either way; the
        shared copy makes the slab attachable zero-copy
        (:meth:`~repro.retrieval.CandidateIndex.from_slab`) and counts
        toward ``repro_shm_segment_bytes``.  No-op without a pool or
        with sharing disabled.
        """
        # holds: self._retriever_lock
        pool = self.pool
        if pool is None:
            return
        try:
            meta, arrays = retriever.index.export_slab()
            pool.publish_shared(arrays, meta=meta, label="retrieval")
        except Exception as error:
            self._retrieval_publish_failures += 1
            warnings.warn(
                f"retrieval slab publish failed (serving continues "
                f"in-process): {error!r}", RuntimeWarning, stacklevel=1)

    def _build_retriever(self, bundle: ArtifactBundle,
                         concepts) -> CandidateRetriever:
        """Embed ``concepts`` through ``bundle`` into a fresh retriever."""
        engine = bundle.engine
        return CandidateRetriever(
            bundle.pipeline.concept_embedding_matrix, concepts,
            engine=engine, epoch=engine.structural_epoch)

    def _retrieved_candidates(self, queries: list, top_k: int) -> dict:
        """Resolve seed queries to retrieved candidate maps.

        Each seed is a *new item to place*: the index retrieves its
        top-``top_k`` nearest taxonomy nodes, and the returned map keys
        those nodes to the seeds they might parent — so the expansion
        scores ``top_k`` pairs per seed instead of pairing every seed
        with every taxonomy node (the O(n·pairs) enumeration the index
        exists to kill).
        """
        retriever = self._get_retriever()
        resolved: dict = {}
        for query in dict.fromkeys(queries):
            for concept, _score in retriever.neighbors(query, top_k):
                resolved.setdefault(concept, []).append(query)
        return resolved

    def _propagate_attachments(self, edges: list) -> None:
        """Push freshly attached edges into every compiled engine.

        Runs under the taxonomy lock (ingest-worker callback and
        synchronous expand both hold it), so delta order equals apply
        order equals journal order.  The in-process engine recomputes
        its dirty k-hop frontier, a sharded pool broadcasts the delta to
        every worker, and the score cache evicts only the pairs whose
        structural features actually moved.  Failures degrade loudly
        (warnings + stale-but-consistent features) rather than failing
        the taxonomy mutation, which has already committed.
        """
        # holds: self._taxonomy_lock
        edges = [(str(parent), str(child)) for parent, child in edges]
        if not edges:
            return
        self._attached_edges.extend(edges)
        dirty: set[str] = set()
        engine = self.bundle.engine
        try:
            dirty.update(engine.apply_attachments(edges)["dirty_concepts"])
        except Exception as error:
            warnings.warn(
                f"structural delta failed on the in-process engine: "
                f"{error!r}", stacklevel=2)
        if self.pool is not None:
            try:
                results = self.pool.broadcast_attachments(edges)
                failed = [r for r in results if not r.get("ok")]
                if failed:
                    warnings.warn(
                        f"structural delta failed on {len(failed)} pool "
                        f"worker(s): {failed} (respawn replays the "
                        f"delta log)", stacklevel=2)
                for result in results:
                    dirty.update(result.get("dirty_concepts", ()))
            except Exception as error:
                warnings.warn(
                    f"structural delta broadcast failed: {error!r}",
                    stacklevel=2)
        if not dirty:
            # No engine reported a frontier (a delta failure, or a model
            # without a structural graph): fall back to evicting the
            # endpoints themselves.
            dirty = {concept for edge in edges for concept in edge}
        self.scorer.invalidate_pairs_touching(dirty)
        retriever = self._retriever
        if retriever is not None:
            # Epoch-fenced freshness: just-attached concepts become
            # retrievable without a rebuild.  Degrades loudly like the
            # engine delta above — the taxonomy mutation has committed.
            try:
                retriever.extend(
                    sorted({concept for edge in edges
                            for concept in edge}),
                    epoch=engine.structural_epoch)
            except Exception as error:
                warnings.warn(
                    f"candidate-index refresh failed: {error!r} "
                    f"(retrieval may lag until the next rebuild)",
                    stacklevel=2)

    def ingest(self, records, provenance: dict | None = None,
               sync: bool = False) -> dict:
        """Queue one click-log batch; ``sync=True`` waits for the report.

        ``records`` is a raw ``[[query, item(, count)], ...]`` list or a
        validated :class:`~repro.api.IngestRequest` (which also carries
        ``provenance`` and ``sync``).
        """
        if isinstance(records, IngestRequest):
            provenance = records.provenance
            sync = bool(records.sync)
            records = [list(record) for record in records.records]
        batch = click_log_from_records(records, provenance)
        ticket = self.ingestor.submit(batch, block=False)
        if ticket is None:
            return {"accepted": False, "reason": "ingest queue full",
                    "pending_batches": self.ingestor.pending}
        if sync:
            # The ticket resolves to this batch's own report (or re-raises
            # this batch's own failure) — never another caller's outcome.
            report = ticket.wait(timeout=60.0)
            if self.journal is not None:
                # A synchronous ack promises durability: force the fsync
                # regardless of where the batching window stands.
                self.journal.flush()
            return {"accepted": True, "report": _report_to_dict(report)}
        return {"accepted": True,
                "pending_batches": self.ingestor.pending}

    # ------------------------------------------------------------------
    # durability and hot reload
    # ------------------------------------------------------------------
    def replay_journal(self, after_seq: int = -1) -> dict:
        """Rebuild incremental-expansion state from the attached journal.

        Call once on startup, *before* :meth:`start`: every journaled
        mutation is re-applied in order — ``ingest`` batches through the
        expander, ``expand`` candidate maps through the expansion
        routine, ``reload`` events by re-loading the recorded bundle
        (best-effort: a vanished directory warns and keeps the current
        model).  Scores are recomputed by the (deterministic) engine, so
        replay converges on exactly the pre-crash attachments.  Nothing
        is re-journaled during replay.

        ``after_seq`` is the snapshot hook used by :meth:`recover`: only
        records with ``seq > after_seq`` are applied, and segments fully
        covered by the snapshot are never opened.
        """
        if self.journal is None:
            raise RuntimeError("service has no journal attached")
        counts = {"ingest": 0, "expand": 0, "reload": 0, "skipped": 0}
        replayed = 0
        for record in self.journal.replay(after_seq=after_seq):
            replayed += 1
            try:
                if record.type == "ingest":
                    batch = click_log_from_records(
                        record.data.get("records", []),
                        record.data.get("provenance"))
                    with self._taxonomy_lock:
                        report = self.expander.ingest(batch)
                        if report.attached_edges:
                            self._propagate_attachments(
                                report.attached_edges)
                elif record.type == "expand":
                    self._expand_cleaned(
                        record.data.get("candidates", {}),
                        journal_write=False)
                elif record.type == "reload":
                    self._swap_bundle(record.data["directory"])
                else:
                    counts["skipped"] += 1
                    warnings.warn(
                        f"unknown journal record type {record.type!r} "
                        f"(seq={record.seq}); skipping", stacklevel=2)
                    continue
                counts[record.type] += 1
            except Exception as error:
                counts["skipped"] += 1
                warnings.warn(
                    f"journal record seq={record.seq} ({record.type}) "
                    f"failed to replay: {error!r}; continuing",
                    stacklevel=2)
        counts["taxonomy_edges"] = self.expander.taxonomy.num_edges
        self._replay_tail_records = replayed
        return counts

    def snapshot(self, *, compact: bool = True) -> dict:
        """Capture the full live state and compact history behind it.

        The capture runs under the reload lock then the taxonomy lock
        (the same order every other writer uses), so the recorded state
        and its covering journal sequence are one consistent cut.  The
        snapshot holds everything :meth:`recover` needs *without*
        re-scoring a single candidate: the live taxonomy, the expander's
        accumulated click log + dedup set, the ordered attachment log,
        the engine's structural CSR + epoch, and the serving bundle's
        directory.

        With ``compact=True`` (the default) the write is followed by
        journal segment compaction up to the covered sequence and, when
        a pool is attached, a delta-log fold
        (:meth:`ShardedScorerPool.compact_deltas
        <repro.serving.ShardedScorerPool.compact_deltas>`) that
        republishes the post-snapshot shared-memory generation so
        respawned workers replay only the post-snapshot tail.
        """
        if self.snapshots is None:
            raise RuntimeError("service has no snapshot store attached")
        with self._snapshot_lock:
            with self._reload_lock:
                seq, state = self._capture_state()
            info = self.snapshots.write(seq, state)
            self._snapshots_taken += 1
            self._last_snapshot_seq = seq
            self._last_snapshot_bytes = info.nbytes
            self._last_snapshot_at = time.monotonic()
            compacted: list[str] = []
            if compact and self.journal is not None:
                compacted = self.journal.compact(seq)["removed"]
            pool_outcome = None
            if compact and self.pool is not None:
                pool_outcome = self.pool.compact_deltas(self.bundle.engine)
            return {
                "snapshot": os.path.basename(info.path),
                "seq": seq,
                "bytes": info.nbytes,
                "compacted_segments": len(compacted),
                "pool": pool_outcome,
            }

    def recover(self) -> dict:
        """Snapshot-aware startup recovery.

        Call once *before* :meth:`start`: loads the latest valid
        snapshot (corrupt or torn snapshots are skipped with a warning,
        falling back to older ones), restores the captured state
        directly — no candidate is re-scored — and then replays only the
        journal records past the snapshot's covered sequence.

        Fails loudly (``RuntimeError``) when the surviving journal tail
        does not reach back to the snapshot being restored — e.g. the
        newest snapshot was corrupted *and* compaction already deleted
        the segments the older snapshot would need.  That gap is real
        data loss and must not be papered over silently.
        """
        summary: dict = {"snapshot": None, "snapshot_seq": -1,
                         "restored_edges": 0}
        after_seq = -1
        if self.snapshots is not None:
            loaded = self.snapshots.load_latest()
            if loaded is not None:
                state, info = loaded
                summary["restored_edges"] = self._restore_state(state)
                after_seq = info.seq
                summary["snapshot"] = os.path.basename(info.path)
                summary["snapshot_seq"] = info.seq
                self._recovered_snapshot = summary["snapshot"]
                with self._snapshot_lock:
                    self._last_snapshot_seq = info.seq
                    self._last_snapshot_bytes = info.nbytes
                    self._last_snapshot_at = time.monotonic()
        if self.journal is not None:
            compacted_through = self.journal.compacted_through
            if compacted_through > after_seq:
                raise RuntimeError(
                    f"journal records through seq {compacted_through} "
                    f"were compacted away but the newest loadable "
                    f"snapshot covers only seq {after_seq}; the tail in "
                    f"between is lost — restore a snapshot or journal "
                    f"backup before serving")
            first = self.journal.first_seq_on_disk()
            if first is not None and first > after_seq + 1:
                raise RuntimeError(
                    f"journal tail starts at seq {first} but the newest "
                    f"loadable snapshot covers only seq {after_seq}; "
                    f"records {after_seq + 1}..{first - 1} are missing — "
                    f"restore a snapshot or journal backup before "
                    f"serving")
            summary.update(self.replay_journal(after_seq=after_seq))
        return summary

    def maybe_snapshot(self) -> dict | None:
        """Take a snapshot if any scheduling threshold has tripped.

        Cheap when nothing is due (integer compares); returns the
        :meth:`snapshot` summary when one ran, else ``None``.  A
        snapshot failure is counted and warned about, never raised —
        the scheduler must not take serving down.
        """
        if self.snapshots is None:
            return None
        config = self.config
        due = False
        if self.journal is not None:
            if config.snapshot_every_records:
                pending = (self.journal.next_seq - 1
                           - self._last_snapshot_seq)
                due = pending >= config.snapshot_every_records
            if not due and config.snapshot_every_bytes:
                due = (self.journal.size_bytes()
                       >= config.snapshot_every_bytes)
        if not due and config.snapshot_interval_seconds:
            last = self._last_snapshot_at
            reference = last if last is not None else self._started_at
            due = (time.monotonic() - reference
                   >= config.snapshot_interval_seconds)
        if not due:
            return None
        try:
            return self.snapshot()
        except Exception as error:
            with self._snapshot_lock:
                self._snapshot_failures += 1
            warnings.warn(f"scheduled snapshot failed: {error!r}",
                          stacklevel=2)
            return None

    def _snapshot_loop(self) -> None:
        """Scheduler thread body: poll :meth:`maybe_snapshot` until
        :meth:`stop`."""
        while not self._snapshot_stop.wait(0.2):
            self.maybe_snapshot()

    def _capture_state(self) -> tuple[int, dict]:
        """One consistent ``(covered_seq, state)`` cut.

        Caller holds the reload lock; the taxonomy lock is taken here.
        Every journal writer appends under one of those two locks, so
        ``journal.next_seq - 1`` is exactly the last sequence the
        captured state includes.
        """
        engine = self.bundle.engine
        with self._taxonomy_lock:
            seq = (self.journal.next_seq - 1
                   if self.journal is not None else -1)
            state = {
                "bundle_directory": self.bundle.directory,
                "taxonomy": taxonomy_to_dict(self.expander.taxonomy),
                "expander": self.expander.export_state(),
                "attached_edges": [list(edge)
                                   for edge in self._attached_edges],
                "engine": engine.structural_csr(),
            }
        return seq, state

    def _restore_state(self, state: dict) -> int:
        """Apply one captured state dict; returns attachments restored.

        The restore path is what makes snapshot recovery fast: the
        taxonomy and expander accumulation come back verbatim (zero
        re-scoring), and the attachment log is applied to the engine as
        a single idempotent batch — which converges bit-for-bit with the
        original batch sequence.  The recorded structural epoch is then
        pinned (one batch would otherwise leave the fence lower than the
        uninterrupted run's) and the recorded CSR is verified against
        the rebuilt graph, failing loudly on any mismatch.
        """
        directory = state.get("bundle_directory")
        if directory and directory != self.bundle.directory:
            try:
                self._swap_bundle(directory)
            except Exception as error:
                warnings.warn(
                    f"snapshot-recorded bundle {directory!r} failed to "
                    f"load: {error!r}; recovering onto the current "
                    f"bundle", stacklevel=2)
        taxonomy = taxonomy_from_dict(state["taxonomy"])
        edges = [(str(parent), str(child))
                 for parent, child in state.get("attached_edges", [])]
        with self._taxonomy_lock:
            self.expander.taxonomy = taxonomy
            self.expander.restore_state(state.get("expander") or {})
            self._attached_edges = []
            if edges:
                self._propagate_attachments(edges)
            engine = self.bundle.engine
            recorded = state.get("engine")
            if recorded:
                engine.restore_structural_epoch(
                    int(recorded.get("epoch", 0)))
                self._verify_restored_graph(engine, recorded)
        return len(edges)

    @staticmethod
    def _verify_restored_graph(engine, recorded: dict) -> None:
        """Exact-parity check: rebuilt engine graph vs the recorded CSR.

        A CRC-valid snapshot whose replay diverges means the serving
        bundle does not match the one the snapshot was taken against
        (or a determinism bug) — serving silently-wrong structural
        scores is worse than refusing to start.
        """
        live = engine.structural_csr()
        if live is None:
            return
        for key in ("names", "indptr", "cols", "degrees"):
            if list(live[key]) != list(recorded.get(key, [])):
                raise RuntimeError(
                    f"snapshot restore parity failure: engine graph "
                    f"{key!r} diverges from the recorded CSR — the "
                    f"snapshot does not match this bundle")

    def reload(self, directory: str | None = None, *,
               wait: bool = True) -> dict:
        """Hot-swap a new artifact bundle with zero dropped requests.

        Loads the bundle at ``directory`` (default: the directory the
        current bundle came from, so operators can refresh it in place),
        smoke-tests it on probe pairs sampled from its taxonomy, rolls
        it out to every pool worker (where the reload message queues
        behind in-flight scoring), then atomically swaps the scorer
        backend and clears the score cache.  The outgoing engine keeps
        serving batches that already hold it and is drained before the
        call returns.  The live taxonomy and accumulated ingest state
        are *preserved* — a reload updates the model, not the data.

        Reloads are serialised; with ``wait=False`` a reload that is
        already in flight raises :func:`~repro.api.errors.not_ready`
        (HTTP 503) instead of queueing behind it — the synchronous
        ``/v1/admin/reload`` route uses this so callers can tell
        "busy swapping" apart from a failed swap.

        Raises if the new bundle fails to load or its smoke test fails;
        the old bundle keeps serving in that case (pool workers that
        already swapped are rolled back to the previous directory, so
        shards never serve mixed models).
        """
        directory = directory or self.bundle.directory
        if not directory:
            raise ValueError("no bundle directory to reload from")
        if not self._reload_lock.acquire(blocking=wait):
            raise api_errors.not_ready(
                "a reload is already in flight; retry shortly",
                retry_after=2.0)
        try:
            outcome = self._swap_bundle(directory)
            if self.journal is not None:
                self.journal.append("reload", {"directory": directory})
                self.journal.flush()
            # holds: self._reload_lock (explicit acquire above)
            self._reloads += 1
        finally:
            self._reload_lock.release()
        return outcome

    def _swap_bundle(self, directory: str) -> dict:
        """Load + smoke-test + swap one bundle (no journaling here)."""
        new_bundle = ArtifactBundle.load(directory)
        # A freshly loaded bundle starts from on-disk structural state;
        # re-apply the live attachment log so the incoming engine serves
        # the same grown graph the outgoing one did (the pool does the
        # same for its workers inside pool.reload).  Must happen before
        # the smoke test / pool parity check so both sides agree.
        with self._taxonomy_lock:
            seeded = len(self._attached_edges)
            attachments = list(dict.fromkeys(self._attached_edges))
        new_engine = new_bundle.engine
        if attachments:
            new_engine.apply_attachments(attachments)
        probes = self._probe_pairs(new_bundle)
        probs = np.asarray(new_bundle.score_pairs(probes))
        if probes and not (np.all(np.isfinite(probs))
                           and np.all((probs >= 0.0) & (probs <= 1.0))):
            raise RuntimeError(
                f"reload smoke test failed: non-probability scores from "
                f"{directory!r}")
        workers = 0
        if self.pool is not None:
            previous_dir = self.pool.bundle_dir
            results = self.pool.reload(directory)
            failed = [r for r in results if not r["ok"]]
            if failed:
                # Workers that did swap must not keep the new model while
                # the rest serve the old one (mixed-model shards would
                # break the parity contract) — roll everyone back.
                self.pool.reload(previous_dir)
                raise RuntimeError(
                    f"pool reload failed on {len(failed)} worker(s), "
                    f"rolled back to {previous_dir!r}: {failed}")
            workers = len(results)
            if probes:
                pooled = np.asarray(self.pool.score_pairs(probes))
                tolerance = new_engine.score_tolerance
                delta = float(np.max(np.abs(pooled - probs)))
                if delta > tolerance:
                    self.pool.reload(previous_dir)
                    raise RuntimeError(
                        f"reload parity check failed: pool vs "
                        f"single-process max delta {delta:.2e} exceeds "
                        f"{tolerance:.0e}; rolled back to "
                        f"{previous_dir!r}")
        old_bundle = self.bundle
        backend = (self.pool.score_pairs if self.pool is not None
                   else new_bundle.pipeline.score_pairs)
        # Rebuild the candidate index against the incoming model's
        # embedding space (only if one was ever built — retrieval stays
        # lazy), and capture the hottest cached pairs before the swap
        # clears them: they are replayed through the new engine below.
        warm_pairs = self.scorer.recent_pairs(self.config.reload_warm_pairs)
        new_retriever = None
        if self._retriever is not None:
            with self._taxonomy_lock:
                snapshot = sorted(self.expander.taxonomy.nodes)
            new_retriever = self._build_retriever(new_bundle, snapshot)
        # The swap happens under the taxonomy lock so it cannot
        # interleave with _propagate_attachments: deltas committed
        # during the load/smoke-test window (they went to the *old*
        # engine) are re-applied here as the tail beyond the seed
        # snapshot, and deltas after the lock releases route to the new
        # bundle.  apply_attachments is idempotent, so overlap is safe.
        with self._retriever_lock, self._taxonomy_lock:
            # retriever lock taken first, matching _get_retriever's
            # order, so the swap cannot deadlock with a lazy build
            tail = self._attached_edges[seeded:]
            if tail:
                new_engine.apply_attachments(tail)
            self.scorer.swap_scorer(backend, clear_cache=True)
            self.bundle = new_bundle
            if new_retriever is not None:
                # Atomic alongside the scorer: suggest never mixes old
                # embeddings with new probabilities.  Top up nodes
                # attached during the build window (idempotent).
                new_retriever.extend(
                    sorted(self.expander.taxonomy.nodes))
                self._retriever = new_retriever
                self._index_rebuilds += 1
        drained = old_bundle.engine.drain(timeout=30.0)
        if warm_pairs:
            # Cache warming: the pairs hot before the swap are exactly
            # the ones the next requests will ask for — re-score them
            # through the new engine so post-reload traffic starts on a
            # warm cache instead of a latency cliff.
            self.scorer.score_pairs(warm_pairs)
            self._cache_warmed_pairs += len(warm_pairs)
        return {
            "reloaded": True,
            "directory": directory,
            "probe_pairs": len(probes),
            "pool_workers": workers,
            "old_engine_drained": drained,
            "cache_warmed_pairs": len(warm_pairs),
        }

    def _probe_pairs(self, bundle: ArtifactBundle) -> list:
        """Smoke-test pairs: a deterministic sample of taxonomy edges."""
        edges = sorted(bundle.taxonomy.edges())
        return [tuple(edge)
                for edge in edges[:self.config.reload_probe_pairs]]

    def taxonomy_state(self, include_edges: bool = True) -> dict:
        """The live taxonomy plus accumulated-traffic statistics."""
        with self._taxonomy_lock:
            taxonomy = self.expander.taxonomy
            payload = taxonomy_to_dict(taxonomy) if include_edges else {}
            accumulated = self.expander.accumulated_log
            stats = {
                "nodes": taxonomy.num_nodes,
                "edges": taxonomy.num_edges,
                "depth": taxonomy.depth(),
                "ingested_batches": self.expander.num_batches,
                "accumulated_click_records": accumulated.num_records,
                "accumulated_click_pairs": accumulated.num_pairs,
                "accumulated_queries": len(accumulated.queries()),
            }
        payload["stats"] = stats
        # Bounded recent-history window, not the full ingestion log —
        # exact totals live in stats (memory stays flat under load).
        payload["reports"] = [_report_to_dict(r)
                              for r in self.ingestor.reports]
        return payload

    def health(self) -> dict:
        """Liveness snapshot for ``/healthz``."""
        errors = self.ingestor.errors
        workers = {"ingestor": self.ingestor.running}
        if self.pool is not None:
            workers["pool"] = self.pool.running
            workers["pool_stats"] = self.pool.stats_snapshot().as_dict()
            workers["blas_threads"] = self.pool.blas_thread_counts()
        payload = {
            "status": "degraded" if errors else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "reloads": self._reloads,
            "workers": workers,
            "ingest": {
                "pending_batches": self.ingestor.pending,
                "processed_batches": self.ingestor.processed,
                "failed_batches": self.ingestor.failed,
                "recent_errors": [repr(e) for e in errors],
            },
            "scorer": self.scorer.stats_snapshot().as_dict(),
            "jobs": self.jobs.counts(),
            "taxonomy_edges": self.expander.taxonomy.num_edges,
        }
        if self.journal is not None:
            payload["journal"] = self.journal.stats_snapshot().as_dict()
        if self.snapshots is not None:
            last_at = self._last_snapshot_at
            payload["snapshots"] = {
                "taken": self._snapshots_taken,
                "failures": self._snapshot_failures,
                "last_seq": self._last_snapshot_seq,
                "last_bytes": self._last_snapshot_bytes,
                "age_seconds": (round(time.monotonic() - last_at, 3)
                                if last_at is not None else None),
                "recovered_from": self._recovered_snapshot,
                "replay_tail_records": self._replay_tail_records,
                "store": self.snapshots.stats.as_dict(),
            }
        retriever = self._retriever
        if retriever is not None:
            stats = retriever.stats()
            stats["suggest_requests"] = self._suggest_requests
            stats["index_rebuilds"] = self._index_rebuilds
            payload["retrieval"] = stats
        return payload

    def metrics_text(self) -> str:
        """Prometheus text-format exposition for ``/metrics``.

        Covers scorer traffic (an atomic :class:`ScorerStats` snapshot),
        ingest queue depth and totals, live-taxonomy gauges, hot-reload
        and journal activity, per-worker pool counters when a
        :class:`~repro.serving.ShardedScorerPool` backs scoring, and the
        inference engine's dtype/batch counters.
        """
        scorer = self.scorer.stats_snapshot()
        lines: list[str] = []

        def metric(name: str, kind: str, help_text: str, value,
                   labels: str = "") -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name}{labels} {value}")

        metric("repro_uptime_seconds", "gauge",
               "Seconds since the service was constructed.",
               round(time.monotonic() - self._started_at, 3))
        metric("repro_scorer_requests_total", "counter",
               "score_pairs requests received.", scorer.requests)
        metric("repro_scorer_pairs_requested_total", "counter",
               "Pairs requested across all requests.",
               scorer.pairs_requested)
        metric("repro_scorer_cache_hits_total", "counter",
               "Pairs served from the LRU score cache.", scorer.cache_hits)
        metric("repro_scorer_pairs_scored_total", "counter",
               "Pairs sent to the underlying model.", scorer.pairs_scored)
        metric("repro_scorer_model_calls_total", "counter",
               "Underlying model invocations.", scorer.model_calls)
        metric("repro_scorer_batches_total", "counter",
               "Micro-batches executed.", scorer.batches)
        metric("repro_scorer_coalesced_requests_total", "counter",
               "Requests coalesced into shared batches.",
               scorer.coalesced_requests)
        metric("repro_scorer_cache_entries", "gauge",
               "Pair scores currently cached.", self.scorer.cache_len())
        metric("repro_reloads_total", "counter",
               "Successful artifact-bundle hot reloads.", self._reloads)
        metric("repro_cache_warmed_pairs_total", "counter",
               "Recently-hot pairs re-scored through the new engine "
               "after hot reloads.", self._cache_warmed_pairs)
        metric("repro_suggest_requests_total", "counter",
               "Suggest (retrieve-then-rank) requests served.",
               self._suggest_requests)
        retriever = self._retriever
        if retriever is not None:
            retrieval = retriever.stats()
            mode_label = f'{{mode="{retrieval["mode"]}"}}'
            metric("repro_retrieval_index_size", "gauge",
                   "Concepts in the candidate-retrieval index.",
                   retrieval["size"], mode_label)
            metric("repro_retrieval_index_rebuilds_total", "counter",
                   "Full candidate-index (re)builds (lazy build + hot "
                   "reloads).", self._index_rebuilds)
            metric("repro_retrieval_publish_failures_total", "counter",
                   "Failed best-effort publishes of the index slab "
                   "into shared memory.",
                   self._retrieval_publish_failures)
            metric("repro_retrieval_searches_total", "counter",
                   "Index search calls (suggest + retrieval-backed "
                   "expand).", retrieval["searches"])
            metric("repro_retrieval_partition_probes_total", "counter",
                   "Partition cells visited by partitioned searches.",
                   retrieval["partition_probes"])
            metric("repro_retrieval_exact_fallbacks_total", "counter",
                   "Searches served exact because partitions were "
                   "unavailable or below the recall floor.",
                   retrieval["exact_fallbacks"])
            metric("repro_retrieval_synced_epoch", "gauge",
                   "Engine structural epoch the index last synced at "
                   "(lag vs repro_engine_structural_epoch = staleness).",
                   retrieval["synced_epoch"])
        jobs = self.jobs.counts()
        metric("repro_jobs_submitted_total", "counter",
               "Async jobs accepted via /v1/jobs/...", jobs["submitted"])
        metric("repro_jobs_succeeded_total", "counter",
               "Async jobs that finished successfully.",
               jobs["succeeded"])
        metric("repro_jobs_failed_total", "counter",
               "Async jobs that finished with an error.", jobs["failed"])
        metric("repro_jobs_rejected_total", "counter",
               "Async job submissions rejected with backpressure.",
               jobs["rejected"])
        metric("repro_jobs_listener_failures_total", "counter",
               "Job-completion listener callbacks that raised.",
               jobs["listener_failures"])
        metric("repro_jobs_pending", "gauge",
               "Async jobs queued or running right now.",
               jobs["pending"] + jobs["running"])
        metric("repro_jobs_retained", "gauge",
               "Job snapshots retained for polling.", jobs["retained"])
        metric("repro_ingest_queue_depth", "gauge",
               "Submitted click-log batches not yet processed.",
               self.ingestor.pending)
        metric("repro_ingest_processed_batches_total", "counter",
               "Click-log batches successfully ingested.",
               self.ingestor.processed)
        metric("repro_ingest_failed_batches_total", "counter",
               "Click-log batches whose ingestion raised.",
               self.ingestor.failed)
        with self._taxonomy_lock:
            taxonomy = self.expander.taxonomy
            nodes, edges = taxonomy.num_nodes, taxonomy.num_edges
        metric("repro_taxonomy_nodes", "gauge",
               "Nodes in the live taxonomy.", nodes)
        metric("repro_taxonomy_edges", "gauge",
               "Edges in the live taxonomy.", edges)

        if self.journal is not None:
            journal = self.journal.stats_snapshot()
            metric("repro_journal_appended_total", "counter",
                   "Records appended to the ingest journal.",
                   journal.appended)
            metric("repro_journal_fsyncs_total", "counter",
                   "fsync calls issued by the ingest journal.",
                   journal.fsyncs)
            metric("repro_journal_rotations_total", "counter",
                   "Journal segment rotations.", journal.rotations)
            metric("repro_journal_corrupt_records_total", "counter",
                   "Corrupt records met during journal recovery/replay.",
                   journal.corrupt_records)
            metric("repro_journal_segments", "gauge",
                   "Journal segment files on disk.",
                   len(self.journal.segments()))
            metric("repro_journal_compacted_segments_total", "counter",
                   "Journal segments deleted or archived because a "
                   "snapshot covers them.", journal.compacted_segments)
            metric("repro_journal_skipped_segments_total", "counter",
                   "Segments skipped unopened by snapshot-aware replay.",
                   journal.skipped_segments)

        if self.snapshots is not None:
            last_at = self._last_snapshot_at
            store = self.snapshots.stats
            metric("repro_snapshots_total", "counter",
                   "Snapshots written by this service instance.",
                   self._snapshots_taken)
            metric("repro_snapshot_failures_total", "counter",
                   "Scheduled snapshots that raised.",
                   self._snapshot_failures)
            metric("repro_snapshot_seq", "gauge",
                   "Journal sequence covered by the latest snapshot "
                   "(-1: none).", self._last_snapshot_seq)
            metric("repro_snapshot_bytes", "gauge",
                   "Encoded size of the latest snapshot.",
                   self._last_snapshot_bytes)
            metric("repro_snapshot_age_seconds", "gauge",
                   "Seconds since the latest snapshot (-1: none yet).",
                   (round(time.monotonic() - last_at, 3)
                    if last_at is not None else -1))
            metric("repro_snapshot_corrupt_skipped_total", "counter",
                   "Snapshots skipped as unusable during recovery.",
                   store.corrupt_skipped)
            metric("repro_recovery_replay_tail_records", "gauge",
                   "Journal records replayed after the snapshot at the "
                   "last recovery.", self._replay_tail_records)

        if self.pool is not None:
            pool = self.pool.stats_snapshot()
            metric("repro_pool_requests_total", "counter",
                   "Requests fanned out across the scorer pool.",
                   pool.requests)
            metric("repro_pool_pairs_scored_total", "counter",
                   "Pairs scored through the pool.", pool.pairs_scored)
            metric("repro_pool_shard_messages_total", "counter",
                   "Shard messages dispatched to workers.",
                   pool.shard_messages)
            metric("repro_pool_worker_deaths_total", "counter",
                   "Worker processes that died unexpectedly.",
                   pool.worker_deaths)
            metric("repro_pool_worker_restarts_total", "counter",
                   "Worker processes respawned after a death.",
                   pool.worker_restarts)
            metric("repro_pool_watchdog_restarts_total", "counter",
                   "Respawns initiated proactively by the pool watchdog.",
                   pool.watchdog_restarts)
            metric("repro_pool_watchdog_respawn_failures_total", "counter",
                   "Watchdog respawn attempts that raised (retried on "
                   "the next sweep).",
                   pool.watchdog_respawn_failures)
            metric("repro_pool_delta_broadcasts_total", "counter",
                   "Structural attachment deltas broadcast to workers.",
                   pool.delta_broadcasts)
            metric("repro_pool_delta_compactions_total", "counter",
                   "Snapshot-driven delta-log folds.",
                   pool.delta_compactions)
            metric("repro_pool_delta_replays_total", "counter",
                   "Backlog replays into (re)spawned workers.",
                   pool.delta_replays)
            metric("repro_pool_delta_replayed_edges_total", "counter",
                   "Attachment edges queued across backlog replays.",
                   pool.delta_replayed_edges)
            backlog = self.pool.delta_backlog_stats()
            metric("repro_pool_delta_baseline_edges", "gauge",
                   "Folded baseline edges (skipped by respawns that "
                   "attach the covering shm generation).",
                   backlog["baseline_edges"])
            metric("repro_pool_delta_tail_edges", "gauge",
                   "Post-compaction delta-tail edges a respawned "
                   "worker replays.", backlog["tail_edges"])
            lines.append("# HELP repro_pool_worker_pairs_total Pairs "
                         "routed to one worker (shard balance).")
            lines.append("# TYPE repro_pool_worker_pairs_total counter")
            for index, pairs in sorted(pool.worker_pairs.items()):
                lines.append(
                    f'repro_pool_worker_pairs_total{{worker="{index}"}} '
                    f"{pairs}")
            shm = self.pool.shared_memory_stats()
            metric("repro_shm_segments", "gauge",
                   "Live shared-memory segments published by the pool.",
                   shm["segments"])
            metric("repro_shm_segment_bytes", "gauge",
                   "Total bytes of live shared-memory segments (the one "
                   "weight copy all workers map).", shm["bytes"])
            metric("repro_shm_generation", "gauge",
                   "Current shared-segment generation (bumps per hot "
                   "reload).", shm["generation"])
            metric("repro_pool_shared_workers", "gauge",
                   "Workers currently serving zero-copy shared views.",
                   shm["attached_workers"])
            metric("repro_pool_attach_failures_total", "counter",
                   "Workers that fell back to a private bundle load.",
                   shm["attach_failures"])
            metric("repro_pool_shm_publish_failures_total", "counter",
                   "Parent-side shared-segment publish failures.",
                   shm["publish_failures"])
            respawn = self.pool.respawn_stats()
            lines.append("# HELP repro_pool_respawn_seconds Worker "
                         "spawn-to-ready latency.")
            lines.append("# TYPE repro_pool_respawn_seconds histogram")
            buckets = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
            samples = respawn["samples"]
            for bound in buckets:
                count = sum(1 for value in samples if value <= bound)
                lines.append(
                    f'repro_pool_respawn_seconds_bucket{{le="{bound}"}} '
                    f"{count}")
            lines.append(
                f'repro_pool_respawn_seconds_bucket{{le="+Inf"}} '
                f"{len(samples)}")
            lines.append(
                f"repro_pool_respawn_seconds_sum "
                f"{respawn['total_seconds']}")
            lines.append(
                f"repro_pool_respawn_seconds_count {respawn['count']}")

        stats = self.bundle.engine.stats_snapshot()
        label = f'{{dtype="{stats.dtype}"}}'
        metric("repro_engine_info", "gauge",
               "Compiled inference engine presence (dtype label).",
               1, label)
        metric("repro_engine_batches_total", "counter",
               "Engine scoring batches executed.", stats.batches, label)
        metric("repro_engine_pairs_scored_total", "counter",
               "Pairs scored by the inference engine.",
               stats.pairs_scored, label)
        metric("repro_engine_sequences_encoded_total", "counter",
               "Template sequences encoded by the compiled BERT.",
               stats.sequences_encoded, label)
        metric("repro_engine_concept_cache_hits_total", "counter",
               "Single-concept embeddings served from the engine "
               "cache.", stats.concept_cache_hits, label)
        metric("repro_engine_structural_epoch", "gauge",
               "Incremental-recompute fence (bumped per applied "
               "structural delta).", stats.structural_epoch, label)
        metric("repro_engine_structural_nodes", "gauge",
               "Nodes in the engine's live structural graph.",
               stats.structural_nodes, label)
        metric("repro_engine_recompute_batches_total", "counter",
               "Dirty-frontier recompute passes executed.",
               stats.recompute_batches, label)
        metric("repro_engine_rows_recomputed_total", "counter",
               "Node-embedding rows refreshed by frontier "
               "recomputes (rows x hops).", stats.rows_recomputed,
               label)
        metric("repro_engine_norms_epoch", "gauge",
               "Structural epoch a retrieval index last cached row "
               "norms at (-1: never).", stats.norms_epoch, label)
        return "\n".join(lines) + "\n"

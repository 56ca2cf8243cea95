"""Sharded multi-process scoring: one compiled engine per worker.

A single-process service serialises every score behind the shared
:class:`~repro.infer.InferenceEngine` workspace lock, so one busy client
starves the rest and extra cores sit idle.  :class:`ShardedScorerPool`
removes that bottleneck: it forks ``num_workers`` OS processes, each of
which **loads the artifact bundle itself** and compiles its *own*
engine (weights and scratch buffers are per-process — no shared state,
no lock contention, no GIL), then hash-partitions each request's
(parent, child) pairs across workers over :mod:`multiprocessing` pipes
and merges the shard results back into request order.

Design notes:

* **stable sharding** — a pair's worker is ``crc32(parent\\0child) %
  num_workers`` (:meth:`ShardedScorerPool.shard`), so a given pair
  always lands on the same worker and that worker's token/concept
  caches stay hot for it.
* **per-worker protocol** — each worker owns one duplex pipe and
  processes messages strictly in order; a dedicated parent-side reader
  thread resolves in-flight futures, so many service threads can score
  concurrently while each pipe still sees a single writer at a time.
* **failure containment** — a worker that dies (OOM-killed, segfault)
  fails only its in-flight shards; the pool respawns it on the next
  request for its shard and counts the event in ``worker_deaths`` /
  ``worker_restarts`` (exported at ``/metrics``).
* **hot reload** — :meth:`reload` sends every worker a reload message
  that queues behind in-flight scoring, so the old engine drains
  naturally and no request is ever dropped mid-swap.
* **structural deltas** — :meth:`broadcast_attachments` fans freshly
  attached taxonomy edges out to every worker, whose engine recomputes
  only the affected k-hop frontier
  (:meth:`~repro.infer.InferenceEngine.apply_attachments`).  The pool
  keeps the cumulative delta log and replays it to respawned or
  reloaded workers, so every shard serves the same live graph without a
  bundle re-export.
* **proactive supervision** — a watchdog thread (``watchdog_interval``)
  respawns dead workers in the background instead of waiting for the
  next request to their shard, so a crashed worker's shard is usually
  healthy again before traffic notices.
* **BLAS thread budget** — OpenBLAS sizes its thread pool to every
  core, so N workers would run N x cores GEMM threads and oversubscribe
  the CPU.  Each worker gets ``max(1, usable_cores // num_workers)``
  threads (:mod:`repro.serving.blas`): a worker lowers its count to the
  budget at start — never raising one the operator lowered with
  ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, and without keeping
  the idle, spinning BLAS threads that lowering starts — and reports
  the count back in its ready handshake.  The parent's count is left
  alone.
* **inherited pages stay shared** — a forked worker shares the parent's
  memory copy-on-write, and a collection writes into the header of
  every object it scans, so one full collection in the parent would
  turn every page holding an inherited object into a private copy,
  megabytes of them.  Under the fork start method :meth:`_spawn` calls
  :func:`gc.freeze` right before each fork, which takes every object
  alive at that moment out of the collector's view (CPython's
  recommendation for fork servers).  The cost: cyclic garbage among
  those objects is never reclaimed.
* **zero-copy shared weights** — by default (``share_memory=True``)
  the parent publishes every read-only engine array into
  :class:`~repro.serving.shm.SharedArtifactStore` segments once;
  workers attach the segments and build view-backed
  engines (:class:`~repro.serving.artifacts.SharedBundleView`) instead
  of loading + compiling privately.  Memory stays O(1) in worker count,
  respawn skips the bundle load entirely, and hot reload becomes a
  two-phase segment swap (publish generation g+1, roll workers, retire
  g).  Attach failure falls back to the private-copy path per worker
  (``attach_failures`` counter) — scores are bit-identical either way
  because attached views hold exactly the arrays a private compile
  produces.

Scores agree with the in-process engine within the documented float32
tolerance (``repro.nn.SCORE_TOLERANCE``): sharding changes batch
composition, which perturbs float32 GEMM reduction order below 1e-4 but
never rankings.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .blas import limit_blas_threads, usable_cores

__all__ = ["PoolStats", "ShardedScorerPool"]

Pair = tuple[str, str]

#: seconds a freshly spawned worker gets to load + compile its bundle
READY_TIMEOUT = 120.0

#: bound on the retained respawn-duration samples (histogram source)
_RESPAWN_SAMPLE_LIMIT = 512


@dataclass
class PoolStats:
    """Parent-side counters describing pool traffic since construction."""

    requests: int = 0
    pairs_scored: int = 0
    shard_messages: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    watchdog_restarts: int = 0
    #: watchdog respawn attempts that themselves raised (retried on the
    #: next sweep)
    watchdog_respawn_failures: int = 0
    reloads: int = 0
    delta_broadcasts: int = 0
    #: workers that fell back to a private bundle load because attaching
    #: the shared segments failed (spawn or reload)
    attach_failures: int = 0
    #: parent-side failures to publish shared segments (pool falls back
    #: to all-private workers)
    shm_publish_failures: int = 0
    #: snapshot-driven delta-log folds (see ``compact_deltas``)
    delta_compactions: int = 0
    #: backlog replays into freshly (re)spawned workers
    delta_replays: int = 0
    #: attachment edges queued across all backlog replays
    delta_replayed_edges: int = 0
    worker_pairs: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON/metrics-friendly snapshot."""
        return {
            "requests": self.requests,
            "pairs_scored": self.pairs_scored,
            "shard_messages": self.shard_messages,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "watchdog_restarts": self.watchdog_restarts,
            "watchdog_respawn_failures": self.watchdog_respawn_failures,
            "reloads": self.reloads,
            "delta_broadcasts": self.delta_broadcasts,
            "attach_failures": self.attach_failures,
            "shm_publish_failures": self.shm_publish_failures,
            "delta_compactions": self.delta_compactions,
            "delta_replays": self.delta_replays,
            "delta_replayed_edges": self.delta_replayed_edges,
            "worker_pairs": dict(self.worker_pairs),
        }


def _load_worker_bundle(bundle_dir: str, shared_manifest: dict | None
                        ) -> tuple[object, dict]:
    """Attach the shared segments, falling back to a private load.

    Returns ``(bundle, info)`` where ``info`` reports the mode the
    worker actually ended up in (``shared`` or ``private``) plus the
    attach error, if any — the parent surfaces both through stats and
    ``/metrics``.
    """
    from .artifacts import ArtifactBundle, SharedBundleView
    info = {"mode": "private", "attach_error": None}
    if shared_manifest is not None:
        try:
            bundle = SharedBundleView.attach(shared_manifest, bundle_dir)
            info["mode"] = "shared"
            return bundle, info
        except BaseException as error:
            info["attach_error"] = repr(error)
    return ArtifactBundle.load(bundle_dir), info


def _worker_main(conn, bundle_dir: str, shared_manifest: dict | None,
                 blas_budget: int) -> None:
    """Worker-process entry point: attach or load the bundle, serve the pipe.

    The worker first lowers its OpenBLAS threads to ``blas_budget`` and
    reports the count it reads back in the ready handshake.  With a
    ``shared_manifest`` it attaches the parent's shared-memory segments
    zero-copy (falling back to a private ``ArtifactBundle.load`` when
    attach fails); without one it loads privately as before.  Messages
    are processed strictly in order, which is what makes
    reload-behind-inflight draining work.
    Per-message failures are reported back as ``("err", req_id, repr)``;
    only a broken pipe (the parent died) exits the loop.
    """
    import signal
    # The parent coordinates shutdown over the pipe; a terminal Ctrl-C
    # must not kill workers mid-batch before the parent can drain them.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
    # Forked workers inherit the parent's chained SIGTERM unlink handler
    # (repro.serving.shm); only the owner may tear segments down, so
    # restore the default disposition for a clean terminate().
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threads = limit_blas_threads(blas_budget)

    from .artifacts import ArtifactBundle, SharedBundleView
    try:
        bundle, info = _load_worker_bundle(bundle_dir, shared_manifest)
    except BaseException as error:
        conn.send(("fatal", repr(error)))
        conn.close()
        return
    info["blas_threads"] = threads
    conn.send(("ready", os.getpid(), info))
    parent_pid = os.getppid()

    while True:
        try:
            # Poll rather than block: under the fork start method each
            # sibling inherits copies of this pipe's parent end, so a
            # SIGKILL'd parent never produces EOF here.  Watching the
            # ppid guarantees orphaned workers exit within a second.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # parent died without cleanup
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        kind, req_id = message[0], message[1]
        try:
            if kind == "score":
                pairs = [(str(q), str(i)) for q, i in message[2]]
                scores = bundle.score_pairs(pairs)
                conn.send(("ok", req_id, np.asarray(scores,
                                                    dtype=np.float64)))
            elif kind == "reload":
                directory = message[2]
                manifest = message[3] if len(message) > 3 else None
                new_bundle, outcome = _load_worker_bundle(directory,
                                                          manifest)
                outcome["directory"] = directory
                old = bundle
                bundle = new_bundle
                old.engine.drain(timeout=5.0)
                if isinstance(old, SharedBundleView):
                    old.close()
                conn.send(("ok", req_id, outcome))
            elif kind == "delta":
                # Structural attachment delta: the worker's own engine
                # merges the edges and recomputes the dirty frontier.
                conn.send(("ok", req_id,
                           bundle.engine.apply_attachments(message[2])))
            elif kind == "stats":
                conn.send(("ok", req_id,
                           bundle.engine.stats_snapshot().as_dict()))
            elif kind == "ping":
                conn.send(("ok", req_id, os.getpid()))
            elif kind == "stop":
                conn.send(("ok", req_id, None))
                conn.close()
                return
            else:
                conn.send(("err", req_id,
                           f"unknown message kind {kind!r}"))
        except BaseException as error:
            try:
                conn.send(("err", req_id, repr(error)))
            except (BrokenPipeError, OSError):
                return


class _ShardFuture:
    """Completion signal for one in-flight shard message."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None

    def resolve(self, result) -> None:
        self.result = result
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()

    def wait(self, timeout: float | None):
        if not self.event.wait(timeout):
            raise TimeoutError("scorer worker did not respond in time")
        if self.error is not None:
            raise self.error
        return self.result


class _Worker:
    """Parent-side handle: process, pipe, reader thread, in-flight map."""

    def __init__(self, index: int):
        self.index = index
        self.process: mp.process.BaseProcess | None = None
        self.conn = None
        self.reader: threading.Thread | None = None
        self.send_lock = threading.Lock()
        self.pending: dict[int, _ShardFuture] = {}
        self.pending_lock = threading.Lock()
        self.alive = False
        #: "shared" when serving attached segments, else "private"
        self.mode = "private"
        #: OpenBLAS threads read back at start (None: no OpenBLAS)
        self.blas_threads: int | None = None


class ShardedScorerPool:
    """Hash-partitioned scoring across bundle-loading worker processes.

    Implements the ``Scorer`` protocol (``score_pairs`` /  ``__call__``),
    so it drops in anywhere a detector-backed scorer does — most usefully
    as the backend of a :class:`~repro.serving.BatchingScorer` inside
    :class:`~repro.serving.TaxonomyService`.

    Parameters
    ----------
    bundle_dir:
        Artifact-bundle directory each worker loads independently.
    num_workers:
        Worker-process count (>= 1).  Throughput scales with cores until
        workers outnumber them; see ``benchmarks/bench_sharded_scoring``.
        It also sets the BLAS thread budget, ``max(1, usable cores //
        num_workers)`` per worker (``blas_budget``).
    mp_context:
        ``multiprocessing`` start method; default ``fork`` where
        available (fast startup) falling back to ``spawn``.  The pool
        must be started before the parent creates service threads when
        using ``fork``.
    request_timeout:
        Seconds to wait for one shard response before failing the
        request.
    watchdog_interval:
        Seconds between proactive liveness sweeps; the watchdog thread
        respawns dead workers in the background (``None`` or ``0``
        disables it, reverting to respawn-on-next-request only).
    share_memory:
        Publish the engine's read-only arrays into shared-memory
        segments so workers attach zero-copy instead of loading the
        bundle privately (default).  ``False`` gives every worker a
        private copy; scores are bit-identical either way.
    bundle:
        Optional parent-loaded :class:`~repro.serving.artifacts.ArtifactBundle`
        for ``bundle_dir`` — reused for the initial segment publish so
        the weights are not read from disk twice.
    """

    def __init__(self, bundle_dir: str, num_workers: int = 2,
                 mp_context: str | None = None,
                 request_timeout: float = 60.0,
                 watchdog_interval: float | None = 5.0,
                 share_memory: bool = True,
                 bundle=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.bundle_dir = bundle_dir
        self.num_workers = num_workers
        self.blas_budget = max(1, usable_cores() // num_workers)
        self.request_timeout = request_timeout
        self.watchdog_interval = watchdog_interval or None
        self._share_requested = bool(share_memory)
        self._seed_bundle = bundle
        self._store = None
        self._manifest: dict | None = None
        self._respawn_seconds: list[float] = []
        if mp_context is None:
            mp_context = ("fork" if "fork" in mp.get_all_start_methods()
                          else "spawn")
        self._ctx = mp.get_context(mp_context)
        self._workers = [_Worker(i) for i in range(num_workers)]
        self._lock = threading.Lock()  # guards spawn/stop transitions
        self._req_counter = 0  # guarded-by: self._counter_lock
        self._counter_lock = threading.Lock()
        self._stats = PoolStats(  # guarded-by: self._stats_lock
            worker_pairs={i: 0 for i in range(num_workers)})
        self._stats_lock = threading.Lock()
        self._started = False
        self._stopping = False
        # Cumulative structural-delta log: replayed to every respawned
        # or freshly reloaded worker so all shards serve the same live
        # graph (apply_attachments is idempotent, so replay is safe).
        # ``compact_deltas`` folds the log into ``_delta_baseline`` and,
        # when the folded state was republished as a new shared-memory
        # generation, records it in ``_covered_generation`` — a shared
        # worker attaching that generation already has the baseline in
        # its arrays and replays only the post-compaction tail.
        self._delta_log: list[list[Pair]] = []  # guarded-by: self._delta_lock
        self._delta_baseline: list[Pair] = []  # guarded-by: self._delta_lock
        self._covered_generation: int | None = None  # guarded-by: self._delta_lock
        self._delta_lock = threading.Lock()
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedScorerPool":
        """Spawn every worker and wait until each has compiled; idempotent.

        When sharing is enabled the read-only engine arrays are
        published into shared-memory segments first (one copy, created
        before any fork) so every worker can attach them zero-copy.
        """
        with self._lock:
            self._stopping = False
            if self._share_requested and self._manifest is None:
                self._publish_bundle(self.bundle_dir)
            for worker in self._workers:
                if not worker.alive:
                    self._spawn(worker, restart=self._started)
            self._started = True
            if self.watchdog_interval and (
                    self._watchdog is None
                    or not self._watchdog.is_alive()):
                self._watchdog_stop.clear()
                self._watchdog = threading.Thread(
                    target=self._watchdog_loop, name="repro-pool-watchdog",
                    daemon=True)
                self._watchdog.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop workers, reap processes, and unlink shared segments.

        Idempotent and signal-safe: segment teardown goes through
        :meth:`SharedArtifactStore.unlink
        <repro.serving.shm.SharedArtifactStore.unlink>`, which unlinks
        each segment exactly once whether invoked here, from ``atexit``,
        or from the chained ``SIGTERM`` handler — so the stdlib
        ``resource_tracker`` never sees a leaked (or double-freed)
        segment.
        """
        self._watchdog_stop.set()
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.join(timeout)
            self._watchdog = None
        with self._lock:
            self._stopping = True
            for worker in self._workers:
                if not worker.alive:
                    continue
                try:
                    with worker.send_lock:
                        worker.conn.send(("stop", -1))
                except (BrokenPipeError, OSError):
                    pass
            for worker in self._workers:
                process = worker.process
                if process is not None:
                    process.join(timeout)
                    if process.is_alive():
                        process.terminate()
                        process.join(5.0)
                    worker.process = None
                worker.alive = False
                if worker.conn is not None:
                    worker.conn.close()
                    worker.conn = None
            store, self._store = self._store, None
            self._manifest = None
            if store is not None:
                store.unlink()

    @property
    def running(self) -> bool:
        """True while at least one worker process is alive."""
        return any(worker.alive and worker.process is not None
                   and worker.process.is_alive()
                   for worker in self._workers)

    def __enter__(self) -> "ShardedScorerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    @staticmethod
    def shard_of(pair: Pair, num_workers: int) -> int:
        """Stable shard index for one (parent, child) pair.

        CRC-based rather than ``hash()`` so the mapping survives
        interpreter restarts (``PYTHONHASHSEED`` randomisation) and is
        identical across parent and workers.
        """
        key = f"{pair[0]}\x00{pair[1]}".encode("utf-8")
        return zlib.crc32(key) % num_workers

    def shard(self, pair: Pair) -> int:
        """This pool's worker index for ``pair``."""
        return self.shard_of(pair, self.num_workers)

    def score_pairs(self, pairs: list[Pair]) -> np.ndarray:
        """Positive-class probabilities, merged back into input order.

        Pairs are partitioned with :meth:`shard`, each shard scored by
        its worker concurrently, and any worker failure is raised here
        after all shards settle (so one request never half-completes
        silently).
        """
        pairs = [(str(parent), str(child)) for parent, child in pairs]
        if not pairs:
            return np.zeros(0)
        if not self._started:
            raise RuntimeError("pool is not started; call start() first")
        shards: dict[int, list[int]] = {}
        for row, pair in enumerate(pairs):
            shards.setdefault(self.shard(pair), []).append(row)
        futures: list[tuple[int, list[int], _ShardFuture]] = []
        for index, rows in shards.items():
            shard_pairs = [pairs[row] for row in rows]
            future = self._dispatch(index, "score", shard_pairs)
            futures.append((index, rows, future))
        out = np.empty(len(pairs), dtype=np.float64)
        first_error: BaseException | None = None
        for index, rows, future in futures:
            try:
                scores = np.asarray(future.wait(self.request_timeout),
                                    dtype=np.float64)
                out[rows] = scores
                with self._stats_lock:
                    self._stats.worker_pairs[index] = \
                        self._stats.worker_pairs.get(index, 0) + len(rows)
            except BaseException as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        with self._stats_lock:
            self._stats.requests += 1
            self._stats.pairs_scored += len(pairs)
        return out

    def __call__(self, pairs: list[Pair]) -> np.ndarray:
        """Scorer-protocol alias for :meth:`score_pairs`."""
        return self.score_pairs(pairs)

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def reload(self, bundle_dir: str,
               timeout: float | None = None) -> list[dict]:
        """Swap every worker onto a new bundle; returns per-worker results.

        With sharing enabled this is a **two-phase segment swap**: the
        parent publishes the new bundle's arrays as generation ``g+1``
        segments first, then rolls the manifest out to workers — each
        re-attaches zero-copy without re-reading the bundle from disk —
        and finally retires the generation-``g`` segments once every
        worker has swapped (POSIX keeps retired segments mapped until
        the last straggler lets go, so mid-rollout scoring never tears).

        The reload message queues behind in-flight scoring on each pipe,
        so requests already dispatched finish on the old engine and the
        swap drops nothing.  Workers that fail to load the new bundle
        report an error but keep serving their old engine.
        """
        timeout = self.request_timeout if timeout is None else timeout
        # A missing bundle directory is the workers' error to report (they
        # keep serving the old engine); publishing it would only add a
        # spurious publish-failure warning on top.
        manifest = (self._publish_bundle(bundle_dir)
                    if self._share_requested and os.path.isdir(bundle_dir)
                    else None)
        futures = [(worker.index,
                    self._dispatch(worker.index, "reload", bundle_dir,
                                   manifest))
                   for worker in self._workers]
        results = []
        for index, future in futures:
            try:
                payload = future.wait(timeout)
                entry = {"worker": index, "ok": True}
                if isinstance(payload, dict):
                    entry.update(payload)
                    self._note_worker_mode(index, payload, manifest)
                results.append(entry)
            except BaseException as error:
                results.append({"worker": index, "ok": False,
                                "error": repr(error)})
        if all(result["ok"] for result in results):
            self.bundle_dir = bundle_dir
            if manifest is not None and self._store is not None:
                self._store.retire_before(manifest["generation"])
            # Freshly loaded bundles start from on-disk structural state;
            # re-apply the accumulated attachment deltas so every shard
            # keeps serving the live graph (idempotent per edge, so the
            # compacted log is one broadcast however long the history).
            backlog = self._compacted_delta_log()
            if backlog:
                self._broadcast_delta(backlog, timeout)
        with self._stats_lock:
            self._stats.reloads += 1
        return results

    def broadcast_attachments(self, edges: list[Pair],
                              timeout: float | None = None) -> list[dict]:
        """Fan one structural attachment delta out to every worker.

        Each worker's engine merges the edges and recomputes its dirty
        frontier (:meth:`~repro.infer.InferenceEngine.apply_attachments`);
        per-worker outcomes are returned like :meth:`reload`.  The delta
        joins the pool's cumulative replay log *first*, so a worker that
        dies mid-broadcast still converges when it is respawned.
        """
        edges = [(str(parent), str(child)) for parent, child in edges]
        with self._delta_lock:
            self._delta_log.append(edges)
        with self._stats_lock:
            self._stats.delta_broadcasts += 1
        return self._broadcast_delta(edges, timeout)

    def _broadcast_delta(self, edges: list[Pair],
                         timeout: float | None) -> list[dict]:
        """Send one delta to all workers and collect per-worker results."""
        timeout = self.request_timeout if timeout is None else timeout
        futures: list[tuple[int, _ShardFuture | BaseException]] = []
        for worker in self._workers:
            try:
                futures.append((worker.index,
                                self._dispatch(worker.index, "delta",
                                               edges)))
            except BaseException as error:  # dead worker, failed respawn
                futures.append((worker.index, error))
        results = []
        for index, item in futures:
            if isinstance(item, BaseException):
                results.append({"worker": index, "ok": False,
                                "error": repr(item)})
                continue
            try:
                payload = item.wait(timeout)
                outcome = {"worker": index, "ok": True}
                if isinstance(payload, dict):
                    outcome.update(payload)
                results.append(outcome)
            except BaseException as error:
                results.append({"worker": index, "ok": False,
                                "error": repr(error)})
        return results

    def worker_stats(self, timeout: float = 10.0) -> list[dict]:
        """Each live worker's engine counters (for ``/metrics``)."""
        futures = []
        for worker in self._workers:
            try:
                futures.append((worker.index,
                                self._dispatch(worker.index, "stats")))
            except BaseException as error:
                futures.append((worker.index, error))
        results = []
        for index, future in futures:
            payload: dict = {"worker": index, "alive": False}
            if isinstance(future, BaseException):
                payload["error"] = repr(future)
            else:
                try:
                    payload.update(future.wait(timeout) or {})
                    payload["alive"] = True
                except BaseException as error:
                    payload["error"] = repr(error)
            results.append(payload)
        return results

    def stats_snapshot(self) -> PoolStats:
        """An atomic copy of the parent-side counters."""
        with self._stats_lock:
            snapshot = replace(self._stats)
            snapshot.worker_pairs = dict(self._stats.worker_pairs)
            return snapshot

    def shared_memory_stats(self) -> dict:
        """Shared-segment state for ``/metrics`` and operators.

        ``enabled`` reports whether a manifest is currently published
        (i.e. workers can attach); ``attached_workers`` counts workers
        actually serving from shared views right now.
        """
        store = self._store
        segment = (store.segment_stats() if store is not None
                   and not store.closed else {"segments": 0, "bytes": 0,
                                              "generations": {}})
        manifest = self._manifest
        with self._stats_lock:
            attach_failures = self._stats.attach_failures
            publish_failures = self._stats.shm_publish_failures
        return {
            "requested": self._share_requested,
            "enabled": manifest is not None,
            "generation": (int(manifest["generation"])
                           if manifest is not None else 0),
            "segments": int(segment["segments"]),
            "bytes": int(segment["bytes"]),
            "attached_workers": sum(
                1 for worker in self._workers
                if worker.alive and worker.mode == "shared"),
            "attach_failures": attach_failures,
            "publish_failures": publish_failures,
        }

    def blas_thread_counts(self) -> dict:
        """The BLAS thread budget and the workers' counts, for ``/healthz``.

        ``workers`` lists each worker's OpenBLAS count from its ready
        handshake, by index; a count is ``None`` where no OpenBLAS was
        found.
        """
        return {"budget": self.blas_budget,
                "workers": [worker.blas_threads
                            for worker in self._workers]}

    def respawn_stats(self) -> dict:
        """Spawn-to-ready latency summary (count / total / max seconds)."""
        with self._stats_lock:
            samples = list(self._respawn_seconds)
        return {
            "count": len(samples),
            "total_seconds": float(sum(samples)),
            "max_seconds": float(max(samples)) if samples else 0.0,
            "samples": samples,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _publish_bundle(self, directory: str) -> dict | None:
        """Publish ``directory``'s engine arrays as a new shm generation.

        Returns the new manifest, or ``None`` when publishing fails —
        the pool then runs all-private workers, bit-identical but with
        per-worker copies.  Reuses the parent-loaded seed bundle when it
        matches, so initial publish reads the weights from disk exactly
        once.
        """
        from .artifacts import ArtifactBundle
        from .shm import SharedArtifactStore
        try:
            bundle = self._seed_bundle
            if bundle is None or getattr(bundle, "directory",
                                         None) != directory:
                bundle = ArtifactBundle.load(directory)
            meta, arrays = bundle.engine.shared_state()
            if self._store is None or self._store.closed:
                self._store = SharedArtifactStore()
            self._manifest = self._store.publish(arrays, meta=meta)
            # From-disk arrays predate every broadcast attachment, so no
            # published generation covers the folded baseline any more.
            with self._delta_lock:
                self._covered_generation = None
            return self._manifest
        except BaseException as error:
            self._manifest = None
            with self._delta_lock:
                self._covered_generation = None
            with self._stats_lock:
                self._stats.shm_publish_failures += 1
            warnings.warn(
                f"shared-memory publish failed, using private workers: "
                f"{error!r}", RuntimeWarning, stacklevel=2)
            return None

    def publish_shared(self, arrays: dict, meta: dict | None = None,
                       label: str = "retrieval") -> dict | None:
        """Publish an auxiliary array family (e.g. the retrieval slab).

        Reuses the pool's segment store under an independent ``label``
        with its own generation counter; re-publishing supersedes the
        previous generation (retired immediately — auxiliary slabs have
        no mid-rollout attachers to drain).  Returns the manifest, or
        ``None`` when sharing is off or publishing fails.
        """
        if not self._share_requested:
            return None
        from .shm import SharedArtifactStore
        try:
            with self._lock:
                if self._store is None or self._store.closed:
                    self._store = SharedArtifactStore()
                manifest = self._store.publish(arrays, meta=meta,
                                               label=label)
                self._store.retire_before(manifest["generation"],
                                          label=label)
            return manifest
        except BaseException as error:
            with self._stats_lock:
                self._stats.shm_publish_failures += 1
            warnings.warn(
                f"shared publish of {label!r} arrays failed: {error!r}",
                RuntimeWarning, stacklevel=2)
            return None

    def _note_worker_mode(self, index: int, info: dict,
                          manifest: dict | None) -> None:
        """Record a worker's attach outcome (spawn or reload)."""
        mode = info.get("mode", "private")
        self._workers[index].mode = mode
        if manifest is not None and mode != "shared":
            with self._stats_lock:
                self._stats.attach_failures += 1
            error = info.get("attach_error")
            if error:
                warnings.warn(
                    f"scorer worker {index} fell back to a private "
                    f"bundle load: {error}", RuntimeWarning,
                    stacklevel=2)

    def _next_req_id(self) -> int:
        with self._counter_lock:
            self._req_counter += 1
            return self._req_counter

    def _dispatch(self, index: int, kind: str, *payload) -> _ShardFuture:
        """Send one message to worker ``index``; returns its future.

        Respawns the worker first if it has died (counted as a restart).
        """
        worker = self._workers[index]
        if not worker.alive:
            with self._lock:
                if self._stopping:
                    raise RuntimeError("pool is stopping")
                if not worker.alive:  # re-check under the lock
                    self._spawn(worker, restart=True)
        future = _ShardFuture()
        req_id = self._next_req_id()
        with worker.pending_lock:
            worker.pending[req_id] = future
        try:
            with worker.send_lock:
                worker.conn.send((kind, req_id) + payload)
        except (BrokenPipeError, OSError) as error:
            with worker.pending_lock:
                worker.pending.pop(req_id, None)
            self._mark_dead(worker)
            raise RuntimeError(
                f"scorer worker {index} pipe is broken") from error
        with self._stats_lock:
            self._stats.shard_messages += 1
        return future

    def _spawn(self, worker: _Worker, restart: bool,
               supervised: bool = False) -> None:
        """Fork one worker and wait for its ready message.  Lock held.

        Spawn-to-ready latency is recorded (``respawn_seconds``): with
        shared segments the worker skips the bundle load + compile, so
        the sample distribution is the headline respawn win.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.bundle_dir, self._manifest,
                  self.blas_budget),
            name=f"repro-scorer-{worker.index}", daemon=True)
        started_at = time.perf_counter()
        if self._ctx.get_start_method() == "fork":
            # Keep the pages the child inherits shared: the collector
            # skips frozen objects, so it never writes into those pages.
            gc.freeze()
        process.start()
        child_conn.close()
        if not parent_conn.poll(READY_TIMEOUT):
            process.terminate()
            raise RuntimeError(
                f"scorer worker {worker.index} did not become ready "
                f"within {READY_TIMEOUT}s")
        message = parent_conn.recv()
        if message[0] != "ready":
            process.join(5.0)
            raise RuntimeError(
                f"scorer worker {worker.index} failed to load bundle: "
                f"{message[1]}")
        elapsed = time.perf_counter() - started_at
        info = message[2] if len(message) > 2 else {}
        self._note_worker_mode(worker.index, info, self._manifest)
        worker.blas_threads = info.get("blas_threads")
        worker.process = process
        worker.conn = parent_conn
        worker.pending = {}
        worker.alive = True
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker,),
            name=f"repro-pool-reader-{worker.index}", daemon=True)
        worker.reader.start()
        self._replay_deltas(worker)
        with self._stats_lock:
            if len(self._respawn_seconds) < _RESPAWN_SAMPLE_LIMIT:
                self._respawn_seconds.append(elapsed)
            if restart:
                self._stats.worker_restarts += 1
                if supervised:
                    self._stats.watchdog_restarts += 1

    def compact_deltas(self, engine=None) -> dict:
        """Fold the delta log into the published state (snapshot hook).

        When shared memory is live and the parent's post-attachment
        ``engine`` is supplied, its current arrays (which already embed
        every applied delta) are republished as a new generation and the
        old generations retire — a respawned worker then attaches
        post-snapshot state directly.  The accumulated batches are
        folded into one deduplicated *baseline*: workers that attached
        the covering generation skip it entirely on respawn and replay
        only the post-compaction tail, while private loaders and
        post-reload workers (whose arrays come from disk) still replay
        baseline + tail.  Live workers receive nothing — they applied
        every delta when it was broadcast.

        Returns ``{"generation", "baseline_edges", "covered"}``.
        """
        generation: int | None = None
        if (engine is not None and self._manifest is not None
                and self._store is not None and not self._store.closed):
            try:
                meta, arrays = engine.shared_state()
                with self._lock:
                    self._manifest = self._store.republish(arrays,
                                                           meta=meta)
                generation = int(self._manifest["generation"])
            except BaseException as error:
                with self._stats_lock:
                    self._stats.shm_publish_failures += 1
                warnings.warn(
                    f"post-snapshot shared republish failed: {error!r}; "
                    f"respawned workers will replay the full delta "
                    f"backlog", RuntimeWarning, stacklevel=2)
                generation = None
        with self._delta_lock:
            folded_tail = bool(self._delta_log)
            merged: dict[Pair, None] = {}
            for edge in self._delta_baseline:
                merged.setdefault(edge, None)
            for batch in self._delta_log:
                for edge in batch:
                    merged.setdefault(edge, None)
            self._delta_baseline = list(merged)
            self._delta_log = []
            if generation is not None:
                self._covered_generation = generation
            elif folded_tail:
                # The baseline grew past what any published generation
                # embeds, so coverage no longer holds.
                self._covered_generation = None
            covered = self._covered_generation is not None
            baseline_edges = len(self._delta_baseline)
        with self._stats_lock:
            self._stats.delta_compactions += 1
        return {"generation": generation,
                "baseline_edges": baseline_edges,
                "covered": covered}

    def delta_backlog_stats(self) -> dict:
        """Baseline/tail sizes and coverage for ``/metrics``."""
        with self._delta_lock:
            tail_edges = sum(len(batch) for batch in self._delta_log)
            return {
                "baseline_edges": len(self._delta_baseline),
                "tail_batches": len(self._delta_log),
                "tail_edges": tail_edges,
                "covered_generation": self._covered_generation,
            }

    def _compacted_delta_log(self) -> list[Pair]:
        """Baseline + tail as one deduplicated edge list.

        ``apply_attachments`` is idempotent and a single cumulative
        batch converges to the same graph (and the same propagated
        embeddings) as the original batch sequence, so replay cost is
        one message regardless of how long the server has been
        streaming.
        """
        with self._delta_lock:
            merged: dict[Pair, None] = {}
            for edge in self._delta_baseline:
                merged.setdefault(edge, None)
            for batch in self._delta_log:
                for edge in batch:
                    merged.setdefault(edge, None)
        return list(merged)

    def _replay_deltas(self, worker: _Worker) -> None:
        """Queue the delta backlog on a fresh worker's pipe.

        A shared-mode worker that attached the generation recorded by
        :meth:`compact_deltas` already holds the folded baseline in its
        arrays, so only the post-compaction tail is replayed — respawn
        cost tracks the tail, not total ingest history.  Any other
        worker (private load, pre-coverage generation) gets baseline +
        tail.

        Holding ``send_lock`` keeps the delta ahead of any scoring
        message another thread might dispatch the moment the worker is
        marked alive.  The response is drained by the reader thread;
        nothing waits on it (a worker that dies mid-replay is respawned
        — and replayed — again).
        """
        manifest = self._manifest
        attached_generation = (int(manifest["generation"])
                               if manifest is not None else None)
        with self._delta_lock:
            covered = self._covered_generation
            tail_only = (worker.mode == "shared"
                         and covered is not None
                         and attached_generation == covered)
            merged: dict[Pair, None] = {}
            if not tail_only:
                for edge in self._delta_baseline:
                    merged.setdefault(edge, None)
            for batch in self._delta_log:
                for edge in batch:
                    merged.setdefault(edge, None)
        backlog = list(merged)
        if not backlog:
            return
        with worker.send_lock:
            future = _ShardFuture()
            req_id = self._next_req_id()
            with worker.pending_lock:
                worker.pending[req_id] = future
            try:
                worker.conn.send(("delta", req_id, backlog))
            except (BrokenPipeError, OSError):
                return  # next dispatch notices the death
        with self._stats_lock:
            self._stats.delta_replays += 1
            self._stats.delta_replayed_edges += len(backlog)

    def _watchdog_loop(self) -> None:
        """Background liveness sweep: respawn dead workers proactively.

        Runs every ``watchdog_interval`` seconds until :meth:`stop`.  A
        failed respawn (e.g. the bundle directory briefly unreadable) is
        retried on the next sweep rather than crashing the thread.
        """
        while not self._watchdog_stop.wait(self.watchdog_interval):
            for worker in self._workers:
                if self._stopping:
                    return
                # The whole check-mark-respawn sequence runs under the
                # pool lock: a dispatch-triggered respawn cannot slip in
                # between a stale liveness read and _mark_dead, so a
                # just-respawned healthy worker is never killed again.
                with self._lock:
                    if self._stopping:
                        return
                    process = worker.process
                    if worker.alive and (process is None
                                         or not process.is_alive()):
                        self._mark_dead(worker)
                    if not worker.alive and self._started:
                        try:
                            self._spawn(worker, restart=True,
                                        supervised=True)
                        except Exception as error:
                            # retried on the next sweep, but a respawn
                            # that keeps failing must be visible
                            with self._stats_lock:
                                self._stats.watchdog_respawn_failures += 1
                            warnings.warn(
                                f"watchdog respawn of worker "
                                f"{worker.index} failed: {error!r}",
                                RuntimeWarning, stacklevel=1)

    def _read_loop(self, worker: _Worker) -> None:
        """Resolve futures from one worker's pipe until it dies."""
        conn = worker.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._mark_dead(worker)
                return
            status, req_id, payload = message
            with worker.pending_lock:
                future = worker.pending.pop(req_id, None)
            if future is None:
                continue  # stop acks and timed-out requests land here
            if status == "ok":
                future.resolve(payload)
            else:
                future.fail(RuntimeError(
                    f"scorer worker {worker.index} error: {payload}"))

    def _mark_dead(self, worker: _Worker) -> None:
        """Fail everything in flight on a dead worker exactly once."""
        with worker.pending_lock:
            pending, worker.pending = worker.pending, {}
            was_alive, worker.alive = worker.alive, False
        if not was_alive:
            return
        if not self._stopping:
            with self._stats_lock:
                self._stats.worker_deaths += 1
        error = RuntimeError(
            f"scorer worker {worker.index} died with "
            f"{len(pending)} shard(s) in flight")
        for future in pending.values():
            future.fail(error)

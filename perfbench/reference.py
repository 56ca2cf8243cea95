"""The benchmark's reference: workloads, metrics and what should move.

``BENCHMARK.json`` names the gated workloads and metrics, with each
workload's reason and each metric's unit and bound; this module holds
the rest of the record — traffic, loop type, rate or client count,
server flags, the layers a workload loads and bypasses, every metric's
definition, and for every per-layer metric the end-to-end metric and
workload it should move.  Later changes cite these names.
``python3 perfbench/run.py --describe`` prints both.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS"]

_ALL_LAYERS = ("serving.async_http", "serving.routes", "api.schemas",
               "serving.service", "serving.scorer", "infer.engine",
               "nn.inference", "serving.cluster", "serving.shm",
               "retrieval", "core.incremental", "core.expansion",
               "serving.journal")


def _bypassed(loads: tuple) -> tuple:
    return tuple(layer for layer in _ALL_LAYERS if layer not in loads)


_FRONT = ("serving.async_http", "serving.routes", "api.schemas",
          "serving.service", "serving.scorer")

WORKLOADS = {
    "score_cold": {
        "traffic": "POST /v1/score, 8 never-repeated (taxonomy node, "
                   "vocabulary concept) pairs per request",
        "loop": "open: Poisson arrivals at 120 req/s over 2 keep-alive "
                "connections, latency timed from each request's due time",
        "server_flags": "repro serve defaults",
        "loads": _FRONT + ("infer.engine", "nn.inference"),
    },
    "score_hot": {
        "traffic": "POST /v1/score, 8 pairs per request sampled from a "
                   "1,024-pair set pre-warmed into the scorer cache",
        "loop": "closed: 2 clients on 2 keep-alive connections",
        "server_flags": "repro serve defaults",
        "loads": _FRONT,
    },
    "grow": {
        "traffic": "connection 1: synchronous POST /v1/ingest of a seeded "
                   "sequence of 50-record click-log batches; connection 2: "
                   "POST /v1/suggest (k=10) for concepts of the same log "
                   "while the writes run",
        "loop": "closed: 1 writer and 1 reader client, 2 connections",
        "server_flags": "--journal-dir",
        "loads": _FRONT + ("infer.engine", "nn.inference", "retrieval",
                           "core.incremental", "core.expansion",
                           "serving.journal"),
    },
    "score_bulk": {
        "traffic": "POST /v1/score, 256 never-repeated pairs per request, "
                   "like the batches repro score-remote sends",
        "loop": "closed: 2 clients on 2 keep-alive connections",
        "server_flags": "--workers <nproc>",
        "loads": _FRONT + ("serving.cluster", "serving.shm",
                           "infer.engine", "nn.inference"),
    },
}
for _spec in WORKLOADS.values():
    _spec["bypasses"] = _bypassed(_spec["loads"])

#: name -> (unit, definition, workloads it is defined for).  A timed
#: segment is one server launch's share of the traffic; ``p50_ms``,
#: ``throughput_rps`` and ``cpu_ms_per_req`` are the mean of their
#: per-launch values, so they follow the share of slow time instead of
#: flipping when it crosses one half.
END_TO_END = {
    "setup_s": ("s", "launch of repro serve until it answered /v1/healthz "
                "and one warm-up request of each kind the workload sends; "
                "median of the launches", "all"),
    "p50_ms": ("ms", "median latency of the workload's read requests "
               "(score, or suggest in grow), taken in each quarter of a "
               "launch's segment (by due time); mean of the quarters and "
               "of the launches", "all"),
    "p99_ms": ("ms", "99th percentile of the same, over every launch",
               "all (sample count printed beside it)"),
    "throughput_rps": ("req/s", "completed read requests per second; in "
                       "grow, suggests completed while writes run; mean "
                       "of the launches", "all"),
    "ingest_records_per_s": ("records/s", "records in the write sequence "
                             "divided by its wall time", "grow"),
    "ingest_p50_ms": ("ms", "median latency of a synchronous ingest batch",
                      "grow"),
    "cpu_ms_per_req": ("ms", "user+sys CPU of the server process tree "
                       "(workers included, from /proc) per completed "
                       "request; in grow per completed write batch, with "
                       "the CPU of the suggests beside it (the two closed "
                       "loops race, so their mix, printed as "
                       "suggests_per_ingest, is not a unit); mean of the "
                       "launches", "all"),
    "mem_pss_mb": ("MB", "summed PSS of the server process tree at the "
                   "end of each launch's timed segment; median of the "
                   "launches", "all"),
    "error_ratio": ("ratio", "failed operations over attempted ones: "
                    "non-2xx (429 included), timeouts and failed output "
                    "checks", "all (also the result's failed/attempted)"),
}

#: (name, unit, layer, measured as, should move, workloads)
PER_LAYER = [
    ("async_http.front_ms", "ms", "serving.async_http",
     "client latency minus route-handler wall time: parse, admission, "
     "executor hop, response write",
     "throughput_rps, p50_ms on score_hot; a small share on score_cold",
     "all"),
    ("async_http.shed", "count", "serving.async_http",
     "429 responses", "error_ratio, all", "all"),
    ("schemas.parse_ms", "ms", "api.schemas",
     "ScoreRequest/SuggestRequest/IngestRequest.parse",
     "throughput_rps on score_hot", "all"),
    ("routes.self_ms", "ms", "serving.routes",
     "read handler wall minus the service call and request parse "
     "(response-model validation)",
     "throughput_rps on score_hot and score_bulk", "all"),
    ("service.suggest_self_ms", "ms", "serving.service",
     "TaxonomyService.suggest minus CandidateRetriever.neighbors and the "
     "scorer call: taxonomy-lock wait plus ranking",
     "p50_ms, throughput_rps on grow", "grow"),
    ("service.ingest_wait_ms", "ms", "serving.service",
     "TaxonomyService.ingest minus IncrementalExpander.ingest and "
     "IngestJournal.flush", "ingest_p50_ms on grow", "grow"),
    ("scorer.call_ms", "ms", "serving.scorer",
     "BatchingScorer.score_pairs wall time", "p50_ms on score_cold", "all"),
    ("scorer.self_ms", "ms", "serving.scorer",
     "call wall time not overlapped by engine or pool spans: cache "
     "lookup, queueing, the max_wait_ms window",
     "p50_ms on score_cold; ingest_records_per_s on grow; none on "
     "score_hot or score_bulk", "all"),
    ("scorer.hit_ratio", "ratio", "serving.scorer",
     "delta of cache_hits / pairs_requested from /v1/metrics; an output "
     "check of every pass asks for >= 0.99 on score_hot and <= 0.01 on "
     "score_cold and score_bulk", "throughput_rps on score_hot", "all"),
    ("scorer.pairs_per_call", "pairs", "serving.scorer",
     "/v1/metrics delta of pairs_scored / model_calls",
     "cpu_ms_per_req, p50_ms on score_cold",
     "score_cold, grow, score_bulk"),
    ("scorer.requests_per_batch", "requests", "serving.scorer",
     "/v1/metrics delta of coalesced_requests / batches",
     "cpu_ms_per_req, p50_ms on score_cold",
     "score_cold, grow, score_bulk"),
    ("scorer.invalidate_ms", "ms", "serving.scorer",
     "invalidate_pairs_touching", "ingest_records_per_s on grow", "grow"),
    ("engine.call_ms", "ms", "infer.engine", "InferenceEngine.score_pairs",
     "p50_ms, cpu_ms_per_req on score_cold; none on score_hot",
     "score_cold, grow"),
    ("engine.pairs_per_s", "pairs/s", "infer.engine",
     "pairs scored per second of InferenceEngine.score_pairs busy time",
     "p50_ms, cpu_ms_per_req on score_cold", "score_cold, grow"),
    ("engine.other_ms", "ms", "infer.engine",
     "score_pairs minus encode and classifier: tokenize, pack, "
     "structural gather", "p50_ms, cpu_ms_per_req on score_cold",
     "score_cold, grow"),
    ("engine.recompute_ms", "ms", "infer.engine",
     "apply_attachments wall time", "ingest_records_per_s on grow", "grow"),
    ("engine.rows_recomputed", "rows", "infer.engine",
     "/v1/metrics delta of rows_recomputed", "ingest_records_per_s on grow",
     "grow"),
    ("bert.encode_ms", "ms", "nn.inference", "CompiledBert.encode",
     "p50_ms, cpu_ms_per_req on score_cold", "score_cold, grow"),
    ("classifier_ms", "ms", "nn.inference",
     "CompiledClassifier.positive_probability",
     "p50_ms, cpu_ms_per_req on score_cold", "score_cold, grow"),
    ("pool.call_ms", "ms", "serving.cluster",
     "ShardedScorerPool.score_pairs wall time",
     "throughput_rps, p50_ms on score_bulk", "score_bulk"),
    ("pool.worker_cpu_ms_per_req", "ms", "serving.cluster",
     "/proc CPU of the worker processes per completed request",
     "cpu_ms_per_req, throughput_rps on score_bulk", "score_bulk"),
    ("pool.parent_cpu_ms_per_req", "ms", "serving.cluster",
     "/proc CPU of the server process per completed request",
     "cpu_ms_per_req, throughput_rps on score_bulk", "all"),
    ("pool.respawns", "count", "serving.cluster",
     "/v1/metrics delta of worker restarts", "error_ratio on score_bulk",
     "score_bulk"),
    ("retrieval.neighbors_ms", "ms", "retrieval",
     "CandidateRetriever.neighbors", "p50_ms on grow", "grow"),
    ("retrieval.extend_ms", "ms", "retrieval", "CandidateRetriever.extend",
     "ingest_records_per_s on grow", "grow"),
    ("expander.ingest_ms", "ms", "core.incremental",
     "IncrementalExpander.ingest wall time",
     "ingest_records_per_s, ingest_p50_ms on grow", "grow"),
    ("expander.self_ms", "ms", "core.expansion",
     "IncrementalExpander.ingest minus its scorer calls",
     "ingest_records_per_s, ingest_p50_ms on grow", "grow"),
    ("expander.pairs_per_batch", "pairs", "core.expansion",
     "pairs the expander requests from the scorer per ingest batch",
     "ingest_records_per_s, ingest_p50_ms on grow", "grow"),
    ("journal.append_ms", "ms", "serving.journal", "IngestJournal.append",
     "ingest_p50_ms on grow", "grow"),
    ("journal.flush_ms", "ms", "serving.journal",
     "IngestJournal.flush (fsync)", "ingest_p50_ms on grow", "grow"),
]

"""Command-line interface: ``repro <command>`` (or ``python -m repro.cli``).

Commands
--------
``world``         Generate a synthetic world and print its statistics.
``expand``        Train the framework on a preset domain and expand its
                  taxonomy, optionally saving the result as JSON and/or
                  exporting a serving artifact bundle.
``evaluate``      Train and report detector test metrics for a preset
                  domain, optionally dumping them as JSON for CI.
``serve``         Load an artifact bundle and run the online taxonomy
                  service (versioned JSON API under ``/v1``: score,
                  expand, ingest, taxonomy, healthz, metrics, async
                  jobs, admin/reload, openapi.json — legacy unversioned
                  paths remain as deprecated aliases).  ``--workers N``
                  shards scoring across N processes; ``--journal-dir``
                  makes ingestion durable and replays it on startup;
                  SIGHUP hot-reloads the bundle.
``suggest``       Load an artifact bundle and print ranked attachment
                  candidates for query concepts (top-k retrieval over
                  the embedding index, re-ranked by the exact scorer)
                  without starting a server.
``score-remote``  Score (parent, child) pairs against a running server
                  through the :class:`repro.api.TaxonomyClient` SDK.
``suggest-remote``  Ask a running server for ranked attachment
                  candidates through the SDK (``POST /v1/suggest``).
``ingest-remote`` Send click-log records (JSON file or stdin) to a
                  running server through the SDK, in bounded batches.
``lint``          Run reprolint, the in-tree static analyzer
                  (``docs/devtools.md``), over the source tree; exits
                  non-zero on findings not covered by the baseline.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import PipelineConfig, TaxonomyExpansionPipeline
from .core.detector import DetectorConfig
from .eval import ancestor_pairs, evaluate_on_dataset, manual_precision
from .gnn import ContrastiveConfig
from .plm import PretrainConfig
from .synthetic import (
    ClickLogConfig, DOMAIN_PRESETS, UgcConfig, build_world,
    generate_click_logs, generate_ugc,
)
from .taxonomy import save_taxonomy, split_edges_by_headword

__all__ = ["main"]


def _build_domain(domain: str, clicks_per_query: int):
    preset = DOMAIN_PRESETS[domain]
    world = build_world(preset)
    click_log = generate_click_logs(world, ClickLogConfig(
        seed=100 + preset.seed, clicks_per_query=clicks_per_query))
    ugc = generate_ugc(world, UgcConfig(seed=200 + preset.seed,
                                        sentences_per_edge=3.0))
    return world, click_log, ugc


def _pipeline(seed: int, fast: bool) -> TaxonomyExpansionPipeline:
    steps, epochs = (500, 12) if fast else (1200, 20)
    return TaxonomyExpansionPipeline(PipelineConfig(
        seed=seed,
        pretrain=PretrainConfig(steps=steps, strategy="concept", seed=seed),
        contrastive=ContrastiveConfig(steps=60 if fast else 100, seed=seed),
        detector=DetectorConfig(epochs=epochs, batch_size=16, lr=3e-3,
                                plm_lr=3e-4, seed=seed),
    ))


def cmd_world(args: argparse.Namespace) -> int:
    world, click_log, ugc = _build_domain(args.domain, args.clicks)
    head, others = split_edges_by_headword(world.full_taxonomy)
    print(f"domain           : {args.domain}")
    print(f"concepts         : {world.full_taxonomy.num_nodes}")
    print(f"relations        : {world.full_taxonomy.num_edges} "
          f"({len(head)} headword / {len(others)} others)")
    print(f"depth            : {world.full_taxonomy.depth()}")
    print(f"held-out concepts: {len(world.new_concepts)}")
    print(f"click records    : {click_log.num_records}")
    print(f"review sentences : {len(ugc)}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    world, click_log, ugc = _build_domain(args.domain, args.clicks)
    pipeline = _pipeline(args.seed, args.fast)
    pipeline.fit(world.existing_taxonomy, world.vocabulary, click_log, ugc)
    closure = ancestor_pairs(world.full_taxonomy)
    metrics = evaluate_on_dataset(
        lambda pairs: pipeline.detector.predict(pairs),
        pipeline.dataset.test, closure)
    for key in ("accuracy", "edge_f1", "ancestor_f1"):
        print(f"{key:<12}: {100 * metrics[key]:.2f}")
    if args.output:
        payload = {
            "domain": args.domain,
            "seed": args.seed,
            "fast": args.fast,
            "metrics": {key: float(value)
                        for key, value in sorted(metrics.items())},
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        print(f"wrote metrics JSON to {args.output}")
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    world, click_log, ugc = _build_domain(args.domain, args.clicks)
    pipeline = _pipeline(args.seed, args.fast)
    pipeline.fit(world.existing_taxonomy, world.vocabulary, click_log, ugc)
    result = pipeline.expand(world.existing_taxonomy, click_log,
                             world.vocabulary)
    precision = manual_precision(world, result.attached_edges,
                                 sample_size=1000, seed=args.seed)
    print(f"attached relations: {result.num_attached}")
    print(f"panel precision   : {precision:.1f}%")
    print(f"taxonomy edges    : {world.existing_taxonomy.num_edges} -> "
          f"{result.taxonomy.num_edges}")
    if args.output:
        save_taxonomy(result.taxonomy, args.output)
        print(f"saved expanded taxonomy to {args.output}")
    if args.artifacts:
        from .serving import ArtifactBundle
        ArtifactBundle.export(pipeline, args.artifacts,
                              taxonomy=result.taxonomy,
                              vocabulary=world.vocabulary)
        print(f"exported serving artifacts to {args.artifacts}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serving import (
        ArtifactBundle, IngestJournal, ServiceConfig, ShardedScorerPool,
        SnapshotStore, TaxonomyService, serve_async,
    )
    try:
        bundle = ArtifactBundle.load(args.artifacts)
    except FileNotFoundError as error:
        print(f"error: no artifact bundle at {args.artifacts!r} ({error}); "
              f"create one with: repro expand --artifacts {args.artifacts}",
              file=sys.stderr)
        return 2
    # Fork scoring workers before any service thread exists (fork
    # safety).  The parent publishes one copy of the weights into
    # shared-memory segments and every worker attaches it zero-copy (a
    # worker that cannot attach loads the bundle privately instead).
    pool = None
    if args.workers > 1:
        pool = ShardedScorerPool(
            args.artifacts, num_workers=args.workers,
            watchdog_interval=args.watchdog_interval, bundle=bundle)
        pool.start()
        shm_stats = pool.shared_memory_stats()
        mode = (f"shared weights: {shm_stats['bytes']} bytes in "
                f"{shm_stats['segments']} segments, "
                f"{shm_stats['attached_workers']}/{args.workers} attached"
                if shm_stats["enabled"] else "private weight copies")
        print(f"scorer pool: {args.workers} workers ready ({mode})")
    journal = None
    if args.journal_dir:
        journal = IngestJournal(
            args.journal_dir,
            max_segment_bytes=args.journal_segment_mb * 1024 * 1024,
            fsync_every=args.journal_fsync)
    snapshots = None
    if args.snapshot_dir:
        snapshots = SnapshotStore(args.snapshot_dir,
                                  keep=args.snapshot_keep)
    service = TaxonomyService(
        bundle,
        ServiceConfig(
            max_batch=args.max_batch, cache_size=args.cache_size,
            max_ingest_queue=args.max_ingest_queue,
            snapshot_every_records=args.snapshot_every,
            snapshot_interval_seconds=args.snapshot_interval),
        pool=pool, journal=journal, snapshots=snapshots)
    print(f"loaded artifacts from {args.artifacts} "
          f"(taxonomy: {bundle.taxonomy.num_nodes} nodes / "
          f"{bundle.taxonomy.num_edges} edges)")
    if journal is not None or snapshots is not None:
        summary = service.recover()
        if summary.get("snapshot"):
            print(f"restored snapshot {summary['snapshot']} "
                  f"(covers seq {summary['snapshot_seq']}, "
                  f"{summary['restored_edges']} attachments)")
        if journal is not None:
            print(f"journal replay from {args.journal_dir}: "
                  f"{summary['ingest']} ingest / "
                  f"{summary['expand']} expand / "
                  f"{summary['reload']} reload record(s), "
                  f"{summary['skipped']} skipped -> "
                  f"{summary['taxonomy_edges']} taxonomy edges")
    try:
        serve_async(service, host=args.host, port=args.port,
                    quiet=args.quiet, drain_timeout=args.drain_timeout,
                    max_inflight=args.max_inflight,
                    max_connections=args.max_connections,
                    read_timeout=args.read_timeout,
                    idle_timeout=args.idle_timeout,
                    stream_chunk_size=args.stream_chunk)
    finally:
        if journal is not None:
            journal.close()
        if pool is not None:
            pool.stop()
    return 0


def _print_suggestions(result: dict) -> None:
    meta = result.get("retrieval", {})
    print(f"{result['query']}  (index: {meta.get('index_size', '?')} "
          f"concepts, {meta.get('mode', '?')} mode, retrieved "
          f"{meta.get('retrieved', '?')})")
    for candidate in result["candidates"]:
        marker = " *" if candidate.get("already_parent") else ""
        print(f"  {candidate['probability']:.4f}  "
              f"(sim {candidate['similarity']:.3f})  "
              f"{candidate['concept']} -> {result['query']}{marker}")


def cmd_suggest(args: argparse.Namespace) -> int:
    from .serving import ArtifactBundle, TaxonomyService
    try:
        bundle = ArtifactBundle.load(args.artifacts)
    except FileNotFoundError as error:
        print(f"error: no artifact bundle at {args.artifacts!r} ({error}); "
              f"create one with: repro expand --artifacts {args.artifacts}",
              file=sys.stderr)
        return 2
    # Unstarted service: suggest works synchronously without workers.
    service = TaxonomyService(bundle)
    results = [service.suggest(query, k=args.k) for query in args.queries]
    if args.json:
        json.dump(results if len(results) > 1 else results[0],
                  sys.stdout, indent=1)
        print()
    else:
        for result in results:
            _print_suggestions(result)
    return 0


def cmd_suggest_remote(args: argparse.Namespace) -> int:
    from .api import TaxonomyApiError, TaxonomyClient
    client = TaxonomyClient(args.url, timeout=args.timeout,
                            retries=args.retries)
    try:
        results = [client.suggest(query, k=args.k)
                   for query in args.queries]
    except TaxonomyApiError as error:
        print(f"error: {error} (request_id={error.request_id})",
              file=sys.stderr)
        return 1
    if args.json:
        json.dump(results if len(results) > 1 else results[0],
                  sys.stdout, indent=1)
        print()
    else:
        for result in results:
            _print_suggestions(result)
    return 0


def cmd_score_remote(args: argparse.Namespace) -> int:
    from .api import TaxonomyApiError, TaxonomyClient
    pairs = []
    for raw in args.pairs:
        parent, sep, child = raw.partition(",")
        if not sep or not parent or not child:
            print(f"error: pair must be PARENT,CHILD: {raw!r}",
                  file=sys.stderr)
            return 2
        pairs.append((parent, child))
    client = TaxonomyClient(args.url, timeout=args.timeout,
                            retries=args.retries)
    try:
        probabilities = client.score_batched(pairs,
                                             batch_size=args.batch_size)
    except TaxonomyApiError as error:
        print(f"error: {error} (request_id={error.request_id})",
              file=sys.stderr)
        return 1
    if args.json:
        json.dump({"pairs": [list(pair) for pair in pairs],
                   "probabilities": probabilities},
                  sys.stdout, indent=1)
        print()
    else:
        for (parent, child), prob in zip(pairs, probabilities):
            print(f"{prob:.4f}  {parent} -> {child}")
    return 0


def cmd_ingest_remote(args: argparse.Namespace) -> int:
    from .api import TaxonomyApiError, TaxonomyClient
    if args.records == "-":
        records = json.load(sys.stdin)
    else:
        with open(args.records, encoding="utf-8") as handle:
            records = json.load(handle)
    if not isinstance(records, list):
        print("error: records file must hold a JSON list of "
              "[query, item(, count)] records", file=sys.stderr)
        return 2
    client = TaxonomyClient(args.url, timeout=args.timeout,
                            retries=args.retries)
    try:
        outcomes = client.ingest_batched(records,
                                         batch_size=args.batch_size,
                                         sync=args.sync)
    except TaxonomyApiError as error:
        print(f"error: {error} (request_id={error.request_id})",
              file=sys.stderr)
        return 1
    attached = sum((o.get("report") or {}).get("num_attached", 0)
                   for o in outcomes)
    print(f"sent {len(records)} record(s) in {len(outcomes)} batch(es)")
    if args.sync:
        print(f"attached edges: {attached}")
    return 0


def cmd_lint(args) -> int:
    from .devtools.__main__ import main as lint_main
    argv = list(args.paths)
    argv += ["--root", args.root, "--format", args.format]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.list_rules:
        argv += ["--list-rules"]
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", choices=sorted(DOMAIN_PRESETS),
                       default="fruits")
        p.add_argument("--clicks", type=int, default=80,
                       help="mean clicks per query concept")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--fast", action="store_true",
                       help="reduced training schedule")

    world_parser = sub.add_parser("world", help="print world statistics")
    common(world_parser)
    world_parser.set_defaults(func=cmd_world)

    eval_parser = sub.add_parser("evaluate", help="detector test metrics")
    common(eval_parser)
    eval_parser.add_argument("--output", default=None,
                             help="write metrics JSON here (for CI)")
    eval_parser.set_defaults(func=cmd_evaluate)

    expand_parser = sub.add_parser("expand", help="expand a taxonomy")
    common(expand_parser)
    expand_parser.add_argument("--output", default=None,
                               help="write expanded taxonomy JSON here")
    expand_parser.add_argument("--artifacts", default=None,
                               help="export a serving artifact bundle here")
    expand_parser.set_defaults(func=cmd_expand)

    serve_parser = sub.add_parser(
        "serve", help="run the online taxonomy service")
    serve_parser.add_argument("--artifacts", required=True,
                              help="artifact bundle directory "
                                   "(see: repro expand --artifacts)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8631,
                              help="0 picks an ephemeral port")
    serve_parser.add_argument("--max-batch", type=int, default=64,
                              help="pairs at which coalescing stops; a "
                                   "request with this many cache misses "
                                   "skips the queue")
    serve_parser.add_argument("--cache-size", type=int, default=4096,
                              help="LRU score-cache entries (0 disables)")
    serve_parser.add_argument("--max-ingest-queue", type=int, default=16,
                              help="queued click-log batches before "
                                   "backpressure rejects")
    serve_parser.add_argument("--workers", type=int, default=0,
                              help="scoring worker processes; >1 shards "
                                   "pairs across a ShardedScorerPool "
                                   "(0/1 = in-process engine)")
    serve_parser.add_argument("--watchdog-interval", type=float,
                              default=5.0,
                              help="seconds between proactive pool "
                                   "liveness sweeps that respawn dead "
                                   "workers (0 disables the watchdog)")
    serve_parser.add_argument("--journal-dir", default=None,
                              help="durable ingest-journal directory; "
                                   "replayed on startup to rebuild "
                                   "incremental-expansion state")
    serve_parser.add_argument("--journal-fsync", type=int, default=8,
                              help="fsync once per N journal appends "
                                   "(1 = every record, 0 = OS write-back)")
    serve_parser.add_argument("--journal-segment-mb", type=int, default=4,
                              help="journal segment rotation size in MiB")
    serve_parser.add_argument("--snapshot-dir", default=None,
                              help="snapshot directory; startup restores "
                                   "the latest valid snapshot and replays "
                                   "only the journal tail after it, and "
                                   "each snapshot compacts covered "
                                   "journal segments")
    serve_parser.add_argument("--snapshot-every", type=int, default=0,
                              help="snapshot after this many journaled "
                                   "records accumulate past the last one "
                                   "(0 disables count-based scheduling)")
    serve_parser.add_argument("--snapshot-interval", type=float,
                              default=0.0,
                              help="snapshot every N seconds "
                                   "(0 disables time-based scheduling)")
    serve_parser.add_argument("--snapshot-keep", type=int, default=2,
                              help="snapshots retained on disk (>= 1; "
                                   "older ones are pruned)")
    serve_parser.add_argument("--drain-timeout", type=float, default=10.0,
                              help="seconds SIGTERM waits for in-flight "
                                   "requests before closing")
    serve_parser.add_argument("--max-inflight", type=int, default=8,
                              help="concurrent heavy requests "
                                   "(score/expand/ingest/admin) admitted "
                                   "before shedding with 429 + "
                                   "Retry-After")
    serve_parser.add_argument("--max-connections", type=int, default=256,
                              help="open-connection cap; connections "
                                   "past it are refused 503")
    serve_parser.add_argument("--read-timeout", type=float, default=5.0,
                              help="seconds a started request may take "
                                   "to arrive before 408 (slow-loris "
                                   "guard)")
    serve_parser.add_argument("--idle-timeout", type=float, default=30.0,
                              help="seconds an idle keep-alive "
                                   "connection is held open")
    serve_parser.add_argument("--stream-chunk", type=int, default=64,
                              help="pairs per NDJSON line on streamed "
                                   "/v1/score (/v1/expand uses 1/8th per "
                                   "chunk)")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="accepted and ignored: the server "
                                   "writes no per-request access log")
    serve_parser.set_defaults(func=cmd_serve)

    suggest_parser = sub.add_parser(
        "suggest",
        help="ranked attachment candidates from a local bundle")
    suggest_parser.add_argument("--artifacts", required=True,
                                help="artifact bundle directory "
                                     "(see: repro expand --artifacts)")
    suggest_parser.add_argument(
        "queries", nargs="+", metavar="CONCEPT",
        help="concepts to find attachment candidates for")
    suggest_parser.add_argument("--k", type=int, default=10,
                                help="candidates per query")
    suggest_parser.add_argument("--json", action="store_true",
                                help="print the full JSON response")
    suggest_parser.set_defaults(func=cmd_suggest)

    def remote_common(p):
        p.add_argument("--url", default="http://127.0.0.1:8631",
                       help="server base URL (the client adds /v1)")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="per-request socket timeout in seconds")
        p.add_argument("--retries", type=int, default=2,
                       help="extra attempts on 429/503/transport errors")

    score_remote = sub.add_parser(
        "score-remote",
        help="score pairs against a running server via the SDK")
    remote_common(score_remote)
    score_remote.add_argument(
        "pairs", nargs="+", metavar="PARENT,CHILD",
        help="(parent, child) concept pairs, comma-separated")
    score_remote.add_argument("--batch-size", type=int, default=512,
                              help="pairs per /v1/score request")
    score_remote.add_argument("--json", action="store_true",
                              help="print the full JSON response")
    score_remote.set_defaults(func=cmd_score_remote)

    suggest_remote = sub.add_parser(
        "suggest-remote",
        help="ranked attachment candidates from a running server")
    remote_common(suggest_remote)
    suggest_remote.add_argument(
        "queries", nargs="+", metavar="CONCEPT",
        help="concepts to find attachment candidates for")
    suggest_remote.add_argument("--k", type=int, default=10,
                                help="candidates per query")
    suggest_remote.add_argument("--json", action="store_true",
                                help="print the full JSON response")
    suggest_remote.set_defaults(func=cmd_suggest_remote)

    ingest_remote = sub.add_parser(
        "ingest-remote",
        help="send click-log records to a running server via the SDK")
    remote_common(ingest_remote)
    ingest_remote.add_argument(
        "records", metavar="RECORDS_JSON",
        help="path to a JSON list of [query, item(, count)] records "
             "('-' reads stdin)")
    ingest_remote.add_argument("--batch-size", type=int, default=5000,
                               help="records per /v1/ingest request")
    ingest_remote.add_argument("--sync", action="store_true",
                               help="wait for each batch's ingest "
                                    "report (prints attached-edge "
                                    "totals)")
    ingest_remote.set_defaults(func=cmd_ingest_remote)

    lint_parser = sub.add_parser(
        "lint", help="run reprolint (the in-tree static analyzer)")
    lint_parser.add_argument("paths", nargs="*", default=["src"],
                             help="files or directories to lint "
                                  "(default: src)")
    lint_parser.add_argument("--root", default=".",
                             help="repository root the paths and docs "
                                  "are relative to")
    lint_parser.add_argument("--format", default="text",
                             choices=("text", "json", "github"),
                             help="output format")
    lint_parser.add_argument("--rules", default="",
                             help="comma-separated rule ids/names "
                                  "(default: all)")
    lint_parser.add_argument("--baseline", default=None,
                             help="baseline JSON file of grandfathered "
                                  "findings")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalogue and exit")
    lint_parser.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Recovery cost — snapshot + journal-tail restart vs full-history replay.

Without snapshots, a journal-backed service re-scores its *entire*
ingest history through the model on every restart, and a respawned pool
worker replays the whole cumulative delta log — both costs grow without
bound as the service lives.  The snapshot layer (ISSUE 8) caps both: a
restart loads the latest snapshot verbatim (zero re-scoring) and replays
only the post-snapshot journal tail, and a respawned shared-memory
worker attaches the republished post-snapshot generation and replays
only the post-snapshot delta tail.

This bench fits one small pipeline, journals ``history`` ingest records
at two scales (``history/10`` and ``history``, same tail), and measures

* **full replay**: fresh service, ``replay_journal()`` over everything,
* **snapshot + tail**: fresh service, ``recover()`` (latest snapshot
  plus the post-snapshot records only),
* **worker respawn**: SIGKILL a shared-memory pool worker and time its
  return to service with the full delta log vs the post-compaction
  tail.

Contracts verified on every run (exit non-zero on violation):

* **parity** — both recovery paths reproduce the exact live state:
  taxonomy stats, edge set, and engine structural epoch;
* full replay must apply every record, snapshot recovery only the tail.

Acceptance targets (ISSUE 8, perf-gated via the pytest entry on
developer machines — CI runs the tiny profile for contracts only):
snapshot + tail >= 10x faster than full replay, and both cold-start and
respawn time flat (<= 1.5x) as history grows 10x.

Run standalone (JSON artifact for CI)::

    PYTHONPATH=src python benchmarks/bench_recovery.py \
        --profile tiny --output recovery_bench.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time

from repro.core import (
    DetectorConfig, PipelineConfig, TaxonomyExpansionPipeline,
)
from repro.gnn import ContrastiveConfig, StructuralConfig
from repro.plm import PretrainConfig
from repro.serving import (
    ArtifactBundle, IngestJournal, ServiceConfig, ShardedScorerPool,
    SnapshotStore, TaxonomyService,
)
from repro.synthetic import (
    ClickLogConfig, UgcConfig, WorldConfig, build_world,
    generate_click_logs, generate_ugc,
)

#: per profile: journaled ingest records at full scale, post-snapshot
#: tail records, ingest-batch size, and delta edges for the respawn
#: measurement.  ``large`` is the ISSUE's 50k-record target — minutes
#: of wall clock, for developer machines only.
PROFILES = {
    "tiny": {"history": 80, "tail": 8, "batch": 4, "deltas": 24},
    "default": {"history": 2_000, "tail": 40, "batch": 10, "deltas": 200},
    "large": {"history": 50_000, "tail": 500, "batch": 50, "deltas": 1_000},
}

FLATNESS_CEILING = 1.5
SPEEDUP_FLOOR = 10.0


def _recovery_pipeline() -> tuple[TaxonomyExpansionPipeline, list]:
    """One small fitted pipeline plus raw click records to journal."""
    world = build_world(WorldConfig(
        domain="fruits", seed=11, num_categories=6,
        children_per_category=(4, 7), max_depth=4, headword_fraction=0.8,
        children_per_node=(0, 3), holdout_fraction=0.2))
    click_log = generate_click_logs(world, ClickLogConfig(
        seed=3, clicks_per_query=40))
    ugc = generate_ugc(world, UgcConfig(seed=3, sentences_per_edge=2.0))
    config = PipelineConfig(
        seed=0, bert_dim=16, bert_ffn=32,
        pretrain=PretrainConfig(steps=60, batch_size=8, strategy="concept"),
        contrastive=ContrastiveConfig(steps=10),
        structural=StructuralConfig(hidden_dim=16, position_dim=4),
        detector=DetectorConfig(epochs=2, batch_size=16))
    pipeline = TaxonomyExpansionPipeline(config)
    pipeline.fit(world.existing_taxonomy, world.vocabulary, click_log, ugc)
    base = [[q, i, c] for (q, i), c in sorted(click_log.counts.items())]
    return pipeline, base


def _records(base: list, count: int) -> list:
    """``count`` deterministic click records: cycled real queries with
    versioned item strings, so every record is distinct and every
    replay re-scores real candidate text."""
    out = []
    for k in range(count):
        query, item, clicks = base[k % len(base)]
        out.append([query, f"{item} v{k // len(base)}", clicks])
    return out


def _fingerprint(service: TaxonomyService) -> tuple:
    state = service.taxonomy_state()
    return (tuple(sorted(state["stats"].items())),
            tuple(sorted(tuple(e) for e in state["edges"])),
            service.bundle.engine.structural_epoch)


def _timed_cold_starts(bundle_dir: str, base: list, history: int,
                       tail: int, batch: int) -> tuple[dict, int]:
    """Journal ``history`` records, snapshot, journal ``tail`` more,
    then time both restart paths.  Returns (metrics, parity failures)."""
    journal_dir = tempfile.mkdtemp(prefix="bench_rec_journal_")
    snap_dir = tempfile.mkdtemp(prefix="bench_rec_snap_")
    try:
        service = TaxonomyService(
            ArtifactBundle.load(bundle_dir), ServiceConfig(),
            journal=IngestJournal(journal_dir),
            snapshots=SnapshotStore(snap_dir))
        service.start()
        records = _records(base, history + tail)
        for k in range(0, history, batch):
            service.ingest(records[k:k + batch], sync=True)
        # compact=False keeps the full journal on disk so the
        # full-replay baseline stays measurable on the same run.
        service.snapshot(compact=False)
        for k in range(history, history + tail, batch):
            service.ingest(records[k:k + batch], sync=True)
        live = _fingerprint(service)
        service.stop()

        full = TaxonomyService(
            ArtifactBundle.load(bundle_dir), ServiceConfig(),
            journal=IngestJournal(journal_dir))
        start = time.perf_counter()
        full_summary = full.replay_journal()
        full_seconds = time.perf_counter() - start
        full_state = _fingerprint(full)
        full.stop()

        snap = TaxonomyService(
            ArtifactBundle.load(bundle_dir), ServiceConfig(),
            journal=IngestJournal(journal_dir),
            snapshots=SnapshotStore(snap_dir))
        start = time.perf_counter()
        snap_summary = snap.recover()
        snap_seconds = time.perf_counter() - start
        snap_state = _fingerprint(snap)
        snap.stop()

        failures = 0
        if full_state != live:
            failures += 1
        if snap_state != live:
            failures += 1
        full_batches = full_summary["ingest"]
        tail_batches = snap_summary["ingest"]
        if tail_batches >= full_batches:
            failures += 1  # the tail must be strictly shorter
        return {
            "history_records": history,
            "tail_records": tail,
            "full_replay_seconds": full_seconds,
            "full_replay_batches": full_batches,
            "snapshot_recover_seconds": snap_seconds,
            "snapshot_tail_batches": tail_batches,
            "speedup": full_seconds / snap_seconds,
        }, failures
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
        shutil.rmtree(snap_dir, ignore_errors=True)


def _timed_respawn(bundle_dir: str, probe: list, deltas: int) -> dict:
    """Time a SIGKILLed shared worker's return to service with the full
    cumulative delta log vs the post-compaction tail."""
    bundle = ArtifactBundle.load(bundle_dir)
    engine = bundle.engine
    parents = sorted({parent for parent, _ in probe})

    def kill_and_time(pool):
        victim = pool._workers[0]
        victim.process.kill()
        victim.process.join()
        start = time.perf_counter()
        try:
            pool.score_pairs(probe)
        except RuntimeError:
            pool.score_pairs(probe)
        return time.perf_counter() - start

    with ShardedScorerPool(bundle_dir, num_workers=1, share_memory=True,
                           watchdog_interval=None) as pool:
        edges = [(parents[i % len(parents)], f"delta node {i}")
                 for i in range(deltas)]
        for k in range(0, deltas, 8):
            batch = edges[k:k + 8]
            engine.apply_attachments(list(batch))
            pool.broadcast_attachments(batch)
        full_seconds = kill_and_time(pool)
        # The snapshot moment: republish the parent engine state, fold
        # the log; only the post-snapshot tail replays from here on.
        pool.compact_deltas(engine)
        tail_edges = [(parents[0], "post snapshot delta a"),
                      (parents[0], "post snapshot delta b")]
        engine.apply_attachments(list(tail_edges))
        pool.broadcast_attachments(tail_edges)
        tail_seconds = kill_and_time(pool)
        stats = pool.stats_snapshot()
        return {
            "delta_edges": deltas,
            "full_respawn_seconds": full_seconds,
            "tail_respawn_seconds": tail_seconds,
            "tail_edges_replayed": len(tail_edges),
            "delta_replays": stats.delta_replays,
        }


def run_bench(profile: str = "default") -> dict:
    spec = PROFILES[profile]
    pipeline, base = _recovery_pipeline()
    bundle_dir = tempfile.mkdtemp(prefix="bench_rec_bundle_")
    try:
        ArtifactBundle.export(pipeline, bundle_dir)
        probe = [s.pair for s in pipeline.dataset.all_pairs][:8]
        parity_failures = 0
        cold = {}
        for label, scale in (("small", max(spec["batch"],
                                           spec["history"] // 10)),
                             ("grown", spec["history"])):
            cold[label], failures = _timed_cold_starts(
                bundle_dir, base, scale, spec["tail"], spec["batch"])
            parity_failures += failures
        respawn = {}
        for label, scale in (("small", max(8, spec["deltas"] // 10)),
                             ("grown", spec["deltas"])):
            respawn[label] = _timed_respawn(bundle_dir, probe, scale)
        return {
            "profile": profile,
            "cold_start": cold,
            "cold_start_flatness": (
                cold["grown"]["snapshot_recover_seconds"]
                / cold["small"]["snapshot_recover_seconds"]),
            "speedup_at_scale": cold["grown"]["speedup"],
            "respawn": respawn,
            "respawn_flatness": (
                respawn["grown"]["tail_respawn_seconds"]
                / respawn["small"]["tail_respawn_seconds"]),
            "flatness_ceiling": FLATNESS_CEILING,
            "speedup_floor": SPEEDUP_FLOOR,
            "parity_failures": parity_failures,
        }
    finally:
        shutil.rmtree(bundle_dir, ignore_errors=True)


def report(results: dict) -> None:
    print(f"profile               : {results['profile']}")
    for label in ("small", "grown"):
        row = results["cold_start"][label]
        print(f"cold start ({label:<6})   : "
              f"{row['history_records']} records -> full replay "
              f"{row['full_replay_seconds']:.3f}s, snapshot+tail "
              f"{row['snapshot_recover_seconds']:.3f}s "
              f"({row['speedup']:.1f}x)")
    print(f"cold-start flatness   : "
          f"{results['cold_start_flatness']:.2f}x across 10x history "
          f"(ceiling {results['flatness_ceiling']:.1f}x)")
    for label in ("small", "grown"):
        row = results["respawn"][label]
        print(f"worker respawn ({label:<6}): {row['delta_edges']} deltas "
              f"-> full {row['full_respawn_seconds']:.3f}s, "
              f"post-snapshot tail {row['tail_respawn_seconds']:.3f}s")
    print(f"respawn flatness      : {results['respawn_flatness']:.2f}x "
          f"across 10x deltas")
    print(f"parity failures       : {results['parity_failures']} "
          f"(recovered state vs live state)")


def test_recovery_speedup(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report(results)
    assert results["parity_failures"] == 0, \
        "a recovery path diverged from the live pre-crash state"
    assert results["speedup_at_scale"] >= SPEEDUP_FLOOR, (
        "snapshot+tail recovery must beat full replay by >= 10x, got "
        f"{results['speedup_at_scale']:.1f}x")
    assert results["cold_start_flatness"] <= FLATNESS_CEILING, (
        "cold-start time must stay flat as history grows 10x, got "
        f"{results['cold_start_flatness']:.2f}x")
    assert results["respawn_flatness"] <= FLATNESS_CEILING, (
        "worker-respawn time must stay flat as the delta log grows "
        f"10x, got {results['respawn_flatness']:.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="default")
    parser.add_argument("--output", help="write results JSON here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero below this snapshot-vs-full "
                             "replay speedup at scale")
    args = parser.parse_args()
    results = run_bench(args.profile)
    report(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        print(f"wrote {args.output}")
    if results["parity_failures"]:
        raise SystemExit("parity contract violated: a recovery path "
                         "diverged from the live pre-crash state")
    if args.min_speedup is not None and \
            results["speedup_at_scale"] < args.min_speedup:
        raise SystemExit(
            f"speedup contract violated: {results['speedup_at_scale']:.1f}x "
            f"< {args.min_speedup:.1f}x")


if __name__ == "__main__":
    main()

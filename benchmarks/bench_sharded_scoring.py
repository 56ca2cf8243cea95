"""Sharded scoring throughput — single process vs. ShardedScorerPool.

The single-process serving path serialises every request behind the one
compiled :class:`~repro.infer.InferenceEngine` workspace lock, so a
multi-core host scores no faster than a single core allows.  This bench
fits one pipeline, exports its artifact bundle, and measures the serving
scoring path (distinct-pair batches, no score-cache effects) through

* **single**: one in-process engine (the PR-2 fast path),
* **pool(N)**: a :class:`~repro.serving.ShardedScorerPool` of N worker
  processes, each with its own bundle + engine, pairs hash-partitioned
  across them.

It also verifies the cross-process parity contract: per-pair scores from
the pool must match the single-process engine within the documented
float32 tolerance (sharding changes batch composition, which perturbs
float32 GEMM reduction order below 1e-4 but never rankings) — the bench
exits non-zero on violation.

Acceptance target (ISSUE 3): >= 2.5x pairs/sec at 4 workers vs 1 worker
**on a host with >= 4 usable cores**.  Scoring is CPU-bound numpy, so a
1-core container cannot exceed ~1x no matter how the work is spread; the
JSON artifact records the usable cores (CPU affinity, which the pool's
BLAS thread budget divides among workers), numpy's BLAS build and each
pool worker's BLAS thread count, so dashboards can gate accordingly,
and ``--min-speedup`` turns the target into a hard exit code where the
hardware supports it.

It further measures the zero-copy shared-memory worker path (ISSUE 7):
per-worker **incremental USS** (unique-set-size minus an import-only
stub baseline — COW and shm-mapped pages are uncounted, so a private
worker is billed its weight copy and a shared worker only its scratch)
and **cold-respawn latency**
(spawn-to-ready, parent-side clock) for a private-copy pool vs a
shared-segment pool of the same size, asserting the two pools score
bit-identically.  Shared workers map the parent's one weight copy, so
their incremental memory is bounded by scratch buffers and their respawn
skips the bundle load + engine compile entirely.

Run standalone (JSON artifact for CI)::

    PYTHONPATH=src python benchmarks/bench_sharded_scoring.py \
        --profile tiny --output sharded_bench.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import tempfile
import time

import numpy as np

from repro.core import (
    DetectorConfig, PipelineConfig, TaxonomyExpansionPipeline,
)
from repro.gnn import ContrastiveConfig, StructuralConfig
from repro.nn import SCORE_TOLERANCE
from repro.plm import PretrainConfig
from repro.serving import ArtifactBundle, ShardedScorerPool
from repro.serving.blas import usable_cores
from repro.synthetic import (
    ClickLogConfig, UgcConfig, WorldConfig, build_world,
    generate_click_logs, generate_ugc,
)

#: workload sizing per profile: (total pair scorings, batch size, reps)
PROFILES = {
    "default": (4096, 512, 3),
    "tiny": (512, 128, 2),
    # weights large enough that the model (not interpreter scratch)
    # dominates per-worker memory — the honest profile for the shm bench
    "large": (2048, 512, 2),
}

#: pool sizes measured, in order
WORKER_COUNTS = (1, 2, 4)


def _world_config(profile: str) -> WorldConfig:
    if profile == "tiny":
        return WorldConfig(
            domain="fruits", seed=7, num_categories=4,
            children_per_category=(3, 5), max_depth=3,
            headword_fraction=0.8, children_per_node=(0, 2),
            holdout_fraction=0.2)
    if profile == "large":
        return WorldConfig(
            domain="fruits", seed=7, num_categories=10,
            children_per_category=(5, 8), max_depth=4,
            headword_fraction=0.8, children_per_node=(0, 3),
            holdout_fraction=0.2)
    return WorldConfig(
        domain="fruits", seed=7, num_categories=8,
        children_per_category=(4, 7), max_depth=4,
        headword_fraction=0.8, children_per_node=(0, 3),
        holdout_fraction=0.2)


def _pipeline_config(profile: str) -> PipelineConfig:
    if profile == "tiny":
        return PipelineConfig(
            seed=0, bert_dim=16, bert_ffn=32,
            pretrain=PretrainConfig(steps=10, batch_size=8,
                                    strategy="concept"),
            contrastive=ContrastiveConfig(steps=3),
            structural=StructuralConfig(hidden_dim=8, position_dim=2),
            detector=DetectorConfig(epochs=1, batch_size=16))
    if profile == "large":
        # Minimal training, large weights: the shm comparison measures
        # resident arrays, not model quality.
        return PipelineConfig(
            seed=0, bert_dim=128, bert_layers=4, bert_heads=4,
            bert_ffn=512,
            pretrain=PretrainConfig(steps=4, batch_size=8,
                                    strategy="concept"),
            contrastive=ContrastiveConfig(steps=2),
            structural=StructuralConfig(hidden_dim=64, position_dim=8),
            detector=DetectorConfig(epochs=1, batch_size=16))
    # Standard architecture so per-pair cost matches serving reality.
    return PipelineConfig(
        seed=0,
        pretrain=PretrainConfig(steps=40, batch_size=8,
                                strategy="concept"),
        contrastive=ContrastiveConfig(steps=8),
        detector=DetectorConfig(epochs=1, batch_size=16))


def _export_bundle(profile: str) -> tuple[str, list]:
    world = build_world(_world_config(profile))
    click_log = generate_click_logs(world, ClickLogConfig(
        seed=5, clicks_per_query=40))
    ugc = generate_ugc(world, UgcConfig(seed=5, sentences_per_edge=2.0))
    pipeline = TaxonomyExpansionPipeline(_pipeline_config(profile))
    pipeline.fit(world.existing_taxonomy, world.vocabulary, click_log, ugc)
    directory = tempfile.mkdtemp(prefix="sharded_bench_bundle_")
    ArtifactBundle.export(pipeline, directory,
                          taxonomy=world.existing_taxonomy,
                          vocabulary=world.vocabulary)
    unique = sorted({s.pair for s in pipeline.dataset.all_pairs})
    return directory, unique


def _numpy_blas() -> dict:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown")}


def _throughput(score, pairs: list, batch: int, reps: int) -> float:
    """Best-of-``reps`` pairs/sec for ``score`` over the workload."""
    score(pairs[:8])  # warm caches / worker pipes
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for lo in range(0, len(pairs), batch):
            score(pairs[lo:lo + batch])
        best = min(best, time.perf_counter() - start)
    return len(pairs) / best


def _uss_bytes(pid: int) -> int | None:
    """Unique set size of ``pid`` in bytes (Linux; None elsewhere).

    USS counts only pages private to the process: fork-COW pages the
    worker never wrote stay shared (uncounted) and so do mapped
    shared-memory segments — so a private worker is billed its own
    weight copy while a shared worker is billed only its scratch.
    That is exactly the "incremental memory per extra worker" a
    capacity planner pays.
    """
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1]) * 1024
    except OSError:
        return None
    return total


def _stub_main(conn) -> None:
    """Import-only worker: the memory floor every real worker pays."""
    import numpy  # noqa: F401  (resident for the baseline measurement)
    from repro.serving import artifacts  # noqa: F401
    conn.send(os.getpid())
    conn.recv()  # hold until the parent has measured us


def _stub_uss(ctx) -> int | None:
    """USS of a forked stub that imports serving code but loads nothing."""
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(target=_stub_main, args=(child_conn,),
                          daemon=True)
    process.start()
    child_conn.close()
    parent_conn.recv()
    time.sleep(0.1)  # let the allocator settle
    baseline = _uss_bytes(process.pid)
    parent_conn.send("done")
    process.join(5.0)
    return baseline


def _measure_pool_memory(pool, warm_pairs: list) -> list[int]:
    """USS of every live pool worker after a light scoring warm-up.

    Warming with a few pairs exercises the full attach/load + scoring
    path without inflating every worker with the workload's transient
    GEMM scratch (identical in both modes, and returned to the
    allocator — but allocator arenas stay dirty and would mask the
    weight-copy difference this measurement exists to show).
    """
    pool.score_pairs(warm_pairs[:8])
    time.sleep(0.2)  # let COW faults from scoring settle
    readings = []
    for worker in pool._workers:
        uss = _uss_bytes(worker.process.pid)
        if uss is not None:
            readings.append(uss)
    return readings


def _measure_respawns(pool, kills: int) -> list[float]:
    """Spawn-to-ready seconds across ``kills`` forced worker deaths."""
    before = pool.respawn_stats()["count"]
    for _ in range(kills):
        worker = pool._workers[0]
        worker.process.terminate()
        worker.process.join(10.0)
        deadline = time.monotonic() + 10.0
        while worker.alive and time.monotonic() < deadline:
            time.sleep(0.02)  # reader thread notices the EOF
        pool._dispatch(0, "ping").wait(60.0)  # respawn inside dispatch
    return pool.respawn_stats()["samples"][before:]


def run_shm_bench(directory: str, unique: list, workers: int = 4,
                  kills: int = 3) -> dict:
    """Private-copy vs shared-segment pool: memory, respawn, parity."""
    from repro.serving import ShardedScorerPool

    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                         else "spawn")
    stub = _stub_uss(ctx)
    results: dict = {"workers": workers, "respawn_kills": kills,
                     "stub_uss_bytes": stub}
    scores: dict[str, np.ndarray] = {}
    for mode, share in (("private", False), ("shared", True)):
        with ShardedScorerPool(directory, num_workers=workers,
                               share_memory=share,
                               watchdog_interval=None) as pool:
            readings = _measure_pool_memory(pool, unique)
            scores[mode] = np.asarray(pool.score_pairs(unique))
            incremental = ([max(1, uss - stub) for uss in readings]
                           if stub is not None else [])
            respawns = _measure_respawns(pool, kills)
            entry = {
                "worker_uss_bytes": readings,
                "incremental_bytes": incremental,
                "mean_incremental_bytes": (
                    float(np.mean(incremental)) if incremental else None),
                "respawn_seconds": respawns,
                "mean_respawn_seconds": (
                    float(np.mean(respawns)) if respawns else None),
                "worker_modes": [w.mode for w in pool._workers],
                "blas_threads": pool.blas_thread_counts()["workers"],
            }
            if share:
                shm = pool.shared_memory_stats()
                entry["segments"] = shm["segments"]
                entry["segment_bytes"] = shm["bytes"]
                entry["attach_failures"] = shm["attach_failures"]
            results[mode] = entry
    private, shared = results["private"], results["shared"]
    if private["mean_incremental_bytes"] and shared["mean_incremental_bytes"]:
        results["rss_reduction"] = (private["mean_incremental_bytes"]
                                    / shared["mean_incremental_bytes"])
    else:
        results["rss_reduction"] = None
    if private["mean_respawn_seconds"] and shared["mean_respawn_seconds"]:
        results["respawn_speedup"] = (private["mean_respawn_seconds"]
                                      / shared["mean_respawn_seconds"])
    else:
        results["respawn_speedup"] = None
    results["parity_bitwise"] = bool(
        np.array_equal(scores["private"], scores["shared"]))
    return results


def run_bench(profile: str = "default",
              worker_counts: tuple[int, ...] = WORKER_COUNTS,
              shm_workers: int = 4, shm_kills: int = 3) -> dict:
    total, batch, reps = PROFILES[profile]
    directory, unique = _export_bundle(profile)
    workload = (unique * (total // len(unique) + 1))[:total]

    single_bundle = ArtifactBundle.load(directory)
    reference = np.asarray(single_bundle.score_pairs(unique))
    single_pps = _throughput(single_bundle.score_pairs, workload,
                             batch, reps)

    pool_pps: dict[int, float] = {}
    pool_blas: dict[int, list] = {}
    max_delta = 0.0
    for count in worker_counts:
        with ShardedScorerPool(directory, num_workers=count) as pool:
            pooled = np.asarray(pool.score_pairs(unique))
            max_delta = max(max_delta,
                            float(np.abs(pooled - reference).max()))
            pool_pps[count] = _throughput(pool.score_pairs, workload,
                                          batch, reps)
            pool_blas[count] = pool.blas_thread_counts()["workers"]

    shm = (run_shm_bench(directory, unique, workers=shm_workers,
                         kills=shm_kills)
           if shm_workers else None)

    lo, hi = min(pool_pps), max(pool_pps)
    return {
        "profile": profile,
        "distinct_pairs": len(unique),
        "total_pairs": total,
        "batch_size": batch,
        "usable_cores": usable_cores(),
        "blas": _numpy_blas(),
        "single_pps": single_pps,
        "pool_pps": {str(count): pps for count, pps in pool_pps.items()},
        "pool_blas_threads": {str(count): threads
                              for count, threads in pool_blas.items()},
        # Honest labelling: the baseline is the smallest measured pool,
        # which is 1 worker unless --workers excluded it.
        "speedup_baseline_workers": lo,
        "speedup_top_workers": hi,
        "speedup_max_vs_baseline": pool_pps[hi] / pool_pps[lo],
        "max_abs_score_delta": max_delta,
        "score_tolerance": SCORE_TOLERANCE,
        "parity_ok": max_delta < SCORE_TOLERANCE,
        "shm": shm,
    }


def report(results: dict) -> None:
    print(f"profile            : {results['profile']}")
    print(f"workload           : {results['total_pairs']} scorings "
          f"({results['distinct_pairs']} distinct pairs, "
          f"batch {results['batch_size']})")
    blas = results["blas"]
    print(f"host               : {results['usable_cores']} usable cores, "
          f"{blas['name']} {blas['version']}")
    print(f"single process     : {results['single_pps']:.0f} pairs/sec")
    for count, pps in sorted(results["pool_pps"].items(),
                             key=lambda kv: int(kv[0])):
        threads = results["pool_blas_threads"][count]
        print(f"pool ({count} workers)   : {pps:.0f} pairs/sec "
              f"(BLAS threads per worker {threads})")
    print(f"speedup ({results['speedup_top_workers']} vs "
          f"{results['speedup_baseline_workers']} workers) : "
          f"{results['speedup_max_vs_baseline']:.2f}x")
    print(f"max |score delta|  : {results['max_abs_score_delta']:.2e} "
          f"(tolerance {results['score_tolerance']:.0e})")
    shm = results.get("shm")
    if shm:
        workers = shm["workers"]
        for mode in ("private", "shared"):
            entry = shm[mode]
            incr = entry["mean_incremental_bytes"]
            respawn = entry["mean_respawn_seconds"]
            incr_text = f"{incr / 1024:.0f} KiB" if incr else "n/a"
            respawn_text = f"{respawn * 1e3:.1f} ms" if respawn else "n/a"
            print(f"{mode:7} x{workers}         : {incr_text} "
                  f"incremental USS/worker, respawn {respawn_text}")
        reduction = shm["rss_reduction"]
        speedup = shm["respawn_speedup"]
        print(f"shm wins           : "
              f"{f'{reduction:.1f}x' if reduction else 'n/a'} less "
              f"memory/worker, "
              f"{f'{speedup:.1f}x' if speedup else 'n/a'} faster respawn, "
              f"bitwise parity {shm['parity_bitwise']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="default")
    parser.add_argument("--workers", type=int, nargs="*", default=None,
                        help="pool sizes to measure "
                             f"(default {list(WORKER_COUNTS)})")
    parser.add_argument("--output", help="write results JSON here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when the largest pool is "
                             "below this multiple of the 1-worker pool "
                             "(use on >= 4-core hosts; requires 1 in "
                             "the measured worker counts)")
    parser.add_argument("--shm-workers", type=int, default=4,
                        help="pool size for the shared-memory memory/"
                             "respawn comparison (0 skips it)")
    parser.add_argument("--shm-kills", type=int, default=3,
                        help="forced worker deaths per mode for the "
                             "respawn-latency sample")
    args = parser.parse_args()
    counts = tuple(args.workers) if args.workers else WORKER_COUNTS
    if args.min_speedup is not None and 1 not in counts:
        parser.error("--min-speedup needs a 1-worker baseline; "
                     "include 1 in --workers")
    results = run_bench(args.profile, counts,
                        shm_workers=args.shm_workers,
                        shm_kills=args.shm_kills)
    report(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        print(f"wrote {args.output}")
    if not results["parity_ok"]:
        raise SystemExit("parity contract violated: pool scores diverged "
                         "from the single-process engine")
    if results["shm"] and not results["shm"]["parity_bitwise"]:
        raise SystemExit("parity contract violated: shared-view scores "
                         "diverged from the private-copy pool")
    if args.min_speedup is not None and \
            results["speedup_max_vs_baseline"] < args.min_speedup:
        raise SystemExit(
            f"speedup {results['speedup_max_vs_baseline']:.2f}x below "
            f"required {args.min_speedup:.2f}x")


if __name__ == "__main__":
    main()

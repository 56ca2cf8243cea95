"""Incremental recompute-on-ingest — dirty frontier vs full rebuild.

When streamed ingestion attaches a concept, the inference engine merges
the new edges into its live structural graph and recomputes only the
k-hop neighbourhood the edges can influence
(:meth:`~repro.infer.InferenceEngine.apply_attachments`).  This bench
builds a 2k-node taxonomy-shaped graph, streams attachment batches, and
times

* **full rebuild**: K-hop propagation over every node
  (:meth:`~repro.infer.InferenceEngine.recompute_structural`) — what a
  recompile-on-ingest without frontier tracking would pay per batch,
* **frontier**: the incremental pass actually run per attachment.

It also verifies the parity contract: after all attachments, the
engine's node embeddings must match a freshly built autograd
:class:`~repro.gnn.StructuralEncoder` over the engine's exported arrays
within 1e-4 (exits non-zero on violation).

Acceptance target (ISSUE 4): frontier >= 5x faster than full rebuild.

Run standalone (JSON artifact for CI)::

    PYTHONPATH=src python benchmarks/bench_incremental_recompute.py \
        --profile tiny --output recompute_bench.json
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.core.detector import DetectorConfig, HyponymyDetector
from repro.gnn import StructuralConfig, StructuralEncoder

#: workload sizing per profile: (taxonomy nodes, attachment batches)
PROFILES = {
    "default": (2000, 32),
    "tiny": (300, 8),
}

PARITY_TOLERANCE = 1e-4
FULL_REBUILD_REPS = 3


def _taxonomy_graph(num_nodes: int, seed: int = 0
                    ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A random taxonomy-shaped graph: a tree of unit-weight edges plus
    weighted click edges, dense-adjacency form with self-loops."""
    rng = np.random.default_rng(seed)
    nodes = [f"concept {i:05d}" for i in range(num_nodes)]
    adjacency = np.zeros((num_nodes, num_nodes))
    for child in range(1, num_nodes):
        parent = int(rng.integers(0, child))
        adjacency[parent, child] = adjacency[child, parent] = 1.0
    for _ in range(num_nodes // 2):
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v and adjacency[u, v] == 0.0:
            weight = float(rng.uniform(0.5, 2.0))
            adjacency[u, v] = adjacency[v, u] = weight
    np.fill_diagonal(adjacency, 1.0)
    features = rng.normal(0.0, 0.3, size=(num_nodes, 32))
    return nodes, adjacency, features


def _compiled_engine(num_nodes: int):
    nodes, adjacency, features = _taxonomy_graph(num_nodes)
    encoder = StructuralEncoder.from_arrays(
        nodes, features, adjacency,
        StructuralConfig(hidden_dim=32, num_hops=2, aggregator="gcn"))
    detector = HyponymyDetector(
        None, encoder,
        DetectorConfig(use_relational=False, use_structural=True))
    return encoder, detector.compile_inference()


def run_bench(profile: str = "default") -> dict:
    num_nodes, batches = PROFILES[profile]
    encoder, engine = _compiled_engine(num_nodes)
    rng = np.random.default_rng(7)

    full_seconds = float("inf")
    for _ in range(FULL_REBUILD_REPS):
        start = time.perf_counter()
        engine.recompute_structural()
        full_seconds = min(full_seconds, time.perf_counter() - start)

    # Warm the incremental path (first-call allocations, kernel caches)
    # before timing, mirroring the other benches' warm-up calls.
    engine.apply_attachments(
        [(f"concept {0:05d}", "warmup streamed concept")])

    frontier_seconds: list[float] = []
    rows_recomputed: list[int] = []
    for batch in range(batches):
        anchor = f"concept {int(rng.integers(0, num_nodes)):05d}"
        sibling = f"concept {int(rng.integers(0, num_nodes)):05d}"
        edges = [(anchor, f"streamed concept {batch}")]
        if anchor != sibling:
            edges.append((anchor, sibling))
        start = time.perf_counter()
        summary = engine.apply_attachments(edges)
        frontier_seconds.append(time.perf_counter() - start)
        rows_recomputed.append(summary["rows_recomputed"])

    parity = float(np.abs(
        _oracle_matrix(engine, encoder)
        - engine.node_embedding_matrix()).max())

    mean_frontier = float(np.mean(frontier_seconds))
    return {
        "profile": profile,
        "taxonomy_nodes": num_nodes,
        "live_nodes": int(engine.stats.structural_nodes),
        "attachment_batches": batches,
        "full_rebuild_ms": full_seconds * 1e3,
        "frontier_mean_ms": mean_frontier * 1e3,
        "frontier_p95_ms": float(np.percentile(frontier_seconds, 95)) * 1e3,
        "mean_rows_recomputed": float(np.mean(rows_recomputed)),
        "full_rows_recomputed": 2 * int(engine.stats.structural_nodes),
        "speedup": full_seconds / mean_frontier,
        "max_abs_embedding_delta": parity,
        "parity_tolerance": PARITY_TOLERANCE,
    }


def _oracle_matrix(engine, encoder) -> np.ndarray:
    """Node embeddings of a from-scratch autograd encoder over the
    engine's incrementally grown arrays (the parity oracle)."""
    arrays = engine.structural_arrays()
    oracle = StructuralEncoder.from_arrays(
        arrays["nodes"], arrays["features"], arrays["adjacency"],
        encoder.config)
    oracle.load_state_dict(encoder.state_dict())
    return oracle.node_embedding_matrix()


def report(results: dict) -> None:
    print(f"profile              : {results['profile']}")
    print(f"taxonomy             : {results['taxonomy_nodes']} nodes "
          f"({results['live_nodes']} after "
          f"{results['attachment_batches']} attachment batches)")
    print(f"full rebuild         : {results['full_rebuild_ms']:.2f} ms "
          f"({results['full_rows_recomputed']} row recomputes)")
    print(f"frontier (mean)      : {results['frontier_mean_ms']:.3f} ms "
          f"({results['mean_rows_recomputed']:.1f} row recomputes)")
    print(f"frontier (p95)       : {results['frontier_p95_ms']:.3f} ms")
    print(f"speedup              : {results['speedup']:.1f}x")
    print(f"max |embedding delta|: {results['max_abs_embedding_delta']:.2e}"
          f" (tolerance {results['parity_tolerance']:.0e})")


def test_incremental_recompute_speedup(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report(results)
    assert results["max_abs_embedding_delta"] < \
        results["parity_tolerance"]
    assert results["speedup"] >= 5.0, (
        "frontier recompute must beat a full rebuild by at least 5x, "
        f"got {results['speedup']:.1f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="default")
    parser.add_argument("--output", help="write results JSON here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero below this speedup")
    args = parser.parse_args()
    results = run_bench(args.profile)
    report(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
        print(f"wrote {args.output}")
    if results["max_abs_embedding_delta"] >= results["parity_tolerance"]:
        raise SystemExit("parity contract violated")
    if args.min_speedup is not None and \
            results["speedup"] < args.min_speedup:
        raise SystemExit(
            f"speedup {results['speedup']:.1f}x below required "
            f"{args.min_speedup:.1f}x")


if __name__ == "__main__":
    main()

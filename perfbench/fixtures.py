"""Seeded fixtures and reference answers for the serving benchmark.

The benchmark's client process stays free of numpy, so everything that
needs the model runs here, in a helper process of its own::

    python3 perfbench/fixtures.py fit --out DIR
    python3 perfbench/fixtures.py inputs --seed N --out DIR
    python3 perfbench/fixtures.py check-scores --bundle DIR --pairs FILE
    python3 perfbench/fixtures.py grow-reference --bundle DIR \\
        --inputs FILE --batches K1,K2,... --cache FILE
    python3 perfbench/fixtures.py host

``fit`` fits the ``fruits`` preset once, with the default model
dimensions and a short training schedule, and exports the serving
bundle; ``inputs`` writes a seed's workload inputs (taxonomy nodes,
vocabulary, the click-log batches ``grow`` ingests and the concepts it
suggests for).
``check-scores`` re-scores served pairs with an in-process
``InferenceEngine``; ``grow-reference`` replays the ingest batches
through an in-process ``TaxonomyService`` and digests the edge set
after each batch; ``host`` reports numpy and its BLAS.  Each command
prints one JSON object as its last line of output.

The client imports this module too, for :func:`run_helper` and
:func:`edge_digest`; the model imports happen inside the commands.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: click-log records per ``grow`` ingest batch
INGEST_BATCH_RECORDS = 50
#: clicks per query of the ``grow`` log: about 256 batches of 50 records
GROW_CLICKS_PER_QUERY = 40
#: the model is fitted once, with this seed and a short training
#: schedule at the default model dimensions
MODEL_SEED = 0
PRETRAIN_STEPS = 150
CONTRASTIVE_STEPS = 20
DETECTOR_EPOCHS = 2


def edge_digest(edges) -> str:
    """Order-independent SHA-256 of a taxonomy edge set."""
    canonical = sorted([str(parent), str(child)] for parent, child in edges)
    return hashlib.sha256(
        json.dumps(canonical, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def helper_env() -> dict:
    """The environment helpers and servers run with: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_helper(*args: str, timeout: float = 170.0) -> dict:
    """Run one helper command in its own process; its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "fixtures.py"), *args],
        env=helper_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"fixtures {args[0]} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# helper commands (model imports stay inside them)
# ----------------------------------------------------------------------
def _world():
    from repro.synthetic import DOMAIN_PRESETS, build_world
    return build_world(DOMAIN_PRESETS["fruits"])


def fit(out: str) -> dict:
    """Fit the model once and export the serving bundle to ``out``.

    The model seed is fixed: the system under test is the same for
    every workload seed, which varies only the traffic.
    """
    from repro.core import (
        DetectorConfig, PipelineConfig, TaxonomyExpansionPipeline,
    )
    from repro.gnn import ContrastiveConfig
    from repro.plm import PretrainConfig
    from repro.serving import ArtifactBundle
    from repro.synthetic import ClickLogConfig, UgcConfig, \
        generate_click_logs, generate_ugc

    world = _world()
    train_log = generate_click_logs(world, ClickLogConfig(
        seed=MODEL_SEED, clicks_per_query=GROW_CLICKS_PER_QUERY))
    ugc = generate_ugc(world, UgcConfig(seed=MODEL_SEED + 1,
                                        sentences_per_edge=2.0))
    pipeline = TaxonomyExpansionPipeline(PipelineConfig(
        seed=MODEL_SEED,
        pretrain=PretrainConfig(steps=PRETRAIN_STEPS, batch_size=16,
                                lr=3e-3, strategy="concept",
                                seed=MODEL_SEED),
        contrastive=ContrastiveConfig(steps=CONTRASTIVE_STEPS,
                                      seed=MODEL_SEED),
        detector=DetectorConfig(epochs=DETECTOR_EPOCHS, batch_size=16,
                                lr=3e-3, plm_lr=3e-4, seed=MODEL_SEED)))
    pipeline.fit(world.existing_taxonomy, world.vocabulary, train_log, ugc)
    staging = out + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    ArtifactBundle.export(pipeline, staging,
                          taxonomy=world.existing_taxonomy,
                          vocabulary=world.vocabulary)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(staging, out)
    return {"nodes": world.existing_taxonomy.num_nodes,
            "concepts": len(world.vocabulary)}


def inputs(seed: int, out: str) -> dict:
    """Write the seed's workload inputs to ``out/inputs.json``.

    Taxonomy nodes and vocabulary (the score pairs are drawn from their
    product), the day's click log that ``grow`` ingests — a fresh draw,
    shuffled into a fixed sequence of small batches — and the log's
    concepts that ``grow`` asks suggestions for.
    """
    from repro.synthetic import ClickLogConfig, generate_click_logs

    world = _world()
    grow_log = generate_click_logs(world, ClickLogConfig(
        seed=seed, clicks_per_query=GROW_CLICKS_PER_QUERY))
    rng = random.Random(seed)
    records = [[query, item, int(count)]
               for (query, item), count in sorted(grow_log.counts.items())]
    rng.shuffle(records)
    batches = [records[start:start + INGEST_BATCH_RECORDS]
               for start in range(0, len(records), INGEST_BATCH_RECORDS)]
    log_concepts = sorted({query for query, _item in grow_log.counts}
                          | {concept for concept
                             in grow_log.provenance.values() if concept})
    rng.shuffle(log_concepts)
    payload = {
        "seed": seed,
        "nodes": sorted(world.existing_taxonomy.nodes),
        "concepts": sorted(world.vocabulary),
        "batches": batches,
        "suggest_queries": log_concepts,
    }
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "inputs.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)
    return {"batches": len(batches), "records": len(records)}


def check_scores(bundle_dir: str, pairs_file: str) -> dict:
    """Served scores against an in-process engine on the same bundle."""
    from repro.serving import ArtifactBundle

    with open(pairs_file, encoding="utf-8") as handle:
        served = json.load(handle)
    engine = ArtifactBundle.load(bundle_dir).pipeline.compile_inference()
    pairs = [(parent, child) for parent, child, _score in served]
    reference = engine.score_pairs(pairs).tolist() if pairs else []
    diffs = [abs(row[2] - ref) for row, ref in zip(served, reference)]
    tolerance = float(engine.score_tolerance)
    return {"checked": len(diffs),
            "mismatches": sum(diff > tolerance for diff in diffs),
            "max_abs_diff": max(diffs, default=0.0),
            "tolerance": tolerance}


def grow_reference(bundle_dir: str, inputs_file: str, prefixes: list,
                   cache_file: str) -> dict:
    """Edge-set digests after the first ``k`` ingest batches, per ``k``.

    Replays the batch sequence through an in-process service built from
    the same bundle, digesting the edge set after every batch; digests
    are cached per seed, and a replay runs a quarter past the longest
    prefix asked for so reruns of the seed rarely replay again.
    """
    longest = max(prefixes)
    digests: list[str] = []
    if os.path.exists(cache_file):
        with open(cache_file, encoding="utf-8") as handle:
            digests = json.load(handle)["digests"]
    if len(digests) < longest:
        from repro.serving import ArtifactBundle, TaxonomyService

        with open(inputs_file, encoding="utf-8") as handle:
            sequence = json.load(handle)["batches"]
        target = min(len(sequence), longest + max(8, longest // 4))
        digests = []
        with TaxonomyService(ArtifactBundle.load(bundle_dir)) as service:
            for batch in sequence[:target]:
                service.ingest(batch, sync=True)
                digests.append(edge_digest(
                    service.taxonomy_state()["edges"]))
        with open(cache_file + ".tmp", "w", encoding="utf-8") as handle:
            json.dump({"digests": digests}, handle)
        os.replace(cache_file + ".tmp", cache_file)
    if longest > len(digests):
        raise ValueError(f"only {len(digests)} batches in the sequence")
    return {"digests": {str(k): digests[k - 1] for k in prefixes}}


def _openblas_threads() -> int | None:
    """``openblas_get_num_threads`` of the BLAS numpy loaded, via ctypes."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle
                        if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def host() -> dict:
    """numpy version, BLAS vendor/version and its effective threads."""
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass  # numpy without dict-mode config: vendor stays unknown
    return {"numpy": numpy.__version__,
            "blas_vendor": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": _openblas_threads()}


def main(argv=None) -> int:
    """Dispatch one helper command and print its JSON result."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fit").add_argument("--out", required=True)
    seeded = sub.add_parser("inputs")
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("--out", required=True)
    check = sub.add_parser("check-scores")
    check.add_argument("--bundle", required=True)
    check.add_argument("--pairs", required=True)
    grow = sub.add_parser("grow-reference")
    grow.add_argument("--bundle", required=True)
    grow.add_argument("--inputs", required=True)
    grow.add_argument("--batches", required=True,
                      help="comma-separated prefix lengths")
    grow.add_argument("--cache", required=True)
    sub.add_parser("host")
    args = parser.parse_args(argv)
    if args.command == "fit":
        result = fit(args.out)
    elif args.command == "inputs":
        result = inputs(args.seed, args.out)
    elif args.command == "check-scores":
        result = check_scores(args.bundle, args.pairs)
    elif args.command == "grow-reference":
        result = grow_reference(
            args.bundle, args.inputs,
            [int(k) for k in args.batches.split(",")], args.cache)
    else:
        result = host()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scenario: the full resilient-serving lifecycle, end to end.

Walks the production-shaped path that ``docs/operations.md`` describes,
entirely in one script — every HTTP interaction goes through the
``/v1`` API via the :class:`repro.api.TaxonomyClient` SDK (no raw
urllib plumbing):

1. **fit** a small pipeline and **export** artifact bundle v1,
2. start a **2-worker sharded server** with a **durable ingest journal**
   and talk to it through the SDK (``score``, ``ingest``, ``suggest``,
   ``taxonomy``) — including retrieval-backed **top-k suggestion for a
   freshly ingested concept** (the candidate index absorbs ingest
   without a rebuild),
3. **refit** (here: perturb + recompile) and export bundle v2, then
   **hot-reload** it as an async job (``submit_reload_job`` +
   ``wait_for_job``) with zero downtime,
4. simulate a **crash** (no clean shutdown) and restart against the same
   journal directory, verifying replay reconstructs the pre-crash
   taxonomy exactly.

Run:  PYTHONPATH=src python examples/serve_cluster.py   (~2 minutes)
"""

import tempfile

from repro.api import TaxonomyClient
from repro.core import (
    DetectorConfig, PipelineConfig, TaxonomyExpansionPipeline,
)
from repro.gnn import ContrastiveConfig, StructuralConfig
from repro.plm import PretrainConfig
from repro.serving import (
    ArtifactBundle, AsyncServerThread, IngestJournal, ServiceConfig,
    ShardedScorerPool, TaxonomyService,
)
from repro.synthetic import (
    ClickLogConfig, UgcConfig, WorldConfig, build_world,
    generate_click_logs, generate_ugc,
)


def fit_and_export(world, click_log, ugc, directory, seed=0):
    """Train one small pipeline and export its serving bundle."""
    pipeline = TaxonomyExpansionPipeline(PipelineConfig(
        seed=seed, bert_dim=16, bert_ffn=32,
        pretrain=PretrainConfig(steps=40, batch_size=8,
                                strategy="concept"),
        contrastive=ContrastiveConfig(steps=8),
        structural=StructuralConfig(hidden_dim=8, position_dim=2),
        detector=DetectorConfig(epochs=2, batch_size=16)))
    pipeline.fit(world.existing_taxonomy, world.vocabulary, click_log, ugc)
    ArtifactBundle.export(pipeline, directory,
                          taxonomy=world.existing_taxonomy,
                          vocabulary=world.vocabulary)
    return pipeline


def main() -> None:
    world = build_world(WorldConfig(
        domain="fruits", seed=7, num_categories=6,
        children_per_category=(4, 7), max_depth=4,
        headword_fraction=0.8, children_per_node=(0, 3),
        holdout_fraction=0.2))
    click_log = generate_click_logs(world, ClickLogConfig(
        seed=5, clicks_per_query=40))
    ugc = generate_ugc(world, UgcConfig(seed=5, sentences_per_edge=2.0))

    workdir = tempfile.mkdtemp(prefix="serve_cluster_")
    bundle_v1 = f"{workdir}/bundle_v1"
    bundle_v2 = f"{workdir}/bundle_v2"
    journal_dir = f"{workdir}/journal"

    # -- 1. fit + export --------------------------------------------------
    print("== fitting pipeline and exporting bundle v1 ==")
    pipeline = fit_and_export(world, click_log, ugc, bundle_v1)
    probe_pairs = [list(s.pair) for s in pipeline.dataset.all_pairs][:4]

    # -- 2. sharded server with a journal ---------------------------------
    print("== starting 2-worker server with journal ==")
    pool = ShardedScorerPool(bundle_v1, num_workers=2).start()
    journal = IngestJournal(journal_dir, fsync_every=1)
    service = TaxonomyService(ArtifactBundle.load(bundle_v1),
                              ServiceConfig(), pool=pool, journal=journal)
    service.start()
    server = AsyncServerThread(service)  # ephemeral port
    host, port = server.start()
    client = TaxonomyClient(f"http://{host}:{port}", timeout=60.0)

    scores_v1 = client.score(probe_pairs)
    print(f"scores (v1): "
          f"{[round(p, 4) for p in scores_v1['probabilities']]}")

    records = [[query, item, count]
               for (query, item), count in
               sorted(click_log.counts.items())[:30]]
    ingested = client.ingest(records, sync=True)
    print(f"ingested batch: {ingested['report']['num_attached']} "
          f"edge(s) attached")
    before_crash = client.taxonomy()
    print(f"taxonomy: {before_crash['stats']['edges']} edges after "
          f"{before_crash['stats']['ingested_batches']} batch(es)")

    # Retrieval-backed suggestion for a concept the ingest just
    # attached: the candidate index extends incrementally (no rebuild),
    # so the new node is immediately retrievable and re-ranked by the
    # exact pair scorer.
    attached = ingested["report"]["attached_edges"]
    probe_concept = attached[0][1] if attached else records[0][0]
    suggestion = client.suggest(probe_concept, k=3)
    print(f"suggest({probe_concept!r}): "
          + ", ".join(f"{c['concept']} p={c['probability']:.3f}"
                      for c in suggestion["candidates"])
          + f"  [{suggestion['retrieval']['mode']} index, "
          f"{suggestion['retrieval']['index_size']} concepts]")

    # -- 3. hot reload (async job through the SDK) ------------------------
    print("== exporting refit bundle v2 and hot-reloading ==")
    refit = ArtifactBundle.load(bundle_v1).pipeline
    for parameter in refit.detector.classifier.parameters():
        parameter.data = parameter.data + 0.05  # stand-in for a refit
    refit.detector.compile_inference(force=True)
    ArtifactBundle.export(refit, bundle_v2,
                          taxonomy=world.existing_taxonomy,
                          vocabulary=world.vocabulary)
    job = client.submit_reload_job(bundle_v2)
    print(f"reload job {job['id']} submitted ({job['status']})")
    outcome = client.wait_for_job(job["id"], timeout=120.0)
    print(f"reload: {outcome['result']}")
    scores_v2 = client.score(probe_pairs)
    print(f"scores (v2): "
          f"{[round(p, 4) for p in scores_v2['probabilities']]}")
    assert scores_v2["probabilities"] != scores_v1["probabilities"], \
        "reload should change the model"

    # -- 4. crash + replay ------------------------------------------------
    print("== simulating crash (no clean shutdown) and replaying ==")
    server.stop()
    pool.stop()  # the 'machine' goes down; journal is NOT closed cleanly

    restarted = TaxonomyService(ArtifactBundle.load(bundle_v1),
                                ServiceConfig(),
                                journal=IngestJournal(journal_dir))
    summary = restarted.replay_journal()
    print(f"replay: {summary}")
    after_crash = restarted.taxonomy_state()
    assert after_crash["stats"]["edges"] == \
        before_crash["stats"]["edges"], "replay must restore edge count"
    # Insertion order may differ across replay; the edge *set* must not.
    assert {tuple(edge) for edge in after_crash["edges"]} == \
        {tuple(edge) for edge in before_crash["edges"]}, \
        "replay must restore the exact edge set"
    print(f"restored {after_crash['stats']['edges']} edges — state "
          f"matches the pre-crash snapshot")
    restarted.stop()
    print("done")


if __name__ == "__main__":
    main()

"""Online serving layer: artifact bundles, batched scoring, sharded
multi-process workers, durable ingestion, and the HTTP taxonomy service.

Train once, serve forever: :class:`ArtifactBundle` decouples the training
process from the serving process; :class:`BatchingScorer` and
:class:`StreamingIngestor` give the online path micro-batching, caching
and backpressure; :class:`ShardedScorerPool` spreads scoring across
worker processes that attach one shared-memory weight copy zero-copy
(:class:`SharedArtifactStore` / :class:`SharedBundleView`, private-load
fallback); :class:`IngestJournal`
makes ingestion durable and replayable across restarts, and
:class:`SnapshotStore` caps the replay tail — recovery loads the latest
valid snapshot and replays only the journal records after it, with
covered segments compacted away;
:class:`TaxonomyService` plus :class:`AsyncTaxonomyServer` expose it all
over a stdlib JSON API (``repro serve`` on the command line, via
:func:`serve_async`), including zero-downtime artifact hot-reload via
``POST /admin/reload`` or SIGHUP.  The asyncio front end dispatches
through the shared core in :mod:`repro.serving.routes` and adds
keep-alive timeouts, admission-control load shedding, NDJSON/SSE
streaming and graceful drain.

See ``docs/architecture.md`` for the subsystem map, ``docs/http_api.md``
for the endpoint reference, and ``docs/operations.md`` for the runbook.
"""

from .artifacts import (
    ArtifactBundle, SharedBundleView, pipeline_config_from_dict,
    pipeline_config_to_dict,
)
from .shm import SharedArtifactStore, SharedArrayView, attach_manifest
from .scorer import BatchingScorer, ScorerStats
from .ingest import (
    IngestTicket, StreamingIngestor, click_log_from_records,
    click_log_to_records,
)
from .journal import (
    IngestJournal, JournalCorruptionWarning, JournalRecord, JournalStats,
)
from .snapshot import (
    SnapshotCorruptionWarning, SnapshotInfo, SnapshotStats, SnapshotStore,
)
from .cluster import PoolStats, ShardedScorerPool
from .service import ServiceConfig, TaxonomyService
from .async_http import (
    AsyncServerThread, AsyncTaxonomyServer, CAPABILITIES, serve_async,
)

__all__ = [
    "ArtifactBundle", "pipeline_config_to_dict", "pipeline_config_from_dict",
    "BatchingScorer", "ScorerStats",
    "IngestTicket", "StreamingIngestor", "click_log_from_records",
    "click_log_to_records",
    "IngestJournal", "JournalCorruptionWarning", "JournalRecord",
    "JournalStats",
    "SnapshotCorruptionWarning", "SnapshotInfo", "SnapshotStats",
    "SnapshotStore",
    "PoolStats", "ShardedScorerPool",
    "SharedArtifactStore", "SharedArrayView", "SharedBundleView",
    "attach_manifest",
    "ServiceConfig", "TaxonomyService",
    "AsyncServerThread", "AsyncTaxonomyServer", "CAPABILITIES",
    "serve_async",
]

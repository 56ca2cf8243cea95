"""Typed request/response models for the ``/v1`` API — stdlib only.

A tiny declarative schema layer replaces the ad-hoc ``payload.get(...)``
parsing that used to live in the HTTP handler and the service facade.
Each wire shape is a frozen dataclass whose ``FIELDS`` tuple declares
its contract: JSON kind, required/default, nullability, size limits,
and an optional ``clean`` hook for shapes JSON types cannot express
(pair lists, candidate maps, click-log records).

``Model.parse(payload)`` validates one JSON object against that
contract and returns a typed instance — every violation raises
:func:`~repro.api.errors.invalid_request` with the offending field
named in ``detail`` — and ``Model.openapi_schema()`` emits the matching
JSON-Schema fragment, so ``GET /v1/openapi.json`` is *generated from*
the same objects that enforce the contract (the two cannot drift).

Requests parse strictly (unknown fields are rejected); responses parse
leniently (``allow_extra=True``) so the server may grow additive fields
without breaking deployed clients.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, ClassVar

from .errors import ApiError, invalid_request

__all__ = [
    "Field",
    "SchemaModel",
    "ScoreRequest", "ScoreResponse",
    "SuggestRequest", "SuggestResponse",
    "ExpandRequest", "ExpandResponse",
    "IngestRequest", "IngestResponse",
    "ReloadRequest", "ReloadResponse",
    "SnapshotResponse",
    "TaxonomyResponse", "HealthResponse",
    "JobResponse", "JobListResponse",
    "clean_candidates", "clean_pairs", "clean_records",
    "MAX_PAIRS_PER_REQUEST", "MAX_RECORDS_PER_BATCH",
    "MAX_CANDIDATE_QUERIES", "MAX_ITEMS_PER_QUERY",
    "MAX_SUGGEST_K",
]

#: request-level cardinality caps — large enough for real batches, small
#: enough that one request cannot wedge a scoring worker for minutes.
MAX_PAIRS_PER_REQUEST = 10_000
MAX_RECORDS_PER_BATCH = 50_000
MAX_CANDIDATE_QUERIES = 1_000
MAX_ITEMS_PER_QUERY = 10_000
MAX_SUGGEST_K = 100

#: JSON kind name -> accepted Python types (bool is NOT an int here;
#: JSON distinguishes them and so does the contract).
_KINDS: dict[str, tuple] = {
    "string": (str,),
    "boolean": (bool,),
    "integer": (int,),
    "number": (int, float),
    "array": (list, tuple),
    "object": (dict,),
}


@dataclass(frozen=True)
class Field:
    """One declared field of a wire model.

    ``kind`` is a JSON type name (``string``/``boolean``/``integer``/
    ``number``/``array``/``object``); ``clean`` runs after the kind
    check and may coerce or reject the value (raising ``ValueError`` or
    an :class:`~repro.api.errors.ApiError`).
    """

    name: str
    kind: str
    doc: str = ""
    required: bool = False
    default: Any = None
    nullable: bool = False
    item_kind: str | None = None
    max_items: int | None = None
    clean: Callable[[Any], Any] | None = None

    def check(self, value: Any):
        """Validate (and possibly coerce) one present, non-null value."""
        expected = _KINDS[self.kind]
        if self.kind in ("integer", "number") and isinstance(value, bool):
            raise invalid_request(
                f"{self.name!r} must be a {self.kind}, got a boolean",
                field=self.name)
        if not isinstance(value, expected):
            raise invalid_request(
                f"{self.name!r} must be a JSON {self.kind}, got "
                f"{type(value).__name__}", field=self.name)
        if self.max_items is not None and len(value) > self.max_items:
            raise invalid_request(
                f"{self.name!r} holds {len(value)} items; the limit is "
                f"{self.max_items}", field=self.name)
        if self.item_kind is not None:
            item_types = _KINDS[self.item_kind]
            for index, item in enumerate(value):
                if not isinstance(item, item_types):
                    raise invalid_request(
                        f"{self.name}[{index}] must be a JSON "
                        f"{self.item_kind}, got {type(item).__name__}",
                        field=self.name)
        if self.clean is not None:
            try:
                value = self.clean(value)
            except ApiError:
                raise
            except (ValueError, TypeError, KeyError) as error:
                raise invalid_request(str(error), field=self.name) \
                    from error
        return value

    def openapi(self) -> dict:
        """The JSON-Schema fragment describing this field."""
        schema: dict[str, Any] = {"type": self.kind}
        if self.doc:
            schema["description"] = self.doc
        if self.nullable:
            schema["nullable"] = True
        if self.item_kind is not None:
            schema["items"] = {"type": self.item_kind}
        elif self.kind == "array":
            schema["items"] = {}
        if self.max_items is not None:
            schema["maxItems"] = self.max_items
        if not self.required and self.default is not None:
            schema["default"] = self.default
        return schema


@dataclass(frozen=True)
class SchemaModel:
    """Base class for typed wire models; subclasses declare ``FIELDS``."""

    FIELDS: ClassVar[tuple] = ()

    @classmethod
    def field_names(cls) -> tuple:
        """Declared field names, in declaration order."""
        return tuple(field.name for field in cls.FIELDS)

    @classmethod
    def parse(cls, payload, *, allow_extra: bool = False):
        """Validate one JSON object and build the typed instance.

        Raises :func:`~repro.api.errors.invalid_request` naming the
        offending field on any violation.  ``allow_extra`` tolerates
        undeclared keys (used for responses, which may grow additive
        fields); requests reject them so typos fail loudly.
        """
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise invalid_request(
                f"body must be a JSON object, got "
                f"{type(payload).__name__}")
        if not allow_extra:
            unknown = sorted(set(payload) - set(cls.field_names()))
            if unknown:
                raise invalid_request(
                    f"unknown field(s): {', '.join(unknown)}",
                    field=unknown[0])
        values = {}
        for field in cls.FIELDS:
            if field.name not in payload or payload[field.name] is None:
                if field.name in payload and field.nullable:
                    values[field.name] = None
                    continue
                if field.required:
                    raise invalid_request(
                        f"missing required field {field.name!r}",
                        field=field.name)
                values[field.name] = field.default
                continue
            values[field.name] = field.check(payload[field.name])
        instance = cls(**values)
        if allow_extra:
            extras = {key: payload[key] for key in payload
                      if key not in cls.field_names()}
            if extras:
                # stash undeclared keys so as_payload round-trips them:
                # servers may grow additive response fields without a
                # schema edit (frozen dataclass, hence object.__setattr__)
                object.__setattr__(instance, "_extras", extras)
        return instance

    def as_payload(self) -> dict:
        """The JSON-friendly dict for this instance.

        Declared fields plus any undeclared keys captured by a lenient
        :meth:`parse` (``allow_extra=True``) — additive server fields
        pass through instead of being silently dropped.
        """
        payload = dict(getattr(self, "_extras", {}))
        payload.update({field.name: getattr(self, field.name)
                        for field in self.FIELDS})
        return payload

    @classmethod
    def openapi_schema(cls) -> dict:
        """The JSON-Schema object for this model."""
        schema: dict[str, Any] = {
            "type": "object",
            "properties": {field.name: field.openapi()
                           for field in cls.FIELDS},
        }
        required = [field.name for field in cls.FIELDS if field.required]
        if required:
            schema["required"] = required
        doc = (cls.__doc__ or "").strip().splitlines()
        if doc:
            schema["description"] = doc[0]
        return schema


def _check_model(cls):
    """Decorator: assert FIELDS and dataclass attributes stay in sync."""
    declared = {field.name for field in cls.FIELDS}
    attributes = {field.name for field in dataclass_fields(cls)}
    if declared != attributes:
        raise TypeError(
            f"{cls.__name__}: FIELDS {sorted(declared)} != dataclass "
            f"attributes {sorted(attributes)}")
    return cls


# ----------------------------------------------------------------------
# shared cleaners (the typed boundary the service facade trusts)
# ----------------------------------------------------------------------
def clean_pairs(pairs) -> tuple:
    """Normalise score pairs to ``((parent, child), ...)`` of strings."""
    cleaned = []
    for index, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise invalid_request(
                f"pairs[{index}] must be [parent, child], got {pair!r}",
                field="pairs")
        cleaned.append((str(pair[0]), str(pair[1])))
    return tuple(cleaned)


def clean_candidates(candidates) -> dict:
    """Normalise a candidate map to ``{query: [item, ...]}`` of strings."""
    if not isinstance(candidates, dict):
        raise invalid_request(
            "candidates must map query -> [items]", field="candidates")
    if len(candidates) > MAX_CANDIDATE_QUERIES:
        raise invalid_request(
            f"candidates holds {len(candidates)} queries; the limit is "
            f"{MAX_CANDIDATE_QUERIES}", field="candidates")
    cleaned = {}
    for query, items in candidates.items():
        if not isinstance(items, (list, tuple)):
            raise invalid_request(
                f"candidates[{query!r}] must be a list of items",
                field="candidates")
        if len(items) > MAX_ITEMS_PER_QUERY:
            raise invalid_request(
                f"candidates[{query!r}] holds {len(items)} items; the "
                f"limit is {MAX_ITEMS_PER_QUERY}", field="candidates")
        cleaned[str(query)] = [str(item) for item in items]
    return cleaned


def _clean_query(query) -> str:
    """Require a non-empty query concept string."""
    query = str(query).strip()
    if not query:
        raise invalid_request("query must be a non-empty string",
                              field="query")
    return query


def _clean_queries(queries) -> tuple:
    """Normalise expansion seed queries to non-empty strings."""
    cleaned = []
    for index, query in enumerate(queries):
        query = str(query).strip()
        if not query:
            raise invalid_request(
                f"queries[{index}] must be a non-empty string",
                field="queries")
        cleaned.append(query)
    return tuple(cleaned)


def _clean_k(k) -> int:
    """Clamp-check a top-k count to ``1..MAX_SUGGEST_K``."""
    if not 1 <= k <= MAX_SUGGEST_K:
        raise invalid_request(
            f"k must be between 1 and {MAX_SUGGEST_K}, got {k}",
            field="k")
    return int(k)


def _clean_top_k(top_k) -> int:
    """Clamp-check retrieval fan-out to ``1..MAX_SUGGEST_K``."""
    if not 1 <= top_k <= MAX_SUGGEST_K:
        raise invalid_request(
            f"top_k must be between 1 and {MAX_SUGGEST_K}, got {top_k}",
            field="top_k")
    return int(top_k)


def clean_records(records) -> tuple:
    """Normalise click records to ``((query, item, count), ...)``."""
    cleaned = []
    for index, record in enumerate(records):
        if not isinstance(record, (list, tuple)) or \
                len(record) not in (2, 3):
            raise invalid_request(
                f"records[{index}] must be [query, item] or "
                f"[query, item, count], got {record!r}", field="records")
        query, item = record[0], record[1]
        count = record[2] if len(record) == 3 else 1
        if isinstance(count, bool) or not isinstance(count, int):
            raise invalid_request(
                f"records[{index}] count must be an integer, got "
                f"{count!r}", field="records")
        if count < 1:
            raise invalid_request(
                f"records[{index}] count must be >= 1, got {count}",
                field="records")
        cleaned.append((str(query), str(item), count))
    return tuple(cleaned)


# ----------------------------------------------------------------------
# request models
# ----------------------------------------------------------------------
@_check_model
@dataclass(frozen=True)
class ScoreRequest(SchemaModel):
    """Hyponymy probabilities for explicit (parent, child) pairs."""

    pairs: tuple = ()

    FIELDS = (
        Field("pairs", "array", required=True, item_kind="array",
              max_items=MAX_PAIRS_PER_REQUEST, clean=clean_pairs,
              doc="(parent, child) concept pairs to score, in order."),
    )


@_check_model
@dataclass(frozen=True)
class SuggestRequest(SchemaModel):
    """Ranked attachment candidates for one query concept."""

    query: str = ""
    k: int = 10

    FIELDS = (
        Field("query", "string", required=True, clean=_clean_query,
              doc="Concept to find attachment candidates for."),
        Field("k", "integer", default=10, clean=_clean_k,
              doc=f"Candidates to return (1..{MAX_SUGGEST_K})."),
    )


@_check_model
@dataclass(frozen=True)
class ExpandRequest(SchemaModel):
    """Top-down expansion, caller-supplied or retrieval-backed.

    Exactly one of ``candidates`` (explicit query -> items map) or
    ``queries`` (seed concepts whose candidates come from the retrieval
    index, ``top_k`` per frontier node) must be provided.
    """

    candidates: dict = None
    queries: tuple = None
    top_k: int = 20

    FIELDS = (
        Field("candidates", "object", nullable=True,
              clean=clean_candidates,
              doc="Map from query concept to candidate item concepts "
                  "(mutually exclusive with 'queries')."),
        Field("queries", "array", nullable=True, item_kind="string",
              max_items=MAX_CANDIDATE_QUERIES, clean=_clean_queries,
              doc="Seed concepts; candidates are retrieved from the "
                  "embedding index per frontier node (mutually "
                  "exclusive with 'candidates')."),
        Field("top_k", "integer", default=20, clean=_clean_top_k,
              doc="Retrieved candidates per frontier node when "
                  "'queries' drives the expansion."),
    )


@_check_model
@dataclass(frozen=True)
class IngestRequest(SchemaModel):
    """One click-log batch for the streaming ingestion worker."""

    records: tuple = ()
    provenance: dict = None
    sync: bool = False

    FIELDS = (
        Field("records", "array", required=True, item_kind="array",
              max_items=MAX_RECORDS_PER_BATCH, clean=clean_records,
              doc="[query, item] or [query, item, count] click records."),
        Field("provenance", "object", nullable=True,
              doc="Optional map from item title to source concept."),
        Field("sync", "boolean", default=False,
              doc="Wait for this batch's own ingest report before "
                  "acknowledging (forces a journal fsync)."),
    )


@_check_model
@dataclass(frozen=True)
class ReloadRequest(SchemaModel):
    """Hot-swap the artifact bundle (defaults to the current directory)."""

    artifacts: str = None

    FIELDS = (
        Field("artifacts", "string", nullable=True,
              doc="Bundle directory to load; null re-reads the current "
                  "bundle's directory in place."),
    )


# ----------------------------------------------------------------------
# response models
# ----------------------------------------------------------------------
@_check_model
@dataclass(frozen=True)
class ScoreResponse(SchemaModel):
    """Probabilities aligned with the request's pair order."""

    pairs: list = None
    probabilities: list = None

    FIELDS = (
        Field("pairs", "array", required=True, item_kind="array",
              doc="Echo of the scored (parent, child) pairs."),
        Field("probabilities", "array", required=True,
              item_kind="number",
              doc="Hyponymy probability per pair, same order."),
    )


@_check_model
@dataclass(frozen=True)
class SuggestResponse(SchemaModel):
    """Ranked attachment candidates plus retrieval metadata."""

    query: str = ""
    k: int = 0
    candidates: list = None
    retrieval: dict = None

    FIELDS = (
        Field("query", "string", required=True,
              doc="Echo of the suggested-for concept."),
        Field("k", "integer", required=True,
              doc="Echo of the requested candidate count."),
        Field("candidates", "array", required=True, item_kind="object",
              doc="Ranked candidates: concept, probability (exact "
                  "re-rank), similarity (retrieval score), and "
                  "already_parent."),
        Field("retrieval", "object", required=True,
              doc="Retrieval metadata: mode, retrieved, index_size, "
                  "synced_epoch, reranked."),
    )


@_check_model
@dataclass(frozen=True)
class ExpandResponse(SchemaModel):
    """Outcome of one synchronous expansion."""

    attached_edges: list = None
    num_attached: int = 0
    scored_candidates: int = 0
    taxonomy_edges: int = 0

    FIELDS = (
        Field("attached_edges", "array", required=True,
              item_kind="array",
              doc="Edges committed to the live taxonomy."),
        Field("num_attached", "integer", required=True,
              doc="Count of committed edges."),
        Field("scored_candidates", "integer", required=True,
              doc="Candidate pairs scored during the traversal."),
        Field("taxonomy_edges", "integer", required=True,
              doc="Live taxonomy edge count after the expansion."),
    )


@_check_model
@dataclass(frozen=True)
class IngestResponse(SchemaModel):
    """Acknowledgement for one accepted click-log batch."""

    accepted: bool = True
    report: dict = None
    pending_batches: int = None

    FIELDS = (
        Field("accepted", "boolean", required=True,
              doc="Always true on /v1 (rejection is a 429 error)."),
        Field("report", "object", nullable=True,
              doc="This batch's ingest report (sync requests only)."),
        Field("pending_batches", "integer", nullable=True,
              doc="Queue depth after the submit (async requests only)."),
    )


@_check_model
@dataclass(frozen=True)
class ReloadResponse(SchemaModel):
    """Outcome of one successful hot reload."""

    reloaded: bool = True
    directory: str = ""
    probe_pairs: int = 0
    pool_workers: int = 0
    old_engine_drained: bool = True
    cache_warmed_pairs: int = 0

    FIELDS = (
        Field("reloaded", "boolean", required=True,
              doc="Always true (failure is a reload_failed error)."),
        Field("directory", "string", required=True,
              doc="Bundle directory that is now serving."),
        Field("probe_pairs", "integer", required=True,
              doc="Smoke-test pairs scored before the swap."),
        Field("pool_workers", "integer", required=True,
              doc="Pool workers rolled out to (0 without a pool)."),
        Field("old_engine_drained", "boolean", required=True,
              doc="Whether in-flight batches on the old engine drained "
                  "before returning."),
        Field("cache_warmed_pairs", "integer", default=0,
              doc="Recently-hot pairs re-scored through the new engine "
                  "after the swap (cache warming)."),
    )


@_check_model
@dataclass(frozen=True)
class SnapshotResponse(SchemaModel):
    """Outcome of one successful snapshot + compaction pass."""

    snapshot: str = ""
    seq: int = -1
    bytes: int = 0
    compacted_segments: int = 0
    pool: dict = None

    FIELDS = (
        Field("snapshot", "string", required=True,
              doc="Basename of the snapshot file written."),
        Field("seq", "integer", required=True,
              doc="Highest journal sequence the snapshot covers (-1 "
                  "when the service runs without a journal)."),
        Field("bytes", "integer", required=True,
              doc="Encoded snapshot size on disk."),
        Field("compacted_segments", "integer", required=True,
              doc="Journal segments deleted or archived because this "
                  "snapshot covers them."),
        Field("pool", "object", nullable=True,
              doc="Delta-log fold outcome (generation, baseline_edges, "
                  "covered) when a scorer pool is attached."),
    )


@_check_model
@dataclass(frozen=True)
class TaxonomyResponse(SchemaModel):
    """Live taxonomy snapshot plus accumulated traffic statistics."""

    version: int = None
    nodes: list = None
    edges: list = None
    stats: dict = None
    reports: list = None

    FIELDS = (
        Field("version", "integer", nullable=True,
              doc="Taxonomy serialisation format version."),
        Field("nodes", "array", item_kind="string", nullable=True,
              doc="Concept nodes, sorted."),
        Field("edges", "array", item_kind="array", nullable=True,
              doc="(parent, child) edges, sorted."),
        Field("stats", "object", required=True,
              doc="Node/edge/depth gauges and accumulated ingest "
                  "totals."),
        Field("reports", "array", item_kind="object", required=True,
              doc="Bounded recent-history window of ingest reports."),
    )


@_check_model
@dataclass(frozen=True)
class HealthResponse(SchemaModel):
    """Liveness snapshot for ``/v1/healthz``."""

    status: str = "ok"
    uptime_seconds: float = 0.0
    reloads: int = 0
    workers: dict = None
    ingest: dict = None
    scorer: dict = None
    jobs: dict = None
    journal: dict = None
    snapshots: dict = None
    retrieval: dict = None
    taxonomy_edges: int = 0
    capabilities: dict = None

    FIELDS = (
        Field("status", "string", required=True,
              doc='"ok", or "degraded" when recent ingest errors '
                  "exist."),
        Field("uptime_seconds", "number", required=True,
              doc="Seconds since the service was constructed."),
        Field("reloads", "integer", required=True,
              doc="Successful hot reloads."),
        Field("workers", "object", required=True,
              doc="Per-worker liveness (ingestor, pool)."),
        Field("ingest", "object", required=True,
              doc="Ingest queue depth and totals."),
        Field("scorer", "object", required=True,
              doc="Batching-scorer statistics snapshot."),
        Field("jobs", "object", nullable=True,
              doc="Async-job counters (submitted/running/succeeded/"
                  "failed/retained)."),
        Field("journal", "object", nullable=True,
              doc="Ingest-journal statistics (journaled services "
                  "only)."),
        Field("snapshots", "object", nullable=True,
              doc="Snapshot/compaction state (services with a snapshot "
                  "store only)."),
        Field("retrieval", "object", nullable=True,
              doc="Candidate-index statistics (null until the first "
                  "suggest/retrieval-backed expand builds it)."),
        Field("taxonomy_edges", "integer", required=True,
              doc="Live taxonomy edge count."),
        Field("capabilities", "object", nullable=True,
              doc="Optional transport capabilities (e.g. job_wait, "
                  "ndjson, sse); absent on transports without them. "
                  "The SDK upgrades to long-poll/SSE job waits only "
                  "when advertised here."),
    )


@_check_model
@dataclass(frozen=True)
class JobResponse(SchemaModel):
    """One async job's full state (submit response and poll response)."""

    id: str = ""
    kind: str = ""
    status: str = "pending"
    submitted_at: float = 0.0
    started_at: float = None
    finished_at: float = None
    result: dict = None
    error: dict = None

    FIELDS = (
        Field("id", "string", required=True,
              doc="Opaque job identifier (poll at /v1/jobs/{id})."),
        Field("kind", "string", required=True,
              doc='"expand", "reload" or "snapshot".'),
        Field("status", "string", required=True,
              doc='"pending", "running", "succeeded" or "failed".'),
        Field("submitted_at", "number", required=True,
              doc="Unix timestamp of submission."),
        Field("started_at", "number", nullable=True,
              doc="Unix timestamp when the worker picked the job up."),
        Field("finished_at", "number", nullable=True,
              doc="Unix timestamp of terminal transition."),
        Field("result", "object", nullable=True,
              doc="The operation's response body (succeeded jobs)."),
        Field("error", "object", nullable=True,
              doc="Canonical error object sans request_id (failed "
                  "jobs)."),
    )


@_check_model
@dataclass(frozen=True)
class JobListResponse(SchemaModel):
    """Bounded listing of retained jobs, newest first."""

    jobs: list = None

    FIELDS = (
        Field("jobs", "array", required=True, item_kind="object",
              doc="Retained job snapshots, newest first."),
    )

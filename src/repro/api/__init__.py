"""Versioned public API for the serving stack: schemas, errors, jobs,
client SDK, and a generated OpenAPI description.

This package defines the ``/v1`` HTTP contract as *objects*, not
conventions: :mod:`~repro.api.schemas` holds the typed request/response
models every endpoint round-trips through, :mod:`~repro.api.errors` the
canonical error envelope with stable machine-readable codes,
:mod:`~repro.api.jobs` the async-job executor behind
``POST /v1/jobs/...``, :mod:`~repro.api.openapi` the declarative route
table that both dispatches requests and generates
``GET /v1/openapi.json``, and :mod:`~repro.api.client` the
:class:`TaxonomyClient` SDK that the CLI, examples, benchmarks and
tests all use instead of hand-rolled urllib calls.

The HTTP transport lives in :mod:`repro.serving.async_http`; this
package is transport-agnostic (schemas and errors are equally usable
in-process).
"""

from .errors import (
    ApiError, ERROR_CODES, backpressure, internal_error, invalid_request,
    job_not_found, new_request_id, not_found, not_ready,
    payload_too_large, reload_failed,
)
from .schemas import (
    ExpandRequest, ExpandResponse, Field, HealthResponse, IngestRequest,
    IngestResponse, JobListResponse, JobResponse, ReloadRequest,
    ReloadResponse, SchemaModel, ScoreRequest, ScoreResponse,
    SuggestRequest, SuggestResponse, TaxonomyResponse, clean_candidates,
    clean_pairs, clean_records,
)
from .jobs import Job, JobManager, JobStats
from .openapi import API_VERSION, ROUTES, RouteSpec, build_openapi
from .client import TaxonomyApiError, TaxonomyClient

__all__ = [
    "ApiError", "ERROR_CODES", "backpressure", "internal_error",
    "invalid_request", "job_not_found", "new_request_id", "not_found",
    "not_ready", "payload_too_large", "reload_failed",
    "Field", "SchemaModel",
    "ScoreRequest", "ScoreResponse", "SuggestRequest", "SuggestResponse",
    "ExpandRequest", "ExpandResponse",
    "IngestRequest", "IngestResponse", "ReloadRequest", "ReloadResponse",
    "TaxonomyResponse", "HealthResponse", "JobResponse",
    "JobListResponse",
    "clean_candidates", "clean_pairs", "clean_records",
    "Job", "JobManager", "JobStats",
    "API_VERSION", "ROUTES", "RouteSpec", "build_openapi",
    "TaxonomyApiError", "TaxonomyClient",
]

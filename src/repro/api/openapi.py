"""The declarative ``/v1`` route table and its OpenAPI generator.

:data:`ROUTES` is the single source of truth for the public API: the
route index in :mod:`repro.serving.routes` walks it to dispatch
requests, and :func:`build_openapi` walks the *same* tuple to emit
``GET /v1/openapi.json`` — so the served surface and its description
cannot drift.  Each :class:`RouteSpec` names a handler (bound in
:mod:`repro.serving.routes`), the typed request/response models from
:mod:`repro.api.schemas`, the stable error codes the route can return,
and the legacy unversioned alias it still answers on (with a
``Deprecation`` header).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ERROR_CODES
from . import schemas

__all__ = ["API_VERSION", "ROUTES", "RouteSpec", "build_openapi"]

#: public contract version; bump only with a new /vN prefix.
API_VERSION = "1.0.0"


@dataclass(frozen=True)
class RouteSpec:
    """One declared API route (transport-agnostic)."""

    method: str
    path: str
    handler: str
    summary: str
    request_model: type | None = None
    response_model: type | None = None
    #: stable error codes this route can produce (beyond the universal
    #: ``not_found`` / ``payload_too_large`` / ``internal_error``)
    error_codes: tuple = ()
    #: pre-/v1 path still served as a deprecated alias, if any
    legacy_alias: str | None = None
    #: success status for the happy path
    success_status: int = 200
    #: response media type when not application/json
    media_type: str = "application/json"
    tags: tuple = field(default=("taxonomy",))

    @property
    def path_params(self) -> tuple:
        """Templated ``{param}`` segment names, in path order."""
        return tuple(segment[1:-1]
                     for segment in self.path.strip("/").split("/")
                     if segment.startswith("{") and segment.endswith("}"))


#: error codes every route can emit regardless of its declared set
_UNIVERSAL_CODES = ("invalid_request", "payload_too_large",
                    "internal_error")

ROUTES: tuple = (
    RouteSpec("GET", "/v1/healthz", "health",
              "Liveness, worker state and scorer statistics.",
              response_model=schemas.HealthResponse,
              legacy_alias="/healthz", tags=("observe",)),
    RouteSpec("GET", "/v1/metrics", "metrics",
              "Prometheus text-format counters and gauges.",
              legacy_alias="/metrics",
              media_type="text/plain; version=0.0.4; charset=utf-8",
              tags=("observe",)),
    RouteSpec("GET", "/v1/taxonomy", "taxonomy",
              "Live taxonomy snapshot plus ingestion statistics.",
              response_model=schemas.TaxonomyResponse,
              legacy_alias="/taxonomy", tags=("taxonomy",)),
    RouteSpec("GET", "/v1/openapi.json", "openapi",
              "This API description, generated from the route table.",
              tags=("observe",)),
    RouteSpec("POST", "/v1/score", "score",
              "Hyponymy probabilities for explicit (parent, child) "
              "pairs.",
              request_model=schemas.ScoreRequest,
              response_model=schemas.ScoreResponse,
              error_codes=("not_ready",),
              legacy_alias="/score", tags=("scoring",)),
    RouteSpec("POST", "/v1/suggest", "suggest",
              "Ranked attachment candidates for one concept: top-k "
              "retrieval over the embedding index, re-ranked by the "
              "exact pair scorer.",
              request_model=schemas.SuggestRequest,
              response_model=schemas.SuggestResponse,
              error_codes=("not_ready",), tags=("scoring",)),
    RouteSpec("POST", "/v1/expand", "expand",
              "Synchronous top-down expansion over a candidate map.",
              request_model=schemas.ExpandRequest,
              response_model=schemas.ExpandResponse,
              error_codes=("not_ready",),
              legacy_alias="/expand", tags=("taxonomy",)),
    RouteSpec("POST", "/v1/ingest", "ingest",
              "Queue one click-log batch for streaming ingestion.",
              request_model=schemas.IngestRequest,
              response_model=schemas.IngestResponse,
              error_codes=("backpressure", "not_ready"),
              legacy_alias="/ingest", success_status=202,
              tags=("taxonomy",)),
    RouteSpec("POST", "/v1/admin/reload", "reload",
              "Hot-swap the artifact bundle with zero dropped "
              "requests.",
              request_model=schemas.ReloadRequest,
              response_model=schemas.ReloadResponse,
              error_codes=("reload_failed", "not_ready"),
              legacy_alias="/admin/reload", tags=("admin",)),
    RouteSpec("POST", "/v1/admin/snapshot", "snapshot",
              "Snapshot live state and compact the journal + delta "
              "log behind it.",
              response_model=schemas.SnapshotResponse,
              error_codes=("snapshot_failed",), tags=("admin",)),
    RouteSpec("POST", "/v1/jobs/expand", "job_expand",
              "Submit an async expansion job; poll /v1/jobs/{job_id}.",
              request_model=schemas.ExpandRequest,
              response_model=schemas.JobResponse,
              error_codes=("backpressure", "not_ready"),
              success_status=202, tags=("jobs",)),
    RouteSpec("POST", "/v1/jobs/reload", "job_reload",
              "Submit an async hot-reload job; poll /v1/jobs/{job_id}.",
              request_model=schemas.ReloadRequest,
              response_model=schemas.JobResponse,
              error_codes=("backpressure", "not_ready"),
              success_status=202, tags=("jobs",)),
    RouteSpec("POST", "/v1/jobs/snapshot", "job_snapshot",
              "Submit an async snapshot job; poll /v1/jobs/{job_id}.",
              response_model=schemas.JobResponse,
              error_codes=("backpressure", "not_ready"),
              success_status=202, tags=("jobs",)),
    RouteSpec("GET", "/v1/jobs", "job_list",
              "Retained job snapshots, newest first.",
              response_model=schemas.JobListResponse, tags=("jobs",)),
    RouteSpec("GET", "/v1/jobs/{job_id}", "job_get",
              "Poll one async job's status, result or error.",
              response_model=schemas.JobResponse,
              error_codes=("job_not_found",), tags=("jobs",)),
)


def _error_response_schema() -> dict:
    """components/schemas entry for the canonical error envelope."""
    return {
        "type": "object",
        "description": "Canonical error envelope; `code` is stable and "
                       "machine-readable, `request_id` echoes the "
                       "X-Request-Id response header.",
        "properties": {
            "error": {
                "type": "object",
                "properties": {
                    "code": {"type": "string",
                             "enum": sorted(ERROR_CODES)},
                    "message": {"type": "string"},
                    "detail": {"type": "object", "nullable": True},
                    "request_id": {"type": "string"},
                },
                "required": ["code", "message", "request_id"],
            },
        },
        "required": ["error"],
    }


def _operation(route: RouteSpec, *, deprecated: bool = False) -> dict:
    """One OpenAPI operation object for a route (or its legacy alias)."""
    operation: dict = {
        "summary": route.summary,
        "operationId": ("legacy_" if deprecated else "") + route.handler,
        "tags": list(route.tags),
    }
    if deprecated:
        operation["deprecated"] = True
        operation["description"] = (
            f"Deprecated unversioned alias of `{route.path}`; responses "
            f"carry a `Deprecation` header. Migrate to the versioned "
            f"path.")
    if route.path_params:
        operation["parameters"] = [
            {"name": name, "in": "path", "required": True,
             "schema": {"type": "string"}}
            for name in route.path_params]
    if route.request_model is not None:
        operation["requestBody"] = {
            "required": True,
            "content": {"application/json": {"schema": {
                "$ref": "#/components/schemas/"
                        f"{route.request_model.__name__}"}}},
        }
    success_content: dict = {}
    if route.response_model is not None:
        success_content = {"content": {"application/json": {"schema": {
            "$ref": "#/components/schemas/"
                    f"{route.response_model.__name__}"}}}}
    elif route.media_type != "application/json":
        success_content = {"content": {
            route.media_type.split(";")[0]: {
                "schema": {"type": "string"}}}}
    responses = {str(route.success_status):
                 {"description": "Success", **success_content}}
    statuses: dict[int, list] = {}
    for code in tuple(route.error_codes) + _UNIVERSAL_CODES:
        statuses.setdefault(ERROR_CODES[code], []).append(code)
    for status, codes in sorted(statuses.items()):
        responses[str(status)] = {
            "description": " | ".join(sorted(codes)),
            "content": {"application/json": {"schema": {
                "$ref": "#/components/schemas/Error"}}},
        }
    operation["responses"] = responses
    return operation


def build_openapi(routes: tuple = ROUTES, *,
                  include_legacy: bool = True) -> dict:
    """The OpenAPI 3.0 document for the given route table.

    Generated from the same :class:`RouteSpec` tuple the HTTP transport
    dispatches on, and from the same schema models that validate
    request bodies — the description is the contract, not a copy of it.
    """
    paths: dict = {}
    models: dict = {"Error": _error_response_schema()}
    for route in routes:
        entry = paths.setdefault(route.path, {})
        entry[route.method.lower()] = _operation(route)
        if include_legacy and route.legacy_alias:
            alias_entry = paths.setdefault(route.legacy_alias, {})
            alias_entry[route.method.lower()] = _operation(
                route, deprecated=True)
        for model in (route.request_model, route.response_model):
            if model is not None:
                models[model.__name__] = model.openapi_schema()
    return {
        "openapi": "3.0.3",
        "info": {
            "title": "repro taxonomy service",
            "version": API_VERSION,
            "description": "Versioned API for the online taxonomy "
                           "expansion service: scoring, expansion, "
                           "streaming ingestion, async jobs and "
                           "zero-downtime reloads.",
        },
        "paths": paths,
        "components": {"schemas": dict(sorted(models.items()))},
    }

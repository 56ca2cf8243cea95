"""Transport-independent dispatch core behind the HTTP front end.

The asyncio transport in :mod:`repro.serving.async_http` dispatches the
declarative route table (:data:`repro.api.ROUTES`) onto the
:class:`~repro.serving.TaxonomyService` facade through this module,
which holds everything that is about the contract rather than about
sockets:

* the ``/v1`` handler functions (one per ``RouteSpec.handler`` name),
  each taking ``(service, body, params)`` and returning
  ``(status, payload)`` with the payload already normalised through the
  route's response model,
* the legacy unversioned alias handlers with their historical
  permissive semantics,
* the path-matching route index built from the route table, and
* the request-body byte cap (:data:`MAX_BODY_BYTES`).

Keeping dispatch out of the transport means the contract — schemas,
the canonical error envelope, journaling side effects,
``/v1/openapi.json`` — is plain functions over the service, callable
(and wrappable) without a socket.
"""

from __future__ import annotations

from ..api import errors as api_errors
from ..api import schemas
from ..api.errors import ApiError
from ..api.openapi import ROUTES, build_openapi
from .service import TaxonomyService

__all__ = [
    "BoundRoute",
    "LEGACY_HANDLERS",
    "MAX_BODY_BYTES",
    "OPENAPI_DOC",
    "ROUTE_INDEX",
    "V1_HANDLERS",
    "require_started",
    "resolve_route",
]

#: request bodies above this many bytes are rejected header-first (413)
MAX_BODY_BYTES = 16 * 1024 * 1024


# ----------------------------------------------------------------------
# /v1 handlers — named by RouteSpec.handler; each takes
# (service, body, params) and returns (status, payload) with payload
# already validated/normalised through the route's response model.
# ----------------------------------------------------------------------
def require_started(service: TaxonomyService) -> None:
    """Raise ``not_ready`` (503) unless the service workers are up."""
    if not service.started:
        raise api_errors.not_ready(
            "service workers are not running yet; retry shortly")


def _handle_health(service, body, params):
    payload = schemas.HealthResponse.parse(
        service.health(), allow_extra=True).as_payload()
    return 200, payload


def _handle_taxonomy(service, body, params):
    payload = schemas.TaxonomyResponse.parse(
        service.taxonomy_state(), allow_extra=True).as_payload()
    return 200, payload


#: the document is static for the life of the process (ROUTES and the
#: schema models are module constants), so build it once at import
OPENAPI_DOC = build_openapi()


def _handle_openapi(service, body, params):
    return 200, OPENAPI_DOC


def _handle_score(service, body, params):
    request = schemas.ScoreRequest.parse(body)
    require_started(service)
    return 200, schemas.ScoreResponse.parse(
        service.score(request), allow_extra=True).as_payload()


def _handle_suggest(service, body, params):
    request = schemas.SuggestRequest.parse(body)
    require_started(service)
    return 200, schemas.SuggestResponse.parse(
        service.suggest(request), allow_extra=True).as_payload()


def _handle_expand(service, body, params):
    request = schemas.ExpandRequest.parse(body)
    require_started(service)
    return 200, schemas.ExpandResponse.parse(
        service.expand(request), allow_extra=True).as_payload()


def _handle_ingest(service, body, params):
    request = schemas.IngestRequest.parse(body)
    require_started(service)
    result = service.ingest(request)
    if not result.get("accepted"):
        # Bounded-queue rejection is backpressure (retryable), not an
        # outage: 429 + Retry-After, distinct from 503 not_ready.
        raise api_errors.backpressure(
            "ingest queue is full; retry after the worker drains it",
            retry_after=1.0,
            detail={"pending_batches": result.get("pending_batches")})
    return 202, schemas.IngestResponse.parse(
        result, allow_extra=True).as_payload()


def _handle_reload(service, body, params):
    request = schemas.ReloadRequest.parse(body)
    try:
        result = service.reload(request.artifacts, wait=False)
    except ApiError:
        raise
    except Exception as error:
        # Stable code for any rejected swap (missing bundle, smoke-test
        # or pool-parity failure); the previous model keeps serving.
        raise api_errors.reload_failed(repr(error)) from error
    return 200, schemas.ReloadResponse.parse(
        result, allow_extra=True).as_payload()


def _handle_snapshot(service, body, params):
    try:
        result = service.snapshot()
    except ApiError:
        raise
    except Exception as error:
        # Stable code whether the store is missing or the capture
        # failed; serving state is untouched either way.
        raise api_errors.snapshot_failed(repr(error)) from error
    return 200, schemas.SnapshotResponse.parse(
        result, allow_extra=True).as_payload()


def _handle_job_snapshot(service, body, params):
    require_started(service)

    def run():
        try:
            return service.snapshot()
        except ApiError:
            raise
        except Exception as error:
            raise api_errors.snapshot_failed(repr(error)) from error

    snapshot = service.jobs.submit("snapshot", run)
    return 202, schemas.JobResponse.parse(
        snapshot, allow_extra=True).as_payload()


def _handle_job_expand(service, body, params):
    request = schemas.ExpandRequest.parse(body)
    require_started(service)
    snapshot = service.jobs.submit(
        "expand", lambda: service.expand(request))
    return 202, schemas.JobResponse.parse(
        snapshot, allow_extra=True).as_payload()


def _handle_job_reload(service, body, params):
    request = schemas.ReloadRequest.parse(body)
    require_started(service)

    def run():
        try:
            return service.reload(request.artifacts)
        except ApiError:
            raise
        except Exception as error:
            raise api_errors.reload_failed(repr(error)) from error

    snapshot = service.jobs.submit("reload", run)
    return 202, schemas.JobResponse.parse(
        snapshot, allow_extra=True).as_payload()


def _handle_job_list(service, body, params):
    return 200, schemas.JobListResponse.parse(
        {"jobs": service.jobs.list()}).as_payload()


def _handle_job_get(service, body, params):
    snapshot = service.jobs.get(params["job_id"])
    return 200, schemas.JobResponse.parse(
        snapshot, allow_extra=True).as_payload()


# ----------------------------------------------------------------------
# legacy alias handlers — historical permissive semantics, raw service
# response shapes.  Deliberately thin: new behaviour goes to /v1 only.
# ----------------------------------------------------------------------
def _legacy_health(service, body, params):
    # raw shape: no schema normalisation (e.g. "journal" stays absent
    # without a journal, as pre-/v1 monitoring expects)
    return 200, service.health()


def _legacy_taxonomy(service, body, params):
    return 200, service.taxonomy_state()


def _legacy_score(service, body, params):
    return 200, service.score(body.get("pairs", []))


def _legacy_expand(service, body, params):
    return 200, service.expand(body.get("candidates", {}))


def _legacy_ingest(service, body, params):
    result = service.ingest(body.get("records", []),
                            body.get("provenance"),
                            sync=bool(body.get("sync", False)))
    return (202 if result["accepted"] else 503), result


def _legacy_reload(service, body, params):
    return 200, service.reload(body.get("artifacts"))


#: ``RouteSpec.handler`` name -> /v1 handler callable
V1_HANDLERS = {
    "health": _handle_health,
    "taxonomy": _handle_taxonomy,
    "openapi": _handle_openapi,
    "score": _handle_score,
    "suggest": _handle_suggest,
    "expand": _handle_expand,
    "ingest": _handle_ingest,
    "reload": _handle_reload,
    "snapshot": _handle_snapshot,
    "job_expand": _handle_job_expand,
    "job_reload": _handle_job_reload,
    "job_snapshot": _handle_job_snapshot,
    "job_list": _handle_job_list,
    "job_get": _handle_job_get,
    # "metrics" is text/plain and handled inline by the transport
}

#: ``RouteSpec.handler`` name -> legacy alias handler callable
LEGACY_HANDLERS = {
    "health": _legacy_health,
    "taxonomy": _legacy_taxonomy,
    "score": _legacy_score,
    "expand": _legacy_expand,
    "ingest": _legacy_ingest,
    "reload": _legacy_reload,
}

#: handlers whose work is CPU-bound or otherwise slow — the asyncio
#: transport runs these off-loop and applies admission control to them;
#: everything else (health, metrics, job polling, the static OpenAPI
#: document) stays cheap and is always admitted so operators can still
#: observe a saturated server.
HEAVY_HANDLERS = frozenset({
    "score", "suggest", "expand", "ingest", "reload", "snapshot",
    "job_expand", "job_reload", "job_snapshot",
})


class BoundRoute:
    """One dispatchable (method, path template) -> handler binding."""

    __slots__ = ("spec", "segments", "legacy")

    def __init__(self, spec, path: str, legacy: bool):
        self.spec = spec
        self.segments = tuple(path.strip("/").split("/"))
        self.legacy = legacy

    def match(self, segments: tuple) -> dict | None:
        """Path params when ``segments`` matches this template."""
        if len(segments) != len(self.segments):
            return None
        params = {}
        for template, actual in zip(self.segments, segments):
            if template.startswith("{") and template.endswith("}"):
                params[template[1:-1]] = actual
            elif template != actual:
                return None
        return params


def build_route_index() -> dict:
    """``{method: [BoundRoute, ...]}`` from the declarative table."""
    index: dict[str, list] = {}
    for spec in ROUTES:
        index.setdefault(spec.method, []).append(
            BoundRoute(spec, spec.path, legacy=False))
        if spec.legacy_alias:
            index.setdefault(spec.method, []).append(
                BoundRoute(spec, spec.legacy_alias, legacy=True))
    return index


#: the route index the transport dispatches on
ROUTE_INDEX = build_route_index()


def resolve_route(method: str, path: str) -> tuple:
    """Match ``(method, path)`` against the route index.

    Returns ``(bound_route, path_params)``; ``(None, None)`` when no
    route matches.  ``path`` must already be stripped of its query
    string.
    """
    segments = tuple(path.strip("/").split("/"))
    for candidate in ROUTE_INDEX.get(method, ()):
        params = candidate.match(segments)
        if params is not None:
            return candidate, params
    return None, None

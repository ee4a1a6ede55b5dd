"""In-process REST-like API service over an :class:`~repro.system.ErbiumDB`.

No sockets are involved (see the substitution table in DESIGN.md): a request
is a method + path + optional JSON-like body, a response is a status code plus
a JSON-serializable payload.  The translation logic — nested outputs, key
parsing, CRUD dispatch, ERQL pass-through — is exactly what a network-facing
implementation would run behind the socket.

The surface is built on the session layer of :mod:`repro.session`:

* ``POST /query`` takes ``{"query": ..., "params": {...}}`` — ``$name``
  placeholders bound server-side, so clients never interpolate literals into
  query strings (and repeated shapes share one cached plan);
* list endpoints (``GET /entities/{entity}``, ``.../related/{relationship}``)
  paginate with an opaque, stable cursor and a server-enforced maximum page
  size;
* ``POST /batch`` and ``POST /entities/{entity}/batch`` run several write
  operations inside one session transaction — all-or-nothing;
* every error response has the machine-readable shape
  ``{"error": {"code": ..., "message": ...}}`` with a status that separates
  validation (400/422) from not-found (404), authorization (401/403) and
  constraint conflicts (409).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qsl

from ..errors import (
    AccessDenied,
    AnalysisError,
    ApiError,
    BindError,
    ConstraintViolation,
    ErbiumError,
    InstanceError,
    LexerError,
    MigrationError,
    ParseError,
    PlanningError,
    ReadOnlyError,
    SerializationError,
    TypeMismatchError,
)
from ..governance import AccessController, AuditLog
from ..observability.bundle import build_bundle, write_bundle
from ..session import Session
from ..system import ErbiumDB
from .openapi import generate_openapi
from .resources import (
    Router,
    default_router,
    paginate_keys,
    paginate_sorted,
    parse_key,
    sort_keys,
)

#: Default and server-enforced maximum page size for the list endpoints.
DEFAULT_PAGE_SIZE = 100
MAX_PAGE_SIZE = 200

#: Default machine-readable code per status (overridable per ApiError).
_STATUS_CODES = {
    400: "bad_request",
    401: "unauthorized",
    403: "forbidden",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    422: "validation",
    429: "overloaded",
    500: "internal",
    503: "unavailable",
}

#: Write operations accepted by ``POST /batch``.
_BATCH_OPS = ("insert", "update", "delete", "link", "unlink")


def error_body(code: str, message: str) -> Dict[str, Any]:
    """The uniform error payload: ``{"error": {"code", "message"}}``."""

    return {"error": {"code": code, "message": message}}


@dataclass
class Response:
    """An API response: status plus payload (already JSON-serializable).

    ``headers`` carries the few response headers this in-process surface
    models — currently ``Retry-After`` on 503 read-only rejections.
    """

    status: int
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> str:
        return json.dumps(self.body, sort_keys=True, default=str)


class ApiService:
    """Dispatches REST-like requests against one ErbiumDB instance."""

    def __init__(
        self,
        system: ErbiumDB,
        access: Optional[AccessController] = None,
        audit: Optional[AuditLog] = None,
        max_page_size: int = MAX_PAGE_SIZE,
        max_in_flight: Optional[int] = None,
    ) -> None:
        self.system = system
        # default to the governance objects registered on the system (which
        # recovery restores from checkpoints) when the caller passes none
        self.access = access if access is not None else getattr(system, "access", None)
        self.audit = audit if audit is not None else getattr(system, "audit", None)
        self.max_page_size = max_page_size
        self.router: Router = default_router()
        # Admission control: with ``max_in_flight`` set, requests beyond that
        # many concurrently-executing ones are shed with 429 + Retry-After
        # instead of queueing behind the engine.  ``None`` (default) admits
        # everything — the pre-PR-8 behavior.
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1 (or None to disable)")
        self.max_in_flight = max_in_flight
        self._admission_lock = threading.Lock()
        self._in_flight = 0
        registry = system.observability.registry
        self._request_hist = registry.histogram("api.request_seconds")
        self._request_counter = registry.counter("api.requests")
        self._shed_counter = registry.counter("api.shed")
        self._in_flight_gauge = registry.gauge("api.in_flight")
        # per-entity sorted key lists, invalidated by any table data change
        self._sorted_keys_cache: Dict[str, Tuple[Any, List[Any]]] = {}
        # Read endpoints execute under statement-level snapshot views pinned
        # through this autocommit MVCC session: each GET / POST /query reads
        # one transactionally-consistent version of the store and never
        # blocks on (or behind) a concurrently-committing writer.  The
        # session holds no per-request state, so it is safe to share across
        # request threads.
        self._reader = Session(system, autocommit=True, isolation="snapshot")

    def close(self) -> None:
        """Release the reader session's cached snapshot views (idempotent).

        Call on service shutdown so views pinned by idle request threads do
        not retain superseded table snapshots; the service stays usable.
        """

        self._reader.close()

    # -- public entry point ----------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        principal: Optional[str] = None,
    ) -> Response:
        """Handle one request; engine/API errors map to 4xx/5xx responses.

        The one deliberate exception: a non-dict ``body`` raises ``TypeError``
        immediately — it indicates a caller bug (most likely a positional
        ``principal`` from the pre-session signature), not a client request
        that deserves an error response.

        Admission control happens here: with ``max_in_flight`` configured,
        a request arriving while that many are already executing is shed
        with **429 + Retry-After** before it touches the engine — shedding
        early keeps the latency of admitted requests bounded instead of
        letting everything queue and time out together.  Every admitted
        request is timed into the ``api.request_seconds`` histogram.
        """

        if body is not None and not isinstance(body, dict):
            # loud failure for old positional-principal call sites:
            # get(path, "carl") would otherwise silently bind "carl" as body
            raise TypeError(
                f"request body must be a dict or None, got {type(body).__name__}; "
                "pass principal as a keyword argument"
            )
        self._request_counter.inc()
        if not self._admit():
            self._shed_counter.inc()
            return self._error_response(
                429,
                "overloaded",
                f"too many in-flight requests (max {self.max_in_flight}); "
                "retry after the indicated delay",
            )
        started = time.perf_counter()
        try:
            return self._dispatch(method, path, body, principal)
        finally:
            self._release()
            self._request_hist.record(time.perf_counter() - started)

    def _admit(self) -> bool:
        with self._admission_lock:
            if self.max_in_flight is not None and self._in_flight >= self.max_in_flight:
                return False
            self._in_flight += 1
            count = self._in_flight
        self._in_flight_gauge.set(count)
        return True

    def _release(self) -> None:
        with self._admission_lock:
            self._in_flight -= 1
            count = self._in_flight
        self._in_flight_gauge.set(count)

    def _dispatch(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        principal: Optional[str],
    ) -> Response:
        path, query_params = self._split_query_string(path)
        if query_params and method.upper() == "GET":
            # query-string values (the HTTP-expressible spelling for GET
            # pagination) are defaults; an explicit body wins on conflicts.
            # Write methods ignore the query string — merging it would let a
            # stray ?attr=value inject attribute values into the body.
            body = {**query_params, **(body or {})}
        try:
            route, params = self.router.resolve(method, path)
            handler = getattr(self, f"_handle_{route.handler}", None)
            if handler is None:
                raise ApiError(500, f"handler {route.handler!r} is not implemented")
            obs = self.system.observability
            if obs.enabled:
                obs.registry.counter(f"api.handler.{route.handler}").inc()
                handler_started = time.perf_counter()
                try:
                    response = handler(params, body or {}, principal)
                finally:
                    obs.registry.histogram(f"api.{route.handler}_seconds").record(
                        time.perf_counter() - handler_started
                    )
            else:
                response = handler(params, body or {}, principal)
            if self.audit is not None:
                self.audit.record(
                    action=f"api.{route.handler}",
                    principal=principal or "anonymous",
                    entity=params.get("entity"),
                    outcome=str(response.status),
                )
            return response
        except ApiError as exc:
            code = exc.code or _STATUS_CODES.get(exc.status, "error")
            return self._error_response(exc.status, code, exc.message)
        except ErbiumError as exc:
            status, code = self._classify_error(exc)
            return self._error_response(status, code, str(exc))

    def _error_response(self, status: int, code: str, message: str) -> Response:
        response = Response(status, error_body(code, message))
        if status == 503:
            # tell well-behaved clients when the background probe will next
            # try to restore the write path
            response.headers.update(self._retry_after_header())
        elif status == 429:
            # overload shedding: capacity frees as soon as any in-flight
            # request completes, so the shortest expressible delay applies
            response.headers.update(self._retry_after_header(1))
        return response

    def _retry_after_header(self, seconds: Optional[float] = None) -> Dict[str, str]:
        """The one ``Retry-After`` construction, shared by 503 and 429.

        With no explicit ``seconds`` the delay is the durability manager's
        probe interval (the next chance for the write path to heal); the
        header value is always a whole number of seconds, at least 1.
        """

        if seconds is None:
            manager = self.system.durability
            seconds = getattr(manager, "probe_interval", None) if manager else None
        if not seconds:
            seconds = 1
        return {"Retry-After": str(max(1, int(round(seconds))))}

    @staticmethod
    def _split_query_string(path: str) -> Tuple[str, Dict[str, str]]:
        """Split ``/entities/person?limit=5&cursor=abc`` into path + params."""

        if "?" not in path:
            return path, {}
        bare, _, raw_query = path.partition("?")
        params: Dict[str, str] = {}
        for pair in parse_qsl(raw_query, keep_blank_values=True):
            params[pair[0]] = pair[1]
        return bare, params

    @staticmethod
    def _classify_error(exc: ErbiumError) -> Tuple[int, str]:
        """Map engine exceptions to (status, machine-readable code)."""

        if isinstance(exc, (ParseError, LexerError, AnalysisError, PlanningError)):
            return 400, "invalid_query"
        if isinstance(exc, BindError):
            return 400, "invalid_parameters"
        if isinstance(exc, ReadOnlyError):
            # the WAL cannot persist writes; reads still work, so clients
            # should retry writes after the probe interval (Retry-After)
            return 503, "read_only"
        if isinstance(exc, SerializationError):
            # first-committer-wins loser: the transaction raced a concurrent
            # writer and must be retried against a fresh snapshot
            return 409, "serialization_conflict"
        if isinstance(exc, ConstraintViolation):
            return 409, "constraint_violation"
        if isinstance(exc, MigrationError):
            # a migration already running, or one that rolled back cleanly;
            # the old layout is still serving either way
            return 409, "migration_failed"
        if isinstance(exc, (TypeMismatchError, InstanceError)):
            return 422, "validation"
        if isinstance(exc, AccessDenied):
            return 403, "forbidden"
        return 400, "bad_request"

    # shorthand helpers ---------------------------------------------------------
    #
    # ``principal`` is keyword-only: its position changed when ``body`` was
    # added to get/delete, and a silently mis-bound principal would downgrade
    # an authorized request to an anonymous one.

    def get(self, path: str, body: Optional[Dict[str, Any]] = None, *, principal: Optional[str] = None) -> Response:
        return self.request("GET", path, body, principal=principal)

    def post(self, path: str, body: Dict[str, Any], *, principal: Optional[str] = None) -> Response:
        return self.request("POST", path, body, principal=principal)

    def patch(self, path: str, body: Dict[str, Any], *, principal: Optional[str] = None) -> Response:
        return self.request("PATCH", path, body, principal=principal)

    def delete(self, path: str, body: Optional[Dict[str, Any]] = None, *, principal: Optional[str] = None) -> Response:
        return self.request("DELETE", path, body, principal=principal)

    # -- access-control helper --------------------------------------------------------

    def _check(self, principal: Optional[str], action: str, entity: str) -> None:
        if self.access is None:
            return
        if principal is None:
            raise ApiError(401, "this deployment requires a principal")
        try:
            self.access.check(principal, action, entity)
        except ErbiumError as exc:
            raise ApiError(403, str(exc))

    # -- validation helpers -----------------------------------------------------------

    def _require_entity(self, entity: str) -> None:
        if not self.system.schema.has_entity(entity):
            raise ApiError(404, f"unknown entity set {entity!r}")

    def _require_relationship(self, relationship: str) -> None:
        if not self.system.schema.has_relationship(relationship):
            raise ApiError(404, f"unknown relationship {relationship!r}")

    def _check_relationship_write(self, principal: Optional[str], relationship: str) -> None:
        """Linking/unlinking writes rows for the participant entities."""

        for entity in self.system.schema.relationship(relationship).entity_names():
            self._check(principal, "write", entity)

    def _parse_limit(self, body: Dict[str, Any]) -> int:
        """Validated, server-side-clamped page size (400 on bad input)."""

        raw = body.get("limit", DEFAULT_PAGE_SIZE)
        if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
            raise ApiError(400, f"limit must be an integer, got {raw!r}", code="invalid_limit")
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise ApiError(400, f"limit must be an integer, got {raw!r}", code="invalid_limit")
        if value < 1:
            raise ApiError(400, "limit must be at least 1", code="invalid_limit")
        return min(value, self.max_page_size)

    def _sorted_entity_keys(self, entity: str, view, crud) -> List[Any]:
        """The entity's decorated-sorted key list, cached per data version.

        Walking a large listing page by page would otherwise re-fetch and
        re-sort all N keys per request; the cache token is the snapshot
        ``view``'s per-table watermarks (the keys are read *through* that
        view), so any write anywhere invalidates it — conservative but exact,
        since entity key sets can span several physical tables — and snapshot
        data is never filed under a newer live version.
        """

        token = tuple(sorted(view.watermarks().items()))
        cached = self._sorted_keys_cache.get(entity)
        if cached is not None and cached[0] == token:
            return cached[1]
        decorated = sort_keys(crud.entity_keys(entity))
        self._sorted_keys_cache[entity] = (token, decorated)
        return decorated

    def _parse_cursor(self, body: Dict[str, Any]) -> Optional[str]:
        cursor = body.get("cursor")
        if cursor is None:
            return None
        if not isinstance(cursor, str) or not cursor:
            raise ApiError(400, "cursor must be a non-empty string", code="invalid_cursor")
        return cursor

    # -- handlers -------------------------------------------------------------------------

    def _handle_describe_schema(self, params, body, principal) -> Response:
        return Response(200, self.system.schema.describe())

    def _handle_describe_mapping(self, params, body, principal) -> Response:
        return Response(200, self.system.active_mapping().describe())

    def _handle_list_entities(self, params, body, principal) -> Response:
        entity = params["entity"]
        self._require_entity(entity)
        self._check(principal, "read", entity)
        limit = self._parse_limit(body)
        cursor = self._parse_cursor(body)
        layout = self.system._layout
        crud = layout.templates()
        items = []
        with self._reader.read_scope(layout) as view:
            # one snapshot covers the key listing and every item fetch, so a
            # page can never mix rows from two different commit points
            page, next_cursor, total = paginate_sorted(
                self._sorted_entity_keys(entity, view, crud), limit, cursor
            )
            for key in page:
                instance = crud.get_entity(entity, key)
                if instance is None:
                    continue
                values = instance.values
                if self.access is not None and principal is not None:
                    values = self.access.redact(principal, instance).values
                items.append({"key": list(key), "values": values})
        return Response(
            200,
            {
                "entity": entity,
                "count": total,
                "items": items,
                "limit": limit,
                "next_cursor": next_cursor,
            },
        )

    def _handle_get_entity(self, params, body, principal) -> Response:
        entity = params["entity"]
        key = parse_key(params["key"])
        self._require_entity(entity)
        self._check(principal, "read", entity)
        layout = self.system._layout
        with self._reader.read_scope(layout):
            instance = layout.templates().get_entity(entity, key)
        if instance is None:
            raise ApiError(404, f"no instance of {entity!r} with key {key}")
        values = instance.values
        if self.access is not None and principal is not None:
            values = self.access.redact(principal, instance).values
        return Response(200, {"entity": entity, "key": list(key), "values": values})

    def _handle_create_entity(self, params, body, principal) -> Response:
        entity = params["entity"]
        self._require_entity(entity)
        self._check(principal, "write", entity)
        if not isinstance(body, dict) or not body:
            raise ApiError(422, "request body must be a non-empty object of attribute values")
        instance = self.system.insert(entity, body)
        return Response(
            201,
            {"entity": entity, "key": list(instance.key_of(self.system.schema)), "values": instance.values},
        )

    def _handle_create_entities_batch(self, params, body, principal) -> Response:
        """Bulk insert: all items land in one transaction (vectorized path)."""

        entity = params["entity"]
        self._require_entity(entity)
        self._check(principal, "write", entity)
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise ApiError(422, "body must contain a non-empty 'items' array")
        if not all(isinstance(item, dict) and item for item in items):
            raise ApiError(422, "every item must be a non-empty object of attribute values")
        inserted = self.system.insert_many(entity, items)
        return Response(201, {"entity": entity, "inserted": inserted})

    def _handle_update_entity(self, params, body, principal) -> Response:
        entity = params["entity"]
        key = parse_key(params["key"])
        self._require_entity(entity)
        self._check(principal, "write", entity)
        if not isinstance(body, dict) or not body:
            raise ApiError(422, "request body must be a non-empty object of attribute changes")
        self.system.update(entity, key, body)
        return Response(200, {"entity": entity, "key": list(key), "updated": sorted(body)})

    def _handle_delete_entity(self, params, body, principal) -> Response:
        entity = params["entity"]
        key = parse_key(params["key"])
        self._require_entity(entity)
        self._check(principal, "delete", entity)
        removed = self.system.delete(entity, key)
        return Response(200, {"entity": entity, "key": list(key), "rows_removed": removed})

    def _handle_related(self, params, body, principal) -> Response:
        entity = params["entity"]
        key = parse_key(params["key"])
        relationship = params["relationship"]
        self._require_entity(entity)
        self._check(principal, "read", entity)
        self._require_relationship(relationship)
        limit = self._parse_limit(body)
        cursor = self._parse_cursor(body)
        layout = self.system._layout
        with self._reader.read_scope(layout):
            related = layout.templates().related_keys(relationship, entity, key)
        page, next_cursor, total = paginate_keys(related, limit, cursor)
        return Response(
            200,
            {
                "entity": entity,
                "key": list(key),
                "relationship": relationship,
                "related": [list(r) for r in page],
                "count": total,
                "limit": limit,
                "next_cursor": next_cursor,
            },
        )

    def _handle_create_relationship(self, params, body, principal) -> Response:
        relationship = params["relationship"]
        self._require_relationship(relationship)
        self._check_relationship_write(principal, relationship)
        endpoints = body.get("endpoints")
        if not isinstance(endpoints, dict) or not endpoints:
            raise ApiError(422, "body must contain an 'endpoints' object of role -> key")
        values = body.get("values") or {}
        self.system.link(relationship, endpoints, values)
        return Response(201, {"relationship": relationship, "endpoints": endpoints, "values": values})

    def _handle_delete_relationship(self, params, body, principal) -> Response:
        relationship = params["relationship"]
        self._require_relationship(relationship)
        self._check_relationship_write(principal, relationship)
        endpoints = (body or {}).get("endpoints")
        if not isinstance(endpoints, dict) or not endpoints:
            raise ApiError(422, "body must contain an 'endpoints' object of role -> key")
        removed = self.system.unlink(relationship, endpoints)
        return Response(200, {"relationship": relationship, "removed": removed})

    def _handle_query(self, params, body, principal) -> Response:
        """``POST /query`` with ``{"query": ..., "params": {...}}``.

        Parameters are bound server-side through the prepared-statement
        machinery — no client-side string interpolation, and repeated query
        shapes hit the normalized-text plan cache.  With an access controller
        installed, the principal must hold "read" on every entity the query
        touches, and every referenced attribute must be visible to them
        (PII-denied attributes are a 403, not silently-redacted columns —
        arbitrary projections cannot be column-redacted after the fact).
        """

        text = (body or {}).get("query")
        if not text or not isinstance(text, str):
            raise ApiError(422, "body must contain a 'query' string")
        bindings = (body or {}).get("params")
        if bindings is None:
            bindings = {}
        if not isinstance(bindings, dict):
            raise ApiError(422, "'params' must be an object of name -> value")

        def authorize(compiled) -> None:
            for entity in compiled.entities:
                self._check(principal, "read", entity)
            self._check_attribute_visibility(principal, compiled.attribute_refs)

        # statement-level snapshot: the query reads one consistent version of
        # the store and runs in parallel with any committing writer
        result = self._reader._query(text, bindings, authorize=authorize)
        return Response(
            200,
            {"columns": result.columns, "rows": [dict(r) for r in result.rows], "count": len(result)},
        )

    def _check_attribute_visibility(
        self, principal: Optional[str], attribute_refs: Sequence[Tuple[str, str]]
    ) -> None:
        """403 when a query references an attribute the principal may not read.

        Structural columns that are not declared attributes of the entity
        (weak-entity owner keys) are covered by the entity-level check alone.
        """

        if self.access is None or principal is None:
            return
        declared: Dict[str, set] = {}
        visible: Dict[str, set] = {}
        for entity, attribute in attribute_refs:
            if entity not in declared:
                declared[entity] = {
                    a.name for a in self.system.schema.effective_attributes(entity)
                }
                visible[entity] = set(self.access.visible_attributes(principal, entity))
            if attribute not in declared[entity]:
                continue
            if attribute not in visible[entity]:
                raise ApiError(
                    403,
                    f"attribute {entity}.{attribute} is not readable by this principal",
                )

    def _handle_batch(self, params, body, principal) -> Response:
        """``POST /batch``: several write operations, one transaction.

        Each operation is ``{"op": "insert"|"update"|"delete"|"link"|"unlink",
        ...}``.  Any failure rolls back every operation in the batch; the
        error names the failing index.
        """

        operations = (body or {}).get("operations")
        if not isinstance(operations, list) or not operations:
            raise ApiError(422, "body must contain a non-empty 'operations' array")
        # authorize everything up front so a late 403 cannot waste a rollback
        for index, operation in enumerate(operations):
            self._validate_batch_op(index, operation, principal)
        results: List[Dict[str, Any]] = []
        with self.system.session() as session:
            for index, operation in enumerate(operations):
                try:
                    results.append(self._apply_batch_op(session, operation))
                except ApiError as exc:
                    raise ApiError(
                        exc.status, f"operation {index} failed: {exc.message}", code=exc.code
                    )
                except ErbiumError as exc:
                    status, code = self._classify_error(exc)
                    raise ApiError(
                        status, f"operation {index} failed: {exc}", code=code
                    )
        return Response(200, {"operations": len(results), "results": results})

    def _validate_batch_op(self, index: int, operation: Any, principal) -> None:
        if not isinstance(operation, dict):
            raise ApiError(422, f"operation {index} must be an object")
        op = operation.get("op")
        if op not in _BATCH_OPS:
            raise ApiError(
                422,
                f"operation {index}: unknown op {op!r}; expected one of {list(_BATCH_OPS)}",
            )
        if op in ("insert", "update", "delete"):
            entity = operation.get("entity")
            if not isinstance(entity, str):
                raise ApiError(422, f"operation {index} must name an 'entity'")
            self._require_entity(entity)
            self._check(principal, "delete" if op == "delete" else "write", entity)
        else:
            relationship = operation.get("relationship")
            if not isinstance(relationship, str):
                raise ApiError(422, f"operation {index} must name a 'relationship'")
            self._require_relationship(relationship)
            self._check_relationship_write(principal, relationship)

    @staticmethod
    def _op_key(operation: Dict[str, Any]) -> Tuple[Any, ...]:
        key = operation.get("key")
        if key is None:
            raise ApiError(422, "operation needs a 'key'")
        return tuple(key) if isinstance(key, (list, tuple)) else (key,)

    def _apply_batch_op(self, session, operation: Dict[str, Any]) -> Dict[str, Any]:
        op = operation["op"]
        if op == "insert":
            values = operation.get("values")
            if not isinstance(values, dict) or not values:
                raise ApiError(422, "insert operation needs a non-empty 'values' object")
            instance = session.insert(operation["entity"], values)
            return {
                "op": op,
                "entity": operation["entity"],
                "key": list(instance.key_of(self.system.schema)),
            }
        if op == "update":
            changes = operation.get("changes")
            if not isinstance(changes, dict) or not changes:
                raise ApiError(422, "update operation needs a non-empty 'changes' object")
            key = self._op_key(operation)
            session.update(operation["entity"], key, changes)
            return {"op": op, "entity": operation["entity"], "key": list(key)}
        if op == "delete":
            key = self._op_key(operation)
            removed = session.delete(operation["entity"], key)
            return {"op": op, "entity": operation["entity"], "key": list(key), "rows_removed": removed}
        if op == "link":
            endpoints = operation.get("endpoints")
            if not isinstance(endpoints, dict) or not endpoints:
                raise ApiError(422, "link operation needs an 'endpoints' object")
            session.link(operation["relationship"], endpoints, operation.get("values") or {})
            return {"op": op, "relationship": operation["relationship"]}
        if op == "unlink":
            endpoints = operation.get("endpoints")
            if not isinstance(endpoints, dict) or not endpoints:
                raise ApiError(422, "unlink operation needs an 'endpoints' object")
            removed = session.unlink(operation["relationship"], endpoints)
            return {"op": op, "relationship": operation["relationship"], "removed": removed}
        raise ApiError(422, f"unknown op {op!r}")  # unreachable; _validate caught it

    def _handle_health(self, params, body, principal) -> Response:
        """``GET /health``: durability health state, always 200.

        ``status`` is ``healthy`` / ``degraded`` / ``read_only``; the probe
        endpoint (and the background prober) move an unhealthy system back.
        A system without durability is trivially healthy.
        """

        manager = self.system.durability
        return Response(
            200,
            {
                "status": self.system.health.value,
                "durability": manager.describe() if manager is not None else None,
            },
        )

    def _handle_admin_probe(self, params, body, principal) -> Response:
        """``POST /admin/probe``: attempt recovery toward HEALTHY now.

        Runs the durability manager's health probe synchronously (heal the
        WAL, prove a sentinel append, retry the checkpoint) and reports the
        resulting state.  409 with code ``durability_disabled`` when the
        system was not opened durably.
        """

        if self.system.durability is None:
            raise ApiError(
                409,
                "durability is not enabled for this database; there is no "
                "health to probe",
                code="durability_disabled",
            )
        info = self.system.probe()
        return Response(
            200, {"status": self.system.health.value, "durability": info}
        )

    def _handle_admin_checkpoint(self, params, body, principal) -> Response:
        """``POST /admin/checkpoint``: force a durable checkpoint now.

        ``{"background": true}`` captures synchronously but encodes/writes
        off-thread.  409 with code ``durability_disabled`` when the system
        was not opened durably.
        """

        if self.system.durability is None:
            raise ApiError(
                409,
                "durability is not enabled for this database; open it with "
                "ErbiumDB.open(path)",
                code="durability_disabled",
            )
        background = body.get("background", False)
        if not isinstance(background, bool):
            raise ApiError(400, "'background' must be a boolean", code="validation")
        info = self.system.checkpoint(background=background)
        return Response(200, {"checkpoint": info, "durability": self.system.durability.describe()})

    def _handle_metrics(self, params, body, principal) -> Response:
        """``GET /metrics``: the full metrics snapshot, always 200.

        ``metrics`` is the registry snapshot (counters, gauges, histograms
        with p50/p95/p99); ``query_metrics`` the compile-pipeline counters;
        ``run_summary`` the per-operation / per-phase rollup; ``slow_queries``
        the slow-log's own counters (entries come from the diagnostics
        bundle, not this endpoint — scrapes should stay small and cheap).
        """

        obs = self.system.observability
        return Response(
            200,
            {
                "health": self.system.health.value,
                "metrics": obs.registry.snapshot(),
                "query_metrics": self.system.metrics.snapshot(),
                "run_summary": obs.tracer.summary.snapshot(),
                "slow_queries": obs.slowlog.describe(),
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
            },
        )

    def _handle_admin_diagnostics(self, params, body, principal) -> Response:
        """``POST /admin/diagnostics``: capture a diagnostic bundle now.

        Returns the bundle inline.  ``{"write": true}`` additionally
        persists it as JSON — into the database directory for a durable
        system (``"path"`` overrides) — and reports ``written_to``, so an
        operator can capture state for an incident ticket in one call.
        """

        write = body.get("write", False)
        if not isinstance(write, bool):
            raise ApiError(400, "'write' must be a boolean", code="validation")
        path = body.get("path")
        if path is not None and not isinstance(path, str):
            raise ApiError(400, "'path' must be a string", code="validation")
        bundle = build_bundle(self.system)
        if write:
            written_to = write_bundle(self.system, path=path, bundle=bundle)
            return Response(200, {"written_to": written_to, "bundle": bundle})
        return Response(200, {"bundle": bundle})

    def _handle_admin_migrate(self, params, body, principal) -> Response:
        """``POST /admin/migrate``: durable online migration, or reconcile.

        ``{"spec": {...}, "batch_size": 512}`` runs the online protocol to
        the given serialized mapping spec (WAL-logged lifecycle, incremental
        backfill, catch-up by key re-copy, atomic flip) and returns the migration
        report including the post-flip reconcile.  Works on in-memory
        systems too — durability, when enabled, makes the flip crash-atomic.

        ``{"reconcile_only": true}`` skips migration and just diffs the live
        catalog against the installed spec; add
        ``"apply_fixups": ["safe"]`` (tiers: ``safe``, ``guarded``) to run
        the generated repairs of those tiers.
        """

        reconcile_only = body.get("reconcile_only", False)
        if not isinstance(reconcile_only, bool):
            raise ApiError(400, "'reconcile_only' must be a boolean", code="validation")
        if reconcile_only:
            tiers = body.get("apply_fixups")
            if tiers is not None and (
                not isinstance(tiers, list) or not all(isinstance(t, str) for t in tiers)
            ):
                raise ApiError(
                    400, "'apply_fixups' must be a list of tier names", code="validation"
                )
            from ..evolution.reconcile import apply_fixups

            report = self.system.reconcile()
            applied = 0
            if tiers:
                try:
                    applied = apply_fixups(self.system, report, tiers=tuple(tiers))
                except ErbiumError as exc:
                    raise ApiError(400, str(exc), code="validation")
            return Response(
                200, {"reconcile": report.describe(), "fixups_applied": applied}
            )

        spec_doc = body.get("spec")
        if not isinstance(spec_doc, dict) or not spec_doc:
            raise ApiError(
                400,
                "'spec' must be a serialized mapping spec object "
                "(or pass 'reconcile_only': true)",
                code="validation",
            )
        batch_size = body.get("batch_size")
        if batch_size is not None and (
            not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1
        ):
            raise ApiError(400, "'batch_size' must be a positive integer", code="validation")
        from ..durability.snapshot import spec_from_dict

        # spec_from_dict defaults every missing field, so an unrelated object
        # would silently compile to the default normalized design — reject
        # keys the serialization format does not define instead
        known = {"name", "hierarchy", "multivalued", "weak_entity", "relationship", "description"}
        unknown = set(spec_doc) - known
        if unknown:
            raise ApiError(
                400,
                f"unknown mapping spec fields: {sorted(unknown)}; expected a "
                "serialized spec with keys from "
                f"{sorted(known)}",
                code="validation",
            )
        try:
            spec = spec_from_dict(spec_doc)
        except (ErbiumError, KeyError, TypeError, ValueError) as exc:
            raise ApiError(400, f"invalid mapping spec: {exc}", code="validation")
        report = self.system.migrate_online(new_spec=spec, batch_size=batch_size)
        return Response(200, {"migration": report.describe()})

    def _handle_openapi(self, params, body, principal) -> Response:
        return Response(
            200, generate_openapi(self.system, self.router, max_page_size=self.max_page_size)
        )

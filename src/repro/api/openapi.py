"""Generate API documentation from the E/R schema and the route table.

The paper notes that DDL-level descriptive text "can be automatically used,
e.g., for creating API documentations".  This module does exactly that: the
attribute/entity descriptions written in the DDL (or on the schema objects)
flow into an OpenAPI-like document describing every generated endpoint and
every entity's payload shape.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..core import Attribute, ERSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import ErbiumDB
    from .resources import Router


def _attribute_schema(attribute: Attribute) -> Dict[str, Any]:
    if attribute.is_composite():
        return {
            "type": "object",
            "description": attribute.description or "",
            "properties": {
                c.name: _attribute_schema(c) for c in attribute.components  # type: ignore[attr-defined]
            },
        }
    if attribute.is_multivalued():
        if attribute.element_is_composite():  # type: ignore[attr-defined]
            items: Dict[str, Any] = {
                "type": "object",
                "properties": {
                    c.name: _attribute_schema(c)
                    for c in attribute.element_components  # type: ignore[attr-defined]
                },
            }
        else:
            items = {"type": _scalar_json_type(attribute.type_name)}
        return {"type": "array", "items": items, "description": attribute.description or ""}
    return {
        "type": _scalar_json_type(attribute.type_name),
        "description": attribute.description or "",
    }


def _scalar_json_type(type_name: str) -> str:
    if type_name in ("int", "bigint"):
        return "integer"
    if type_name in ("float", "double", "real"):
        return "number"
    if type_name in ("bool", "boolean"):
        return "boolean"
    return "string"


def entity_component_schemas(schema: ERSchema) -> Dict[str, Any]:
    """One JSON-schema component per entity set (including inherited attributes)."""

    components: Dict[str, Any] = {}
    for entity in schema.entities():
        properties = {}
        required = []
        for attribute in schema.effective_attributes(entity.name):
            if attribute.is_derived():
                continue
            properties[attribute.name] = _attribute_schema(attribute)
            if attribute.required:
                required.append(attribute.name)
        components[entity.name] = {
            "type": "object",
            "description": entity.description or "",
            "properties": properties,
            "required": sorted(set(required) | set(schema.effective_key(entity.name))),
            "x-key": schema.effective_key(entity.name),
            "x-kind": "weak_entity" if entity.is_weak() else "entity",
        }
    return components


#: Reusable parameter/requestBody documentation per operation, merged into
#: the generated path entries.  Kept here (not in the router) so the route
#: table stays a pure dispatch structure.
_PAGINATION_PARAMETERS = [
    {
        "name": "limit",
        "in": "query",
        "schema": {"type": "integer", "minimum": 1},
        "description": "Page size; clamped to the server-side maximum.",
    },
    {
        "name": "cursor",
        "in": "query",
        "schema": {"type": "string"},
        "description": "Opaque pagination cursor from a previous page's "
        "'next_cursor'; omit for the first page.",
    },
]

_HANDLER_DOCS: Dict[str, Dict[str, Any]] = {
    "admin_migrate": {
        "requestBody": {
            "required": [],
            "schema": {
                "type": "object",
                "properties": {
                    "spec": {
                        "type": "object",
                        "description": "Serialized mapping spec (the format "
                        "checkpoints use) to migrate to online: WAL-logged "
                        "lifecycle, incremental backfill, catch-up by key "
                        "re-copy, atomic flip.",
                    },
                    "batch_size": {
                        "type": "integer",
                        "description": "Instances copied per backfill batch "
                        "(bounds how long the read view pins old versions).",
                    },
                    "reconcile_only": {
                        "type": "boolean",
                        "description": "Skip migration; diff the live catalog "
                        "against the installed spec and return the findings.",
                    },
                    "apply_fixups": {
                        "type": "array",
                        "items": {"type": "string"},
                        "description": "With reconcile_only: safety tiers "
                        "('safe', 'guarded') of generated fixups to apply.",
                    },
                },
            },
        },
        "responses": {
            "200": {
                "description": "The migration report (backfill/catch-up "
                "counts, flip LSN, post-flip reconcile) — or, in "
                "reconcile-only mode, the reconcile report with its "
                "OK/MISMATCH/FIXUP/MANUAL findings."
            },
            "409": {
                "description": "Another migration is in progress, or the "
                "flip rolled back (error code 'migration_failed'); the old "
                "layout is still serving."
            },
        },
    },
    "admin_checkpoint": {
        "requestBody": {
            "required": [],
            "schema": {
                "type": "object",
                "properties": {
                    "background": {
                        "type": "boolean",
                        "description": "Encode and write the checkpoint on a "
                        "background thread instead of blocking the request.",
                    }
                },
            },
        },
        "responses": {
            "200": {
                "description": "Checkpoint info ({version, lsn, file}) plus "
                "current durability status."
            },
            "409": {
                "description": "Durability is not enabled for this database "
                "(error code 'durability_disabled')."
            },
        },
    },
    "list_entities": {
        "parameters": _PAGINATION_PARAMETERS,
        "responses": {
            "200": {
                "description": "One page of instances plus 'next_cursor' "
                "(null on the last page) and the total 'count'."
            }
        },
    },
    "related": {
        "parameters": _PAGINATION_PARAMETERS,
        "responses": {
            "200": {"description": "One page of related keys plus 'next_cursor'."}
        },
    },
    "query": {
        "requestBody": {
            "required": ["query"],
            "schema": {
                "type": "object",
                "properties": {
                    "query": {
                        "type": "string",
                        "description": "An ERQL SELECT; use $name placeholders "
                        "instead of interpolating literals.",
                    },
                    "params": {
                        "type": "object",
                        "description": "Bindings for the $name placeholders.",
                        "additionalProperties": True,
                    },
                },
            },
        },
        "responses": {
            "200": {
                "description": "columns, rows and count.  The query executes "
                "under a statement-level snapshot read view: the result is "
                "one transactionally consistent version of the store, and "
                "execution never blocks on a concurrently-committing writer."
            }
        },
    },
    "create_entities_batch": {
        "requestBody": {
            "required": ["items"],
            "schema": {
                "type": "object",
                "properties": {
                    "items": {
                        "type": "array",
                        "items": {"type": "object"},
                        "description": "Attribute-value objects, inserted in "
                        "one transaction through the vectorized write path.",
                    }
                },
            },
        },
        "responses": {"201": {"description": "Number of instances inserted."}},
    },
    "health": {
        "responses": {
            "200": {
                "description": "Current health: {status: healthy|degraded|"
                "read_only, durability: {...}|null}.  Always 200 — clients "
                "poll this to decide when a read-only system has recovered."
            }
        },
    },
    "admin_probe": {
        "responses": {
            "200": {
                "description": "Post-probe health: {status, durability}.  "
                "Attempts to heal the write-ahead log and re-publish a "
                "checkpoint; idempotent and safe to call repeatedly."
            },
            "409": {
                "description": "Durability is not enabled for this database "
                "(error code 'durability_disabled')."
            },
        },
    },
    "metrics": {
        "responses": {
            "200": {
                "description": "Metrics snapshot: {health, metrics: {counters, "
                "gauges, histograms (count/sum/min/max/mean/p50/p95/p99)}, "
                "query_metrics, run_summary (per-operation and per-phase "
                "timings), slow_queries (log counters), in_flight, "
                "max_in_flight}.  Counters are monotonic; designed for "
                "periodic scraping.  Always 200."
            }
        },
    },
    "admin_diagnostics": {
        "requestBody": {
            "required": [],
            "schema": {
                "type": "object",
                "properties": {
                    "write": {
                        "type": "boolean",
                        "description": "Also persist the bundle as JSON "
                        "(into the database directory for a durable system) "
                        "and report 'written_to'.",
                    },
                    "path": {
                        "type": "string",
                        "description": "Explicit file path for the persisted "
                        "bundle (only with write=true).",
                    },
                },
            },
        },
        "responses": {
            "200": {
                "description": "A one-shot diagnostic bundle: config, health "
                "state with full transition history, plan-cache and "
                "WAL/checkpoint state, metrics snapshot, run summary and "
                "recent slow queries.  Slow-log entries carry parameter "
                "names only — binding values are redacted by construction."
            }
        },
    },
    "batch": {
        "requestBody": {
            "required": ["operations"],
            "schema": {
                "type": "object",
                "properties": {
                    "operations": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "op": {
                                    "type": "string",
                                    "enum": ["insert", "update", "delete", "link", "unlink"],
                                }
                            },
                        },
                        "description": "Executed inside one transaction; any "
                        "failure rolls back the whole batch.",
                    }
                },
            },
        },
        "responses": {"200": {"description": "Per-operation results."}},
    },
}

#: The uniform error payload shape every non-2xx response uses.
_ERROR_SCHEMA = {
    "type": "object",
    "properties": {
        "error": {
            "type": "object",
            "properties": {
                "code": {
                    "type": "string",
                    "description": "Machine-readable error code (e.g. "
                    "'not_found', 'validation', 'invalid_query', "
                    "'invalid_parameters', 'constraint_violation', "
                    "'serialization_conflict').  'serialization_conflict' "
                    "(HTTP 409) means a snapshot-isolation transaction lost "
                    "a first-committer-wins race — another transaction "
                    "committed a write to the same row after this "
                    "transaction's snapshot was pinned; the request may be "
                    "retried against fresh state.  'read_only' (HTTP 503, "
                    "with a Retry-After header) means the write-ahead log "
                    "has failed and the database only serves reads until a "
                    "health probe restores it; retry writes after the "
                    "indicated delay or poll GET /health.  'overloaded' "
                    "(HTTP 429, with a Retry-After header) means admission "
                    "control shed the request because the configured "
                    "max_in_flight requests were already executing; retry "
                    "after the indicated delay.",
                },
                "message": {"type": "string"},
            },
            "required": ["code", "message"],
        }
    },
    "required": ["error"],
}


def generate_openapi(
    system: "ErbiumDB", router: "Router", max_page_size: Optional[int] = None
) -> Dict[str, Any]:
    """An OpenAPI-like description of the generated API."""

    schema = system.schema
    paths: Dict[str, Any] = {}
    for route in router.routes():
        entry = paths.setdefault(route.template, {})
        operation: Dict[str, Any] = {
            "summary": route.description,
            "operationId": route.handler,
        }
        operation.update(_HANDLER_DOCS.get(route.handler, {}))
        entry[route.method.lower()] = operation
    relationship_docs = {
        r.name: {
            "kind": r.kind(),
            "participants": [p.describe() for p in r.participants],
            "attributes": [a.name for a in r.attributes],
            "description": r.description or "",
        }
        for r in schema.relationships()
    }
    components = {"schemas": dict(entity_component_schemas(schema), Error=_ERROR_SCHEMA)}
    document = {
        "openapi": "3.0-like",
        "info": {
            "title": f"ErbiumDB API for schema {schema.name!r}",
            "version": "0.2.0",
            "description": "Generated from the E/R schema: one resource per entity set, "
            "relationship sub-resources, a parameterized ERQL query endpoint, "
            "cursor-paginated listings and transaction-scoped batch endpoints.",
        },
        "paths": paths,
        "components": components,
        "x-relationships": relationship_docs,
        "x-mapping": system.mapping.name if system.mapping is not None else None,
    }
    if max_page_size is not None:
        document["x-pagination"] = {
            "max_page_size": max_page_size,
            "cursor": "opaque base64url token; pass back verbatim as 'cursor'",
        }
    return document

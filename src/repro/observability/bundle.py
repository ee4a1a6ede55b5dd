"""One-shot diagnostic bundles: everything an incident responder needs.

A bundle is a single JSON-serializable dict capturing the state of one
:class:`~repro.system.ErbiumDB` at a moment in time — configuration, health
state with its full transition history, retry/cleanup counters, plan-cache
and WAL/checkpoint state, the complete metrics snapshot, the run summary
and the recent slow-query log.  ``POST /admin/diagnostics`` serves it;
:func:`write_bundle` persists it next to the database files so a bundle can
be attached to an incident ticket after the process is gone.

The capture is read-only and best-effort concurrent: every sub-snapshot
takes only the locks its own structure already uses, so building a bundle
on a live system under write load is safe (it may interleave sub-snapshots
from slightly different instants — fine for diagnostics, and the price of
never stalling the write path to debug it).
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import ErbiumDB

__all__ = ["BUNDLE_KIND", "build_bundle", "write_bundle"]

#: The ``kind`` tag every bundle carries (consumers should check it).
BUNDLE_KIND = "erbium-diagnostic-bundle"

#: Bundle schema version; bump when keys change shape.
BUNDLE_VERSION = 1

#: Slow-query entries included in a bundle (the full ring can be large).
SLOWLOG_LIMIT = 50


def build_bundle(system: "ErbiumDB") -> Dict[str, Any]:
    """Capture a diagnostic bundle for ``system`` (JSON-ready dict)."""

    obs = system.observability
    durability = system.durability
    bundle: Dict[str, Any] = {
        "kind": BUNDLE_KIND,
        "version": BUNDLE_VERSION,
        "generated_at": time.time(),
        "config": _config(system),
        "health": _health(system),
        "plan_cache": _plan_cache(system),
        "metrics": obs.registry.snapshot(),
        "query_metrics": system.metrics.snapshot(),
        "run_summary": obs.tracer.summary.snapshot(),
        "slow_queries": {
            "log": obs.slowlog.describe(),
            "recent": obs.slowlog.entries(limit=SLOWLOG_LIMIT),
            "by_shape": obs.slowlog.by_shape(),
        },
        "durability": durability.describe() if durability is not None else None,
        "storage": _storage(system),
    }
    return bundle


def _config(system: "ErbiumDB") -> Dict[str, Any]:
    durability = system.durability
    layout = system._layout
    return {
        "name": system.name,
        "schema": layout.schema.name,
        "mapping": layout.mapping.name if layout.mapping is not None else None,
        "executor": layout.db.executor,
        "plan_cache_size": system._plan_cache_size,
        "observability": system.observability.describe(),
        "durability_path": durability.path if durability is not None else None,
        "fsync": durability.wal.fsync if durability is not None else None,
        "probe_interval": durability.probe_interval if durability is not None else None,
    }


def _health(system: "ErbiumDB") -> Dict[str, Any]:
    out: Dict[str, Any] = {"state": system.health.value, "reason": None, "history": []}
    durability = system.durability
    if durability is not None:
        monitor = durability.health
        out.update(monitor.describe())
        out["history"] = monitor.history()
    return out


def _plan_cache(system: "ErbiumDB") -> Dict[str, Any]:
    with system._cache_lock:
        size = len(system._plan_cache)
        version = system._layout.version
    counts = system.metrics.snapshot()
    return {
        "size": size,
        "capacity": system._plan_cache_size,
        "mapping_version": version,
        "hits": counts["cache_hits"],
        "evictions": counts["evictions"],
    }


def _storage(system: "ErbiumDB") -> Dict[str, Any]:
    db = system.db
    return {
        "tables": {name: db.row_count(name) for name in sorted(db.catalog.table_names())},
        "total_rows": db.total_rows(),
        "publication_epoch": db.publication_epoch,
        "mvcc_active": db.snapshots.mvcc_active,
    }


def write_bundle(
    system: "ErbiumDB",
    path: Optional[str] = None,
    bundle: Optional[Dict[str, Any]] = None,
) -> str:
    """Build a bundle and write it as pretty-printed JSON; returns the path.

    With no explicit ``path``: a durable system writes
    ``diagnostic-<unix-ts>.json`` into its database directory, an
    in-memory system into the current working directory.  Pass ``bundle``
    to persist an already-captured one instead of capturing again.
    """

    if bundle is None:
        bundle = build_bundle(system)
    if path is None:
        directory = system.durability.path if system.durability is not None else "."
        path = os.path.join(directory, f"diagnostic-{int(bundle['generated_at'])}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path

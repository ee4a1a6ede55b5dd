"""The :class:`ErbiumDB` facade: the whole prototype behind one object.

This mirrors the architecture in Figure 3 of the paper:

* **Schema DDL** — :meth:`ErbiumDB.execute_ddl` parses and applies
  ``create entity`` / ``create relationship`` statements, keeping the E/R
  graph up to date;
* **Physical mapping** — :meth:`ErbiumDB.set_mapping` compiles a
  :class:`~repro.mapping.MappingSpec` (or one chosen by the
  :class:`~repro.mapping.MappingOptimizer`) and installs the physical tables
  in the relational backend; the serialized mapping is stored in the catalog
  as a JSON object, as the paper describes;
* **CRUD operations** — :meth:`insert`, :meth:`get`, :meth:`update`,
  :meth:`delete`, :meth:`link`, :meth:`unlink` go through the CRUD templates;
* **Sessions & prepared statements** — :meth:`session` returns a
  :class:`~repro.session.Session` owning transaction scope; :meth:`prepare`
  compiles a parameterized ERQL statement once for repeated execution.  The
  facade CRUD/query methods below route through an implicit *autocommit*
  session, so old call sites keep working;
* **Ad-hoc queries** — :meth:`query` parses, analyzes, plans (against the
  active mapping) and executes an ERQL SELECT;
* **API calls** — :mod:`repro.api` wraps an ErbiumDB instance in a REST-like
  in-process service.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .core import (
    EntityInstance,
    ERGraph,
    ERSchema,
    RelationshipInstance,
    ensure_valid,
)
from .erql import Planner, analyze_query, apply_ddl, parse_query, unparse_query
from .errors import DurabilityError, ErbiumError, MappingError
from .mapping import (
    AccessPathBuilder,
    CrudTemplates,
    Mapping,
    MappingOptimizer,
    MappingSpec,
    Workload,
    check_mapping,
    compile_mapping,
    fully_normalized_spec,
)
from .durability.manager import DEFAULT_PROBE_INTERVAL
from .observability import MetricsRegistry, Observability, TraceRecord, phase_timer
from .relational import Database, QueryResult
from .relational.mvcc import ReadView, read_view_scope
from .reliability.faults import Filesystem
from .reliability.health import HealthState
from .reliability.retry import RetryPolicy
from .session import CompiledQuery, PreparedStatement, Result, Session, check_bindings


#: Maximum number of compiled plans kept per ErbiumDB instance.
PLAN_CACHE_SIZE = 128


class QueryMetrics:
    """The compile pipeline's and plan cache's registry counters.

    ``parses`` / ``analyses`` / ``plans`` count the actual work performed;
    ``cache_hits`` counts compilations answered from the plan cache (by raw
    or normalized text); ``executions`` counts plan executions.  A prepared
    statement re-executed N times contributes N executions and *zero*
    additional parses/analyses/plans — the acceptance property of the
    prepared-statement layer.

    Each attribute is a lock-protected :class:`~repro.observability.Counter`
    of the system's metrics registry (``query.*`` / ``plan_cache.*`` in
    ``GET /metrics`` and diagnostic bundles), so the counts are exact under
    concurrency; :meth:`snapshot` reads all six as plain ints.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.parses = registry.counter("query.parses")
        self.analyses = registry.counter("query.analyses")
        self.plans = registry.counter("query.plans")
        self.cache_hits = registry.counter("plan_cache.hits")
        self.executions = registry.counter("query.executions")
        self.evictions = registry.counter("plan_cache.evictions")

    def snapshot(self) -> Dict[str, int]:
        return {
            "parses": self.parses.value,
            "analyses": self.analyses.value,
            "plans": self.plans.value,
            "cache_hits": self.cache_hits.value,
            "executions": self.executions.value,
            "evictions": self.evictions.value,
        }


@dataclass(frozen=True)
class Layout:
    """The active physical layout, published as one immutable value.

    Every statement reads ``ErbiumDB._layout`` once and then plans (with
    ``planner``), caches plans (under ``version``), pins views and executes
    (on ``db``) against that one value — so it runs wholly on the old layout
    or wholly on the new one, never on a mix, while an online migration
    flips the system.
    """

    schema: ERSchema
    spec: Optional[MappingSpec]
    mapping: Optional[Mapping]
    db: Database
    crud: Optional[CrudTemplates]
    planner: Optional[Planner]
    version: int

    def templates(self) -> CrudTemplates:
        if self.crud is None:
            raise MappingError("no mapping installed; call set_mapping() first")
        return self.crud


class ErbiumDB:
    """An embedded ErbiumDB instance: E/R schema + mapping + backend database.

    Repeated :meth:`query` calls skip parse/analyze/plan via a bounded LRU
    plan cache keyed on the *normalized parameterized text* (the unparse of
    the parsed statement) plus the layout version — so whitespace/case
    variants and every execution of a prepared statement share one compiled
    plan.  Publishing a new layout empties the cache.
    """

    def __init__(
        self,
        name: str = "erbium",
        schema: Optional[ERSchema] = None,
        plan_cache_size: int = PLAN_CACHE_SIZE,
        observability: Optional[Observability] = None,
    ) -> None:
        self.name = name
        self.observability = observability if observability is not None else Observability()
        self.metrics = QueryMetrics(self.observability.registry)
        self.durability = None  # a DurabilityManager once enable_durability ran
        self.access = None  # an AccessController once attach_governance ran
        self.audit = None  # an AuditLog once attach_governance ran
        db = Database(name)
        db.observability = self.observability
        # Replaced only by _publish; version 0 is the unmapped layout.
        self._layout = Layout(
            schema if schema is not None else ERSchema(name), None, None, db, None, None, 0
        )
        self._versions = itertools.count(1)
        self._plan_cache: "OrderedDict[Tuple[str, int], CompiledQuery]" = OrderedDict()
        self._plan_cache_size = plan_cache_size
        # Guards the plan cache and layout publication: concurrent reader
        # sessions share the cache, and OrderedDict reordering is not atomic.
        # (Metrics counters carry their own locks in the registry.)
        self._cache_lock = threading.Lock()
        # Serializes online migrations: the protocol assumes one shadow
        # database at a time (held for the whole run).
        self._migration_lock = threading.Lock()
        self._implicit_session = Session(self, autocommit=True)

    # ----------------------------------------------------------------- layout
    #
    # Read-only views of the active layout; a change publishes a new Layout.

    @property
    def schema(self) -> ERSchema:
        return self._layout.schema

    @property
    def db(self) -> Database:
        return self._layout.db

    @property
    def mapping(self) -> Optional[Mapping]:
        return self._layout.mapping

    @property
    def crud(self) -> Optional[CrudTemplates]:
        return self._layout.crud

    def _layout_for(
        self, schema: ERSchema, spec: Optional[MappingSpec], mapping: Mapping, db: Database
    ) -> Layout:
        """A layout over ``mapping`` installed in ``db``, templates and planner built.

        The version comes from a counter that never repeats, so nothing
        compiled under an earlier layout — a reverted flip's included —
        matches it.
        """

        return Layout(
            schema,
            spec,
            mapping,
            db,
            CrudTemplates(schema, mapping, db),
            Planner(schema, mapping, db),
            next(self._versions),
        )

    def _publish(self, layout: Layout) -> None:
        """Make ``layout`` the active one, in one assignment.

        The plan cache is emptied in the same critical section (the evicted
        plans counted in ``metrics.evictions``), and ``_cache_put`` refuses
        plans of any other version, so the cache only ever holds plans of
        the active layout.
        """

        with self._cache_lock:
            self._layout = layout
            self.metrics.evictions.inc(len(self._plan_cache))
            self._plan_cache.clear()

    # ------------------------------------------------------------------- DDL

    def execute_ddl(self, text: str) -> "ErbiumDB":
        """Parse and apply a DDL script (create entity / relationship / drop).

        DDL must run before a mapping is installed; evolving a mapped schema
        goes through :mod:`repro.evolution` instead.
        """

        if self.mapping is not None:
            raise MappingError(
                "schema is already mapped; use the evolution subsystem to change it"
            )
        apply_ddl(self.schema, text)
        return self

    def validate_schema(self) -> List[str]:
        """Validate the schema; returns warning messages (raises on errors)."""

        return [str(w) for w in ensure_valid(self.schema)]

    def er_graph(self) -> ERGraph:
        return ERGraph(self.schema)

    # -------------------------------------------------------------- mapping

    def set_mapping(self, spec: Optional[MappingSpec] = None) -> Mapping:
        """Compile and install a mapping (fully normalized by default)."""

        ensure_valid(self.schema)
        if spec is None:
            spec = fully_normalized_spec(self.schema)
        mapping = compile_mapping(self.schema, spec)
        check_mapping(self.schema, mapping).raise_if_invalid()
        if self.mapping is not None:
            raise MappingError(
                "a mapping is already installed; create a new ErbiumDB or use "
                "the evolution subsystem to migrate"
            )
        mapping.install(self.db)
        self._publish(self._layout_for(self.schema, spec, mapping, self.db))
        if self.durability is not None:
            # A mapping change is a DDL barrier for the log: checkpoint now
            # (capturing schema + spec + freshly created tables) so the WAL
            # tail never has to replay across it.
            self.durability.checkpoint()
        return mapping

    def choose_mapping(
        self,
        workload: Workload,
        sample_entities: Sequence[EntityInstance] = (),
        sample_relationships: Sequence[RelationshipInstance] = (),
        limit: int = 32,
    ) -> MappingSpec:
        """Run the mapping optimizer and install the winning mapping."""

        optimizer = MappingOptimizer(self.schema, sample_entities, sample_relationships)
        result = optimizer.optimize(workload, limit=limit)
        best = result.best.spec
        self.set_mapping(best)
        return best

    def active_mapping(self) -> Mapping:
        if self.mapping is None:
            raise MappingError("no mapping installed; call set_mapping() first")
        return self.mapping

    def access_paths(self) -> AccessPathBuilder:
        return self._layout.templates().access

    # ------------------------------------------------------------- evolution

    def migrate_online(
        self,
        change=None,
        new_schema=None,
        new_spec=None,
        transform=None,
        batch_size: Optional[int] = None,
        reconcile_after: bool = True,
    ):
        """Migrate to a new schema and/or physical design without stopping.

        Runs the durable online protocol (see ``docs/evolution.md``): the
        migration lifecycle is WAL-logged, existing data is backfilled into
        a shadow database in bounded batches under an MVCC read view while
        reads and writes keep serving against the old layout, catch-up rounds
        re-copy every key written since from committed state, and an atomic
        flip swaps the system to the new layout (retiring the old database)
        with a synchronous checkpoint as the durable commit point.  A crash at any moment recovers to exactly
        the old layout or exactly the new one — never a mix.

        Returns an :class:`~repro.evolution.online.OnlineMigrationReport`;
        when ``reconcile_after`` is true (the default) it carries a
        post-flip :func:`~repro.evolution.reconcile.reconcile` report.
        """

        from .errors import MigrationError
        from .evolution.online import DEFAULT_BATCH_SIZE, OnlineMigrator

        if not self._migration_lock.acquire(blocking=False):
            raise MigrationError("another online migration is already in progress")
        try:
            migrator = OnlineMigrator(
                self,
                change=change,
                new_schema=new_schema,
                new_spec=new_spec,
                transform=transform,
                batch_size=batch_size if batch_size is not None else DEFAULT_BATCH_SIZE,
                reconcile_after=reconcile_after,
            )
            return migrator.run()
        finally:
            self._migration_lock.release()

    def reconcile(self):
        """Diff the live physical catalog against the installed mapping spec.

        Returns a :class:`~repro.evolution.reconcile.ReconcileReport` whose
        findings carry an OK / MISMATCH / FIXUP / MANUAL decision each; pass
        it to :func:`~repro.evolution.reconcile.apply_fixups` to run the
        generated repairs of an allowed safety tier.
        """

        from .evolution.reconcile import reconcile as _reconcile

        return _reconcile(self)

    # ------------------------------------------------------------ durability

    @classmethod
    def open(
        cls,
        path: str,
        name: str = "erbium",
        schema: Optional[ERSchema] = None,
        fsync: str = "commit",
        fs: Optional[Filesystem] = None,
        retry: Optional[RetryPolicy] = None,
        probe_interval: Optional[float] = DEFAULT_PROBE_INTERVAL,
    ) -> "ErbiumDB":
        """Open (or create) a durable database rooted at ``path``.

        If ``path`` holds a checkpoint, the system is **recovered**: the
        latest columnar snapshot is restored, the WAL tail is replayed
        (committed transactions only, idempotently, with torn tails
        truncated) and the result is returned ready to serve — every query
        answers exactly as it did before the crash/restart.  On this path
        the *stored* name and schema win: ``name`` is ignored, and an
        explicitly passed ``schema`` is only accepted when it matches the
        recovered one (a mismatch raises
        :class:`~repro.errors.DurabilityError` rather than silently
        operating against a different schema).  Otherwise a fresh durable
        system is returned; durable logging begins when :meth:`set_mapping`
        installs a mapping (which writes checkpoint #1).

        ``fsync`` is the WAL policy: ``"commit"`` (default, fsync every
        commit), ``"batch"`` (group-commit fsync) or ``"off"``.

        ``fs``, ``retry`` and ``probe_interval`` configure the reliability
        machinery: the filesystem seam (tests pass a
        :class:`~repro.reliability.FaultInjector`), the transient-error
        retry policy, and how often an unhealthy system probes for
        recovery (``None`` disables background probing).
        """

        from .durability import has_database, recover_system
        from .durability.snapshot import schema_to_dict

        if has_database(path):
            system = recover_system(
                path, fsync=fsync, fs=fs, retry=retry, probe_interval=probe_interval
            )
            if schema is not None and schema_to_dict(schema) != schema_to_dict(
                system.schema
            ):
                system.close(checkpoint=False)
                raise DurabilityError(
                    f"database at {path!r} was recovered with schema "
                    f"{system.schema.name!r}, which differs from the schema "
                    "passed to open(); recover without a schema argument or "
                    "migrate explicitly"
                )
            return system
        system = cls(name, schema=schema)
        system.enable_durability(
            path, fsync=fsync, fs=fs, retry=retry, probe_interval=probe_interval
        )
        return system

    def enable_durability(
        self,
        path: str,
        fsync: str = "commit",
        fs: Optional[Filesystem] = None,
        retry: Optional[RetryPolicy] = None,
        probe_interval: Optional[float] = DEFAULT_PROBE_INTERVAL,
    ):
        """Attach a write-ahead log + checkpoint store rooted at ``path``.

        ``path`` must be fresh (or a directory this database already logs
        to): attaching a new LSN epoch next to another database's leftover
        WAL segments would let a later recovery replay foreign records, so
        a directory holding segments but no checkpoint is refused.
        """

        from .durability import DurabilityManager, has_database
        from .durability.wal import list_segments, scan_segments

        if self.durability is not None:
            raise DurabilityError(
                f"durability is already enabled at {self.durability.path!r}"
            )
        if has_database(path):
            raise DurabilityError(
                f"{path!r} already holds a database; use ErbiumDB.open(path) "
                "to recover it instead of attaching a fresh log"
            )
        if os.path.isdir(path) and list_segments(path):
            # A checkpoint-less directory with segments is either (a) the
            # startup window of a previous open() that died before
            # set_mapping wrote checkpoint #1 — its segments can hold no
            # committed work, since DML needs tables and tables arrive with
            # the checkpoint — or (b) a database whose CURRENT file was
            # lost.  (a) is safely re-creatable; (b) must not be silently
            # wiped.
            if scan_segments(path).transactions:
                raise DurabilityError(
                    f"{path!r} holds write-ahead-log segments with committed "
                    "transactions but no checkpoint; refusing to overwrite "
                    "them — clear the directory explicitly if the data is "
                    "expendable"
                )
            for _base, segment in list_segments(path):
                os.remove(segment)
        manager = DurabilityManager(
            path, fsync=fsync, fs=fs, retry=retry, probe_interval=probe_interval
        )
        self._attach_durability(manager)
        if self.mapping is not None:
            manager.checkpoint()
        return manager

    def _attach_durability(self, manager) -> None:
        manager.bind(self)
        self.durability = manager
        self.db.durability = manager

    def checkpoint(self, background: bool = False) -> Dict[str, Any]:
        """Write a checkpoint now; returns its {version, lsn, file} info.

        ``background=True`` captures synchronously (cheap: the columnar
        snapshots are shared by reference) but encodes and writes on a
        background thread, so large checkpoints don't stall the caller.
        """

        if self.durability is None:
            raise DurabilityError(
                "durability is not enabled; open the database with "
                "ErbiumDB.open(path) or call enable_durability(path)"
            )
        return self.durability.checkpoint(background=background)

    def close(self, checkpoint: bool = True) -> None:
        """Flush and release durability resources.

        Idempotent and safe on any instance: closing a never-durable system
        is a no-op, and a second ``close()`` after a successful one is too
        (the first detached the durability manager).  When the final
        checkpoint or the log close raises — e.g. a disk error — the manager
        stays attached so the caller can retry or ``close(checkpoint=False)``.
        """

        if self.durability is None:
            return
        if checkpoint and self.mapping is not None and self.durability.health.healthy:
            # an unhealthy system skips the farewell checkpoint: the log (or
            # checkpoint path) is already refusing writes, and recovery will
            # rebuild from the last durable checkpoint + WAL anyway
            self.durability.checkpoint()
        self.durability.close()
        self.db.durability = None
        self.durability = None

    @property
    def health(self) -> HealthState:
        """The durability health state (always HEALTHY without durability)."""

        if self.durability is None:
            return HealthState.HEALTHY
        return self.durability.health.state

    def probe(self) -> Dict[str, Any]:
        """Attempt to restore durability health now; returns manager status."""

        if self.durability is None:
            raise DurabilityError(
                "durability is not enabled; there is no health to probe"
            )
        return self.durability.probe()

    # ----------------------------------------------------------- governance

    def attach_governance(self, access=None, audit=None) -> None:
        """Register governance objects so checkpoints capture their state.

        ``access`` (an :class:`~repro.governance.AccessController`) and
        ``audit`` (an :class:`~repro.governance.AuditLog`) attached here are
        serialized into every checkpoint and restored by recovery; the REST
        service defaults to them when not given its own.
        """

        if access is not None:
            self.access = access
            if audit is None and access.audit is not None:
                audit = access.audit
        if audit is not None:
            self.audit = audit

    # -------------------------------------------------------------- sessions

    def session(self, isolation: str = "live") -> Session:
        """A new client session (transaction scope + CRUD + prepared queries).

        Use as a context manager to span several operations with one
        transaction::

            with system.session() as s:
                s.insert("person", {...})
                s.query("select ... where city = $c", params={"c": "X"})

        ``isolation="snapshot"`` returns an MVCC session: its reads run
        against a pinned read view — fully in parallel with a mutating
        writer, never blocking on the writer lock — and a transaction that
        writes gets first-committer-wins conflict detection (see
        :class:`~repro.session.Session` and ``docs/concurrency.md``).
        """

        return Session(self, isolation=isolation)

    @contextmanager
    def read_view(self) -> Iterator[ReadView]:
        """Pin a consistent snapshot for the ``with`` block (power-user hook).

        Every query executed inside the block — via :meth:`query`, sessions,
        or prepared statements on this thread — reads the pinned snapshot
        instead of live tables::

            with system.read_view():
                a = system.query("select count(id) from person p").scalar()
                b = system.query("select count(id) from person p").scalar()
                assert a == b          # repeatable even under concurrent writers

        Sessions with ``isolation="snapshot"`` manage this automatically;
        the explicit form is for read-only code that wants a multi-statement
        consistent view without a session object.
        """

        view = self.db.begin_read_view()
        try:
            with read_view_scope(view):
                yield view
        finally:
            view.close()

    def prepare(self, text: str) -> PreparedStatement:
        """Compile an ERQL SELECT once; execute it repeatedly with bindings."""

        return self._implicit_session.prepare(text)

    # ------------------------------------------------------------------ CRUD
    #
    # The facade methods below delegate to an implicit autocommit session —
    # the same code path explicit sessions use, minus the shared transaction.

    def insert(self, entity: str, values: Dict[str, Any]) -> EntityInstance:
        """Insert one entity instance."""

        return self._implicit_session.insert(entity, values)

    def insert_many(self, entity: str, rows: Sequence[Dict[str, Any]]) -> int:
        """Bulk insert: rows are batched per physical table (vectorized path)."""

        return self._implicit_session.insert_many(entity, rows)

    def get(self, entity: str, key: Union[Any, Sequence[Any]]) -> Optional[Dict[str, Any]]:
        """Fetch one entity instance by key (None if absent)."""

        return self._implicit_session.get(entity, key)

    def update(self, entity: str, key: Union[Any, Sequence[Any]], changes: Dict[str, Any]) -> None:
        self._implicit_session.update(entity, key, changes)

    def delete(self, entity: str, key: Union[Any, Sequence[Any]]) -> int:
        """Entity-centric delete: removes every physical trace of the instance."""

        return self._implicit_session.delete(entity, key)

    def link(
        self,
        relationship: str,
        endpoints: Dict[str, Union[Any, Sequence[Any]]],
        values: Optional[Dict[str, Any]] = None,
    ) -> RelationshipInstance:
        """Insert a relationship occurrence, e.g. ``link("takes", {"student": 7, "section": (2, 1)})``."""

        return self._implicit_session.link(relationship, endpoints, values)

    def unlink(self, relationship: str, endpoints: Dict[str, Union[Any, Sequence[Any]]]) -> int:
        return self._implicit_session.unlink(relationship, endpoints)

    def related(
        self, relationship: str, from_entity: str, key: Union[Any, Sequence[Any]]
    ) -> List[Tuple[Any, ...]]:
        return self._implicit_session.related(relationship, from_entity, key)

    def count(self, entity: str) -> int:
        return self._implicit_session.count(entity)

    def load(
        self,
        entities: Sequence[EntityInstance] = (),
        relationships: Sequence[RelationshipInstance] = (),
    ) -> int:
        """Bulk-load pre-built instances (used by generators and benchmarks).

        Rides the vectorized write path: physical rows are accumulated per
        table and inserted as batches, so loading scales with batch-level
        (not row-level) constraint and index maintenance costs.
        """

        crud = self._layout.templates()
        inserted = crud.insert_entities(list(entities))
        linked = crud.insert_relationships(list(relationships))
        return len(inserted) + len(linked)

    # ----------------------------------------------------------------- queries

    def query(
        self,
        text: str,
        executor: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> QueryResult:
        """Parse, plan (under the active mapping) and execute an ERQL SELECT.

        ``executor`` optionally forces ``"row"`` or ``"batch"`` execution for
        this call (the backend's default is cost-based).  ``params`` supplies
        values for ``$name`` placeholders; for repeated execution prefer
        :meth:`prepare`, which skips the plan-cache probe entirely.
        """

        return self._implicit_session._query(text, params, executor)

    def plan(self, text: str):
        """The physical plan an ERQL query compiles to under the active mapping.

        Resets operator-level caches so direct consumers (tests, ``explain``,
        manual ``db.execute``) always see current table data; the query paths
        reset in :meth:`_execute_compiled` instead.
        """

        plan = self._compile(text, self._layout).plan
        plan.reset_caches()
        return plan

    def _compile(self, text: str, layout: Layout) -> CompiledQuery:
        """Compile ERQL text for ``layout``, through the normalized-text plan cache.

        Two probes: the raw text first (exact repeats skip even the parse),
        then — after one parse — the normalized ``unparse(parse(text))`` form,
        under which whitespace/case/parenthesization variants and every
        prepared execution of a parameterized statement share one plan.
        Both keys carry ``layout.version``, and the caller runs the plan on
        ``layout.db`` (:meth:`_execute_compiled`), so a statement never mixes
        two layouts.  Callers reset operator-level caches (``Materialize``)
        before running the plan, so cached plans always re-read current
        table data.
        """

        if layout.planner is None:
            raise MappingError("no mapping installed; call set_mapping() first")
        version = layout.version
        cached = self._cache_get((text, version))
        if cached is not None:
            return cached
        with phase_timer("parse"):
            statement = parse_query(text)
        self.metrics.parses.inc()
        normalized = unparse_query(statement)
        cached = self._cache_get((normalized, version))
        if cached is not None:
            # remember the raw spelling so the next repeat skips the parse too
            self._cache_put((text, version), cached)
            return cached
        with phase_timer("analyze"):
            bound = analyze_query(layout.schema, statement)
        with phase_timer("plan"):
            plan = layout.planner.plan(bound)
        self.metrics.analyses.inc()
        self.metrics.plans.inc()
        attribute_refs = sorted(
            {
                (bound.aliases[alias], attribute)
                for alias, attributes in bound.attributes_by_alias().items()
                if alias in bound.aliases
                for attribute in attributes
            }
        )
        compiled = CompiledQuery(
            text=text,
            normalized_text=normalized,
            plan=plan,
            parameters=dict(bound.parameters()),
            entities=sorted(set(bound.aliases.values())),
            attribute_refs=attribute_refs,
            mapping_version=version,
        )
        self._cache_put((normalized, version), compiled)
        if text != normalized:
            self._cache_put((text, version), compiled)
        return compiled

    def _cache_get(self, key: Tuple[str, int]) -> Optional[CompiledQuery]:
        with self._cache_lock:
            cached = self._plan_cache.get(key)
            if cached is None:
                return None
            self._plan_cache.move_to_end(key)
            self.metrics.cache_hits.inc()
            return cached

    def _cache_put(self, key: Tuple[str, int], compiled: CompiledQuery) -> None:
        with self._cache_lock:
            if key[1] != self._layout.version:
                # compiled under a layout that was replaced mid-flight: never
                # cache a plan that the next probe could not legally return
                return
            self._plan_cache[key] = compiled
            while len(self._plan_cache) > self._plan_cache_size:
                self._plan_cache.popitem(last=False)
                self.metrics.evictions.inc()

    def _execute_compiled(
        self,
        compiled: CompiledQuery,
        layout: Layout,
        params: Optional[Dict[str, Any]] = None,
        executor: Optional[str] = None,
        trace: Optional["TraceRecord"] = None,
    ) -> QueryResult:
        """Run a plan compiled for ``layout`` on its database (shared by all paths).

        ``trace`` is the caller's *sampled* trace record, threaded through
        explicitly (rather than read from the tracing thread-local) so the
        unsampled hot path pays nothing here — see the tracing module
        docstring.  When present, the engine time is attributed to the
        ``execute`` phase and the engine tags the executor mode on it.
        """

        bindings = check_bindings(compiled.parameters, params)
        compiled.plan.reset_caches()
        self.metrics.executions.inc()
        if trace is None:
            return layout.db.execute(compiled.plan, executor=executor, params=bindings)
        started = time.perf_counter()
        try:
            return layout.db.execute(
                compiled.plan, executor=executor, params=bindings, trace=trace
            )
        finally:
            trace.add_phase("execute", time.perf_counter() - started)

    def explain(self, text: str) -> str:
        return self._implicit_session.explain(text)

    # ------------------------------------------------------------------ info

    def describe(self) -> Dict[str, Any]:
        layout = self._layout
        out = {
            "name": self.name,
            "schema": layout.schema.describe(),
            "backend": layout.db.describe(),
            "health": self.health.value,
            "observability": self.observability.describe(),
        }
        if layout.mapping is not None:
            out["mapping"] = layout.mapping.describe()
        if self.durability is not None:
            out["durability"] = self.durability.describe()
        return out

    def total_rows(self) -> int:
        return self.db.total_rows()

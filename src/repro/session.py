"""The client surface of ErbiumDB: sessions, prepared statements, cursors.

Every production DB-API exposes the same three objects this module provides:

* :class:`Session` — a connection-like handle that owns transaction scope.
  CRUD calls and ERQL queries issued through a session while a transaction is
  open all commit (or roll back) together; used as a context manager the
  session begins on entry and commits on clean exit.  The legacy
  ``ErbiumDB.insert/query/...`` facade methods route through an implicit
  *autocommit* session, so old call sites keep their one-operation-per-
  transaction semantics unchanged.  ``Session(isolation="snapshot")`` turns
  the session into an MVCC reader: its reads resolve through a pinned
  :class:`~repro.relational.mvcc.ReadView` and run fully in parallel with a
  mutating writer, with first-committer-wins conflict detection
  (:class:`~repro.errors.SerializationError`) if the transaction upgrades to
  writing.  See the class docstring and ``docs/concurrency.md``.
* :class:`PreparedStatement` — an ERQL statement compiled **once** (parse →
  analyze → plan) and re-executed with fresh ``$name`` bindings.  Re-execution
  performs zero parse/analyze/plan work (asserted by instrumentation counters
  in the test suite); the compiled plan carries
  :class:`~repro.relational.expressions.Parameter` placeholders that both
  executors resolve at bind time.
* :class:`Result` — a unified cursor over a
  :class:`~repro.relational.plan.QueryResult`.  Iteration, ``fetchone`` /
  ``fetchmany`` / ``fetchall`` and ``keys()`` follow the DB-API shape; when
  the result is backed by a columnar batch, row dicts are built one at a time
  as the cursor advances instead of materializing the whole result up front.

:class:`CompiledQuery` is the cache entry of the plan cache in
:mod:`repro.system`: the physical plan plus the statement's *normalized*
text (``unparse(parse(text))``) and its parameter slots.  Caching on the
normalized parameterized text means every binding of the same prepared
statement — and every whitespace/case variant of the same query — shares one
compiled plan.
"""

from __future__ import annotations

import threading

from time import perf_counter as _perf_counter  # bound once: hot-path clock

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .core import EntityInstance, RelationshipInstance
from .errors import BindError, SerializationError, TransactionError
from .relational import Database, QueryResult
from .relational.mvcc import ReadView, read_view_scope
from .relational.plan import PlanNode
from .reliability.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mapping import CrudTemplates
    from .system import ErbiumDB, Layout

#: Isolation levels accepted by :class:`Session`.
ISOLATION_LEVELS = ("live", "snapshot")


@dataclass
class CompiledQuery:
    """One fully-compiled ERQL statement (a plan-cache entry).

    ``parameters`` maps each ``$name`` placeholder (in first-appearance
    order) to the type the analyzer slotted for it (or ``None``).
    ``entities`` / ``attribute_refs`` record which entity sets and which
    (entity, attribute) pairs the statement reads — the API layer's
    access-control checks consume them.  ``mapping_version`` is the version
    of the layout the plan was compiled for, so holders (prepared
    statements) can detect staleness after evolution.
    """

    text: str
    normalized_text: str
    plan: PlanNode
    parameters: Dict[str, Optional[str]] = field(default_factory=dict)
    entities: List[str] = field(default_factory=list)
    attribute_refs: List[Tuple[str, str]] = field(default_factory=list)
    mapping_version: int = 0


class Result:
    """Cursor over a query result: iteration, fetchmany, keys().

    Wraps a :class:`QueryResult`; batch-backed results stream — each fetched
    row dict is built on demand from the columnar batch, so consumers that
    stop early (pagination, ``LIMIT``-less point reads) never pay full
    materialization.  The convenience accessors (``scalar``, ``column``,
    ``to_tuples``, ``sorted_tuples``) delegate to the wrapped result.
    """

    def __init__(self, result: QueryResult) -> None:
        self._result = result
        self._position = 0

    # -- metadata ------------------------------------------------------------

    @property
    def columns(self) -> List[str]:
        return list(self._result.columns)

    def keys(self) -> List[str]:
        """Output column names, in select-list order (DB-API ``keys()``)."""

        return list(self._result.columns)

    @property
    def raw(self) -> QueryResult:
        """The underlying :class:`QueryResult` (fully materializable)."""

        return self._result

    def __len__(self) -> int:
        return len(self._result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Result(columns={self.columns!r}, rows={len(self)}, position={self._position})"

    # -- cursor --------------------------------------------------------------

    def _row(self, index: int) -> Dict[str, Any]:
        return self._result.row(index)

    def fetchone(self) -> Optional[Dict[str, Any]]:
        """The next row, or ``None`` when the cursor is exhausted."""

        if self._position >= len(self):
            return None
        row = self._row(self._position)
        self._position += 1
        return row

    def fetchmany(self, size: int = 100) -> List[Dict[str, Any]]:
        """The next ``size`` rows (possibly fewer at the end; [] when done)."""

        if size < 0:
            raise ValueError("fetchmany size must be non-negative")
        end = min(self._position + size, len(self))
        rows = [self._row(i) for i in range(self._position, end)]
        self._position = end
        return rows

    def fetchall(self) -> List[Dict[str, Any]]:
        """Every remaining row."""

        rows = [self._row(i) for i in range(self._position, len(self))]
        self._position = len(self)
        return rows

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- whole-result conveniences (ignore the cursor position) --------------

    def scalar(self) -> Any:
        return self._result.scalar()

    def column(self, name: str) -> List[Any]:
        return self._result.column(name)

    def to_tuples(self) -> List[tuple]:
        return self._result.to_tuples()

    def sorted_tuples(self) -> List[tuple]:
        return self._result.sorted_tuples()


class PreparedStatement:
    """An ERQL statement compiled once, executed many times with bindings.

    Obtained from :meth:`Session.prepare` (or ``ErbiumDB.prepare``).  The
    heavy work — lexing, parsing, semantic analysis, planning under the
    active mapping — happened at prepare time; :meth:`execute` only validates
    the bindings, resets operator caches and runs the stored physical plan.
    If the active mapping changed since compilation (schema evolution), the
    statement transparently recompiles against the new mapping.
    """

    def __init__(self, session: "Session", compiled: CompiledQuery) -> None:
        self._session = session
        self._compiled = compiled

    @property
    def text(self) -> str:
        return self._compiled.text

    @property
    def normalized_text(self) -> str:
        return self._compiled.normalized_text

    @property
    def parameters(self) -> Dict[str, Optional[str]]:
        """Placeholder name -> slotted type (``None`` when not inferable)."""

        return dict(self._compiled.parameters)

    def _current(self, layout: "Layout") -> CompiledQuery:
        compiled = self._compiled
        if compiled.mapping_version != layout.version:
            compiled = self._compiled = self._session.system._compile(compiled.text, layout)
        return compiled

    def execute(
        self,
        params: Optional[Dict[str, Any]] = None,
        /,
        executor: Optional[str] = None,
        **bindings: Any,
    ) -> Result:
        """Run the compiled plan with fresh ``$name`` bindings.

        Bindings come as keyword arguments (``execute(lo=0, hi=10)``) and/or
        a positional dict (``execute({"executor": "x"})`` — the escape hatch
        for placeholder names that collide with this method's own keywords).
        A name supplied both ways is a :class:`~repro.errors.BindError`.
        """

        merged = dict(params or {})
        overlap = sorted(set(merged) & set(bindings))
        if overlap:
            raise BindError(
                "parameter(s) supplied both positionally and as keywords: "
                + ", ".join(f"${n}" for n in overlap)
            )
        merged.update(bindings)
        session = self._session
        layout = session.system._layout
        compiled = self._current(layout)
        obs = session.system.observability
        tracer = obs.tracer if obs.enabled else None
        trace = tracer.start_query() if tracer is not None else None
        if trace is None:
            # unsampled fast path: the sampling tick above is the *only*
            # instrumentation cost — no clock reads.  Prepared hot loops are
            # exactly where per-call timing is unaffordable; a recurring
            # slow prepared statement is caught by the 1-in-N sampler, and
            # ad-hoc slow queries come through Session.query / the API
            # (which wall-clock every call).
            return Result(session._run(compiled, layout, merged, executor))
        # sampled path: explicit start/finish (no generator context manager),
        # traced under the normalized text with bindings redacted to names
        trace.detail = compiled.normalized_text
        trace.param_names = tuple(sorted(compiled.parameters))
        try:
            result = Result(session._run(compiled, layout, merged, executor, trace))
        except BaseException as exc:
            tracer.finish(trace, error=exc)
            raise
        trace.rows = len(result)
        tracer.finish(trace)
        return result

    def explain(self) -> str:
        layout = self._session.system._layout
        return layout.db.explain(self._current(layout).plan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(f"${n}" for n in self._compiled.parameters)
        return f"PreparedStatement({self._compiled.normalized_text!r}, params=[{names}])"


class Session:
    """A client session: transaction scope spanning CRUD and ERQL.

    ``autocommit=True`` (the implicit session behind the ``ErbiumDB`` facade)
    leaves each operation to its own transaction — exactly the pre-session
    behavior.  An explicit session (``ErbiumDB.session()``) can group many
    operations::

        with db.session() as s:                  # begin
            s.insert("person", {...})
            s.query("select ... where city = $c", params={"c": "College Park"})
            s.update("person", 7, {"city": "Laurel"})
        # clean exit -> commit; exception -> rollback

    or drive the scope manually with :meth:`begin` / :meth:`commit` /
    :meth:`rollback`.  CRUD templates' internal transaction scopes *join* the
    session's open transaction (see :mod:`repro.relational.transactions`), so
    a failure anywhere inside the scope undoes everything back to ``begin``.

    **Isolation.**  ``isolation`` selects how the session's reads interact
    with concurrent writers:

    * ``"live"`` (default) — reads see the live store.  An explicit
      transaction takes the engine's writer lock from :meth:`begin` to
      :meth:`commit`, so live transactions serialize with every writer;
      this is the pre-MVCC behavior, unchanged.
    * ``"snapshot"`` — reads resolve through a pinned
      :class:`~repro.relational.mvcc.ReadView` and **never block on (or
      behind) a writer**.  Without an explicit transaction every statement
      pins a fresh view for its own duration (statement-level snapshot:
      each result is transactionally consistent).  Inside
      :meth:`begin` ... :meth:`commit`, the view pinned at ``begin`` serves
      every read — repeatable reads across statements.  The first *write*
      upgrades the transaction: it waits for the writer lock, opens an
      engine transaction carrying the view's version watermarks, and from
      then on the transaction reads the live store (its own writes
      included) while **first-committer-wins** conflict detection raises
      :class:`~repro.errors.SerializationError` if it tries to overwrite a
      row some other transaction committed after the snapshot was pinned.

    A session object is not thread-safe; share the :class:`ErbiumDB`, not
    the session.
    """

    def __init__(
        self,
        system: "ErbiumDB",
        autocommit: bool = False,
        isolation: str = "live",
    ) -> None:
        if isolation not in ISOLATION_LEVELS:
            raise ValueError(
                f"unknown isolation {isolation!r}; expected one of {ISOLATION_LEVELS}"
            )
        self.system = system
        self.autocommit = autocommit
        self.isolation = isolation
        self._owns_transaction = False
        # The layout the open transaction began on: an online migration's
        # flip publishes a new one, and the transaction lives (and must be
        # committed or rolled back) where it started.
        self._layout: Optional["Layout"] = None
        self._view: Optional[ReadView] = None
        self._writing = False
        # Statement-level view cache, one slot per thread (the API service
        # shares one reader session across request threads).  A cached view
        # is reused lock-free while the database's publication epoch is
        # unchanged and replaced after the next commit — so the steady-state
        # read path performs no locking at all.
        self._stmt_views = threading.local()
        # every live cached view, across threads, so close() can drop pins
        # held by threads that have gone idle
        self._open_views: set = set()
        if isolation == "snapshot":
            # flip the engine into MVCC mode now (one-time, idempotent), so
            # this session's reads never wait — not even the very first
            system.db.activate_mvcc()

    # -- transaction scope ---------------------------------------------------

    def in_transaction(self) -> bool:
        if not self._owns_transaction:
            return False
        if self._view is not None:
            return True  # read-only snapshot transaction (no engine txn yet)
        return self._layout.db.transactions.in_transaction()

    def begin(self) -> "Session":
        if self.autocommit:
            raise TransactionError("autocommit sessions cannot open explicit transactions")
        if self._owns_transaction:
            raise TransactionError("this session already has an open transaction")
        self._layout = layout = self.system._layout
        if self.isolation == "snapshot":
            # Pin the read view only: snapshot transactions stay pure readers
            # (no writer lock, no engine transaction) until their first write.
            self._view = layout.db.begin_read_view()
        else:
            layout.db.transactions.begin()
        self._owns_transaction = True
        self._writing = False
        return self

    def _writer(self) -> "CrudTemplates":
        """The templates one write runs on, after readying the transaction.

        An open snapshot transaction is upgraded to a writer before its first
        write: acquire the writer lock (blocking while another write
        transaction is open), open the engine transaction with the pinned
        view's watermarks (enabling first-committer-wins conflict detection)
        and release the view — from here on the transaction reads the live
        store, its own writes included.  Live sessions and autocommit
        statements need no upgrade: their locking is handled by the
        transaction manager and the engine's per-statement locks.
        """

        layout = self.system._layout
        self._check_not_flipped(layout)
        if self._owns_transaction and self.isolation == "snapshot" and not self._writing:
            view = self._view
            assert view is not None
            layout.db.transactions.begin(snapshot_watermarks=view.watermarks())
            self._writing = True
            self._view = None
            view.close()
        return layout.templates()

    def _check_not_flipped(self, layout: "Layout") -> None:
        """Abort an open transaction when a statement's layout is not its own.

        A flip published ``layout`` after the transaction began: its reads
        and writes belong to the old layout, which no longer serves.  Roll
        it back there and raise the retryable
        :class:`~repro.errors.SerializationError`, so :meth:`run` re-executes
        the closure against the new layout.
        """

        if self._owns_transaction and layout is not self._layout:
            self.rollback()
            raise SerializationError(
                "an online schema migration flipped during this transaction; "
                "retry it against the new layout"
            )

    def commit(self, sync: bool = False) -> None:
        """Commit the session's transaction.

        When durability is enabled the commit's redo records reach the
        write-ahead log here (fsynced according to the log's policy);
        ``sync=True`` additionally forces the log to disk before returning,
        regardless of policy — the per-commit escape hatch for ``"batch"`` /
        ``"off"`` configurations.  Committing a read-only snapshot
        transaction simply releases its view.
        """

        if not self._owns_transaction:
            raise TransactionError("this session has no open transaction to commit")
        self._check_not_flipped(self.system._layout)
        if self._view is not None:
            # read-only snapshot transaction: nothing to write, release the view
            view, self._view = self._view, None
            self._owns_transaction = False
            view.close()
            return
        # commit may fail at the WAL append (disk error) and leave the
        # transaction active so it can still be rolled back — release this
        # session's ownership only once the commit actually happened
        db = self._layout.db
        db.transactions.commit()
        self._owns_transaction = False
        self._writing = False
        durability = db.durability
        if sync and durability is not None:
            durability.sync()

    def rollback(self) -> None:
        if not self._owns_transaction:
            raise TransactionError("this session has no open transaction to roll back")
        if self._view is not None:
            view, self._view = self._view, None
            self._owns_transaction = False
            view.close()
            return
        # release ownership only once the rollback actually completed: if an
        # undo callback fails, the engine transaction (and the writer lock it
        # holds) stays reachable through this session for a retry
        self._layout.db.transactions.rollback()
        self._owns_transaction = False
        self._writing = False

    @property
    def health(self):
        """The system's durability health state (HEALTHY without durability)."""

        return self.system.health

    def run(
        self,
        fn,
        retries: int = 3,
        backoff: float = 0.01,
        multiplier: float = 2.0,
        max_delay: float = 1.0,
        sleep=None,
    ):
        """Execute ``fn(session)`` in a transaction, retrying lost conflicts.

        Under snapshot isolation a transaction that loses a
        first-committer-wins race raises
        :class:`~repro.errors.SerializationError`; the standard response is
        to roll back and re-run the closure against a fresh snapshot.  This
        helper does exactly that, with the reliability layer's bounded
        exponential backoff between attempts::

            total = session.run(lambda s: transfer(s, src, dst, amount))

        ``fn`` must be safe to re-execute from scratch (it sees a clean new
        transaction each attempt).  Any other exception — including
        :class:`~repro.errors.ReadOnlyError` — rolls back and propagates
        immediately; after the final attempt the conflict itself propagates.
        Requires a non-autocommit session.
        """

        policy_kwargs = dict(
            retries=retries, backoff=backoff, multiplier=multiplier, max_delay=max_delay
        )
        if sleep is not None:
            policy_kwargs["sleep"] = sleep
        policy = RetryPolicy(**policy_kwargs)
        schedule = list(policy.delays())
        attempt = 0
        while True:
            self.begin()
            try:
                result = fn(self)
            except SerializationError:
                if self.in_transaction():
                    self.rollback()
                if attempt >= len(schedule):
                    raise
                policy.sleep(schedule[attempt])
                attempt += 1
                continue
            except BaseException:
                if self.in_transaction():
                    self.rollback()
                raise
            try:
                self.commit()
            except SerializationError:
                if self.in_transaction():
                    self.rollback()
                if attempt >= len(schedule):
                    raise
                policy.sleep(schedule[attempt])
                attempt += 1
                continue
            except BaseException:
                if self.in_transaction():
                    self.rollback()
                raise
            return result

    # -- read scope ----------------------------------------------------------

    @contextmanager
    def read_scope(self, layout: Optional["Layout"] = None) -> Iterator[Optional[ReadView]]:
        """Bind :meth:`_read_view`'s view for one read on ``layout`` (default: active)."""

        view = self._read_view(layout)
        if view is None:
            yield None
            return
        with read_view_scope(view):
            yield view

    def _read_view(self, layout: Optional["Layout"]) -> Optional[ReadView]:
        """The view one read on ``layout`` (default: the active one) must see.

        * live sessions: none — reads see live storage;
        * snapshot transaction, before any write: the transaction's pinned
          view;
        * snapshot transaction, after its first write: none — the
          transaction must see its own writes; it holds the writer lock, so
          live state is stable apart from those writes;
        * snapshot session outside a transaction: this thread's
          statement-level view of ``layout.db``.

        ``layout`` is the one the statement captured; an open transaction
        that began on another layout is rolled back first.  Every read entry
        point of the session — ERQL queries, prepared executions, entity
        reads — runs under this view; the engine's
        :meth:`~repro.relational.engine.Database.read_table` resolves scans
        through it.
        """

        if layout is None:
            layout = self.system._layout
        self._check_not_flipped(layout)
        if self.isolation != "snapshot" or self._writing:
            return None
        if self._view is not None:
            return self._view
        return self._statement_view(layout.db)

    def _run(
        self,
        compiled: CompiledQuery,
        layout: "Layout",
        params: Optional[Dict[str, Any]],
        executor: Optional[str] = None,
        trace=None,
    ) -> QueryResult:
        """Execute a plan compiled for ``layout`` under this session's view of it."""

        view = self._read_view(layout)
        execute = self.system._execute_compiled
        if view is None:
            return execute(compiled, layout, params, executor, trace)
        with read_view_scope(view):
            return execute(compiled, layout, params, executor, trace)

    def _statement_view(self, db: Database) -> ReadView:
        """This thread's cached statement-level view of ``db``, refreshed on publication.

        The staleness probe is an identity check (a flip replaces the
        database) plus one unlocked integer comparison; only when a writer
        has actually published something new does the session pin a fresh
        view (and release the old one).  A probe racing a concurrent
        publication can at worst reuse the previous committed snapshot for
        one more statement — still a transactionally consistent view, which
        is exactly what statement-level snapshot isolation promises.
        """

        cached = self._stmt_views
        view: Optional[ReadView] = getattr(cached, "view", None)
        if view is None or view.epoch != db.publication_epoch or cached.db is not db:
            if view is not None:
                view.close()
                self._open_views.discard(view)
            view = cached.view = db.begin_read_view()
            cached.db = db
            self._open_views.add(view)
        return view

    def close(self) -> None:
        """Release every cached statement view this session still pins.

        A thread's cached view is normally replaced (and released) on its
        next statement after a commit; threads that go idle while the writer
        keeps committing would otherwise retain superseded snapshots until
        they die.  Long-lived shared sessions (e.g. a service's reader
        session) should be closed on shutdown; closing is idempotent and the
        session remains usable (views re-pin on the next read).
        """

        while self._open_views:
            try:
                view = self._open_views.pop()
            except KeyError:  # pragma: no cover - concurrent close
                break
            view.close()

    def __enter__(self) -> "Session":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._owns_transaction:
            return False
        if exc_type is None:
            try:
                self.commit()
            except BaseException:
                # a failed commit (e.g. the WAL refusing the append) leaves
                # the transaction open for its owner — which, with the scope
                # ending, is nobody: roll back so the writer lock is
                # released and memory matches the log
                if self.in_transaction():
                    self.rollback()
                raise
        else:
            self.rollback()
        return False

    # -- queries -------------------------------------------------------------

    def prepare(self, text: str) -> PreparedStatement:
        """Compile an ERQL SELECT once; re-execute it with fresh bindings."""

        return PreparedStatement(self, self.system._compile(text, self.system._layout))

    def query(
        self,
        text: str,
        params: Optional[Dict[str, Any]] = None,
        executor: Optional[str] = None,
    ) -> Result:
        """Parse/plan (through the normalized-text plan cache) and execute.

        Snapshot sessions execute under a snapshot view, so the result is
        always transactionally consistent even while a writer commits in
        parallel.
        """

        return Result(self._query(text, params, executor))

    def _query(
        self,
        text: str,
        params: Optional[Dict[str, Any]],
        executor: Optional[str] = None,
        authorize: Optional[Callable[[CompiledQuery], None]] = None,
    ) -> QueryResult:
        """Compile ``text`` for the active layout, ``authorize`` it, run it there.

        The door behind ``ErbiumDB.query``, :meth:`query` and the REST
        ``/query``: traced when sampled, and always timed so slow outliers
        reach the slow log (without a phase breakdown when unsampled).
        """

        system = self.system
        layout = system._layout
        obs = system.observability
        tracer = obs.tracer if obs.enabled else None
        trace = tracer.start_query() if tracer is not None else None
        if trace is None:
            started = _perf_counter()
            compiled = system._compile(text, layout)
            if authorize is not None:
                authorize(compiled)
            result = self._run(compiled, layout, params, executor)
            elapsed = _perf_counter() - started
            if tracer is not None and elapsed >= obs.slowlog.threshold_seconds:
                tracer.record_slow(
                    compiled.normalized_text,
                    tuple(sorted(compiled.parameters)),
                    elapsed,
                    rows=len(result),
                )
            return result
        trace.detail = text
        try:
            compiled = system._compile(text, layout)
            # re-key the trace on the normalized text (the plan-cache /
            # slow-log shape key) and redact bindings to their names
            trace.detail = compiled.normalized_text
            trace.param_names = tuple(sorted(compiled.parameters))
            if authorize is not None:
                authorize(compiled)
            result = self._run(compiled, layout, params, executor, trace)
        except BaseException as exc:
            tracer.finish(trace, error=exc)
            raise
        trace.rows = len(result)
        tracer.finish(trace)
        return result

    def execute(
        self,
        text: str,
        params: Optional[Dict[str, Any]] = None,
        executor: Optional[str] = None,
    ) -> Result:
        """Alias for :meth:`query` (DB-API spelling)."""

        return self.query(text, params=params, executor=executor)

    def explain(self, text: str) -> str:
        layout = self.system._layout
        return layout.db.explain(self.system._compile(text, layout).plan)

    # -- CRUD (the logic behind the ErbiumDB facade methods) ------------------

    def insert(self, entity: str, values: Dict[str, Any]) -> EntityInstance:
        return self._writer().insert_entity(EntityInstance(entity, dict(values)))

    def insert_many(self, entity: str, rows: Sequence[Dict[str, Any]]) -> int:
        crud = self._writer()
        instances = [EntityInstance(entity, dict(values)) for values in rows]
        return len(crud.insert_entities(instances))

    def get(self, entity: str, key: Union[Any, Sequence[Any]]) -> Optional[Dict[str, Any]]:
        layout = self.system._layout
        with self.read_scope(layout):
            instance = layout.templates().get_entity(entity, key)
        return dict(instance.values) if instance is not None else None

    def update(
        self, entity: str, key: Union[Any, Sequence[Any]], changes: Dict[str, Any]
    ) -> None:
        self._writer().update_entity(entity, key, changes)

    def delete(self, entity: str, key: Union[Any, Sequence[Any]]) -> int:
        return self._writer().delete_entity(entity, key)

    @staticmethod
    def _normalize_endpoints(
        endpoints: Dict[str, Union[Any, Sequence[Any]]]
    ) -> Dict[str, Tuple[Any, ...]]:
        return {
            role: tuple(v) if isinstance(v, (tuple, list)) else (v,)
            for role, v in endpoints.items()
        }

    def link(
        self,
        relationship: str,
        endpoints: Dict[str, Union[Any, Sequence[Any]]],
        values: Optional[Dict[str, Any]] = None,
    ) -> RelationshipInstance:
        instance = RelationshipInstance(
            relationship, self._normalize_endpoints(endpoints), dict(values or {})
        )
        return self._writer().insert_relationship(instance)

    def unlink(self, relationship: str, endpoints: Dict[str, Union[Any, Sequence[Any]]]) -> int:
        return self._writer().delete_relationship(
            relationship, self._normalize_endpoints(endpoints)
        )

    def related(
        self, relationship: str, from_entity: str, key: Union[Any, Sequence[Any]]
    ) -> List[Tuple[Any, ...]]:
        layout = self.system._layout
        with self.read_scope(layout):
            return layout.templates().related_keys(relationship, from_entity, key)

    def count(self, entity: str) -> int:
        layout = self.system._layout
        with self.read_scope(layout):
            return layout.templates().count_entities(entity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "autocommit" if self.autocommit else (
            "open-transaction" if self.in_transaction() else "idle"
        )
        return f"Session({self.system.name!r}, {mode})"


def check_bindings(
    parameters: Dict[str, Optional[str]], supplied: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Validate supplied bindings against a statement's placeholder slots.

    Raises :class:`~repro.errors.BindError` listing missing or unexpected
    names; returns the validated binding dict.
    """

    given = dict(supplied or {})
    expected = set(parameters)
    missing = sorted(expected - set(given))
    extra = sorted(set(given) - expected)
    if missing:
        raise BindError(
            "missing value(s) for parameter(s): " + ", ".join(f"${n}" for n in missing)
        )
    if extra:
        raise BindError(
            "unexpected parameter(s): "
            + ", ".join(f"${n}" for n in extra)
            + (
                "; statement declares " + ", ".join(f"${n}" for n in sorted(expected))
                if expected
                else "; statement declares no parameters"
            )
        )
    return given

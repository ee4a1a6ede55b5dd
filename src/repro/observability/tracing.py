"""Per-operation phase tracing: spans, trace records, run summaries.

A **trace** covers one logical operation — a query, a transaction commit, a
checkpoint — and accumulates named **phase** timings: how long the query
spent parsing vs planning vs executing, how much of a commit was the WAL
append vs the fsync.  Instrumented code does not pass trace objects around;
the active trace lives in a thread-local and any code on the call path can
attribute time to it::

    with phase_timer("wal_append"):      # no-op when no trace is active
        self.wal.append_transaction(batch)

When a trace finishes, the :class:`Tracer` folds it into the metrics
registry (an operation-latency histogram plus one histogram per phase), a
structured :class:`RunSummary` aggregate, and — for queries — the
slow-query log.

Hot-path discipline
-------------------

The prepared point-read path is ~20µs end to end and the observability
overhead should stay within ~5%, so the budget for the *per-query* cost here is
under a microsecond — less than three locked dict updates.  A full trace
(record object, two histogram updates, summary fold) costs several µs, so
queries are traced on a **deterministic 1-in-N sample**
(:attr:`Tracer.sample_every`, configurable down to 1 = trace everything):

* an unsampled **prepared** execution pays one tick-and-modulo and nothing
  else — not even a clock read;
* an unsampled **ad-hoc** query (``Session.query``, ``POST /query``) is
  still wall-clocked against the slow-query threshold — those paths pay a
  plan-cache probe anyway, so two clock reads are immaterial — and a slow
  one reaches the slow log via :meth:`Tracer.record_slow` (without a phase
  breakdown);
* a sampled query gets the full treatment: phase spans, executor
  attribution, latency histograms, run-summary fold, slow-log entry.  A
  recurring slow prepared statement is therefore caught within ~N
  executions even though individual unsampled executions go untimed.

Histograms and the run summary therefore describe the sample, while the
``QueryMetrics`` counters (every execution) stay exact.  Non-query
operations — commits, checkpoints — are cold enough to trace always.
:meth:`Tracer.start_query` / :meth:`Tracer.finish` are plain methods (no
generator context managers on the query path), :class:`TraceRecord` is
``__slots__``-only, and the trace is threaded *explicitly* through
``_execute_compiled`` into the engine so the unsampled path never touches
the thread-local.  ``phase_timer`` *is* a context manager, used only on
cold paths (compile phases, WAL, checkpoints).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import MetricsRegistry
    from .slowlog import SlowQueryLog

__all__ = ["PHASES", "RunSummary", "TraceRecord", "Tracer", "current_trace", "phase_timer"]

#: The canonical phase names instrumented across the stack.  Not a closed
#: set — ``phase_timer`` accepts any name — but these are the ones the
#: engine, session and durability layers emit.
PHASES = (
    "parse",
    "analyze",
    "plan",
    "execute",
    "wal_append",
    "fsync",
    "checkpoint",
)

_local = threading.local()


def current_trace() -> Optional["TraceRecord"]:
    """The trace active on this thread, or ``None``."""

    return getattr(_local, "trace", None)


@contextmanager
def phase_timer(phase: str) -> Iterator[None]:
    """Attribute the block's wall time to ``phase`` of the active trace.

    A no-op (beyond one thread-local read) when no trace is active, so
    library code can instrument unconditionally.  Re-entering the same
    phase accumulates.
    """

    trace = getattr(_local, "trace", None)
    if trace is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        trace.add_phase(phase, time.perf_counter() - started)


class TraceRecord:
    """One traced operation: op kind, detail, phase timings, outcome.

    ``op`` is the operation kind (``"query"``, ``"commit"``,
    ``"checkpoint"``); ``detail`` identifies the specific operation — for
    queries, the *normalized* statement text (the plan-cache key, shared by
    every binding of a prepared statement).  ``param_names`` carries the
    names (never the values) of any ``$name`` bindings, pre-redacted for
    the slow-query log.
    """

    __slots__ = (
        "op",
        "detail",
        "param_names",
        "phases",
        "rows",
        "error",
        "executor",
        "started_at",
        "duration",
        "_t0",
    )

    def __init__(self, op: str, detail: str, param_names: Tuple[str, ...] = ()) -> None:
        self.op = op
        self.detail = detail
        self.param_names = param_names
        self.phases: Dict[str, float] = {}
        self.rows: Optional[int] = None
        self.error: Optional[str] = None
        self.executor: Optional[str] = None  # set by the engine: "row"/"batch"
        self.started_at = time.time()
        self.duration: float = 0.0
        self._t0 = time.perf_counter()

    def add_phase(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def describe(self) -> Dict[str, Any]:
        """JSON-ready form (slow-log entries, diagnostics)."""

        return {
            "op": self.op,
            "detail": self.detail,
            "params": list(self.param_names),
            "phases": {k: round(v, 9) for k, v in self.phases.items()},
            "rows": self.rows,
            "error": self.error,
            "executor": self.executor,
            "started_at": self.started_at,
            "seconds": round(self.duration, 9),
        }


class RunSummary:
    """Structured aggregate over every finished trace since construction.

    Per operation kind: trace count, error count, total seconds; per
    phase: invocation count, total and max seconds.  The JSON form
    (:meth:`snapshot`) is what ``GET /metrics`` and diagnostic bundles
    embed as ``run_summary`` — the "what has this process been doing"
    rollup that individual histograms cannot express.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: Dict[str, Dict[str, float]] = {}
        self._phases: Dict[str, Dict[str, float]] = {}

    def add(self, trace: TraceRecord) -> None:
        with self._lock:
            op = self._ops.get(trace.op)
            if op is None:
                op = self._ops[trace.op] = {"count": 0, "errors": 0, "seconds": 0.0}
            op["count"] += 1
            op["seconds"] += trace.duration
            if trace.error is not None:
                op["errors"] += 1
            for phase, seconds in trace.phases.items():
                agg = self._phases.get(phase)
                if agg is None:
                    agg = self._phases[phase] = {"count": 0, "seconds": 0.0, "max": 0.0}
                agg["count"] += 1
                agg["seconds"] += seconds
                if seconds > agg["max"]:
                    agg["max"] = seconds

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "operations": {
                    op: {
                        "count": int(agg["count"]),
                        "errors": int(agg["errors"]),
                        "seconds": round(agg["seconds"], 9),
                    }
                    for op, agg in sorted(self._ops.items())
                },
                "phases": {
                    phase: {
                        "count": int(agg["count"]),
                        "seconds": round(agg["seconds"], 9),
                        "max": round(agg["max"], 9),
                    }
                    for phase, agg in sorted(self._phases.items())
                },
            }


class Tracer:
    """Starts and finishes traces, folding results into registry + slow log.

    One trace per thread at a time: :meth:`start` returns ``None`` when a
    trace is already active, so nested operations (a commit inside a traced
    statement, a span inside a span) attribute into the outer trace instead
    of fragmenting it.  Callers must pair every non-``None`` ``start`` with
    exactly one :meth:`finish` (use ``try/finally``).

    Queries go through :meth:`start_query`, which additionally applies
    deterministic 1-in-``sample_every`` sampling (see the module docstring);
    unsampled queries that still turn out slow are fed to the slow log via
    :meth:`record_slow`.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        slowlog: Optional["SlowQueryLog"] = None,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.registry = registry
        self.slowlog = slowlog
        self.summary = RunSummary()
        #: Trace every Nth query (1 = every query).  Plain attribute so
        #: tests and operators can retune a live system.
        self.sample_every = sample_every
        self._tick = 0  # query sampling clock; racy increment is benign
        self._count = 0  # finished traces; racy-read OK (describe only)
        # Pre-created instruments for the per-query hot path: one histogram
        # per op kind and per canonical phase, looked up here by plain dict
        # access instead of going through the registry lock per record.
        self._op_hist = {
            op: registry.histogram(f"{op}.seconds") for op in ("query", "commit", "checkpoint")
        }
        self._phase_hist = {
            phase: registry.histogram(f"phase.{phase}_seconds") for phase in PHASES
        }
        self._executor_counters = {
            mode: registry.counter(f"executor.{mode}") for mode in ("row", "batch")
        }

    def trace_count(self) -> int:
        return self._count

    # -- lifecycle (hot path: plain calls, no generator overhead) ----------

    def start(self, op: str, detail: str, param_names: Tuple[str, ...] = ()) -> Optional[TraceRecord]:
        """Begin a trace on this thread; ``None`` if one is already active."""

        if getattr(_local, "trace", None) is not None:
            return None
        trace = TraceRecord(op, detail, param_names)
        _local.trace = trace
        return trace

    def start_query(self) -> Optional[TraceRecord]:
        """Begin a *sampled* query trace; ``None`` when skipped.

        Returns ``None`` both when this query falls outside the 1-in-N
        sample and when a trace is already active on this thread.  The
        returned record has empty ``detail``/``param_names``; the caller
        fills them in (they are only needed on the sampled path, so the
        normalization/redaction work is not paid for skipped queries).
        """

        every = self.sample_every
        if every > 1:
            tick = self._tick + 1  # unlocked: a lost tick only shifts the sample
            self._tick = tick
            if tick % every:
                return None
        if getattr(_local, "trace", None) is not None:
            return None
        trace = TraceRecord("query", "")
        _local.trace = trace
        return trace

    def record_slow(
        self,
        detail: str,
        param_names: Tuple[str, ...],
        duration: float,
        rows: Optional[int] = None,
    ) -> None:
        """Slow-log an *unsampled* query the caller timed itself.

        The synthesized record has no phase breakdown (phases are only
        measured on sampled traces).  Callers compare against the slow-log
        threshold before calling; this stays off the fast path entirely.
        """

        slowlog = self.slowlog
        if slowlog is None:
            return
        trace = TraceRecord("query", detail, param_names)
        trace.duration = duration
        trace.rows = rows
        slowlog.observe(trace)

    def finish(self, trace: TraceRecord, error: Optional[BaseException] = None) -> TraceRecord:
        """End a trace: clear the thread slot, record metrics + slow log."""

        _local.trace = None
        trace.duration = time.perf_counter() - trace._t0
        if error is not None:
            trace.error = f"{type(error).__name__}: {error}"
        hist = self._op_hist.get(trace.op)
        if hist is None:  # non-canonical op: create through the registry
            hist = self._op_hist[trace.op] = self.registry.histogram(f"{trace.op}.seconds")
        hist.record(trace.duration)
        for phase, seconds in trace.phases.items():
            phist = self._phase_hist.get(phase)
            if phist is None:
                phist = self._phase_hist[phase] = self.registry.histogram(
                    f"phase.{phase}_seconds"
                )
            phist.record(seconds)
        if trace.executor is not None:
            counter = self._executor_counters.get(trace.executor)
            if counter is None:
                counter = self._executor_counters[trace.executor] = self.registry.counter(
                    f"executor.{trace.executor}"
                )
            counter.inc()
        self.summary.add(trace)
        self._count += 1
        if self.slowlog is not None and trace.op == "query":
            self.slowlog.observe(trace)
        return trace

    @contextmanager
    def trace(self, op: str, detail: str, param_names: Tuple[str, ...] = ()) -> Iterator[Optional[TraceRecord]]:
        """Context-manager form for cold paths (commit, checkpoint)."""

        trace = self.start(op, detail, param_names)
        if trace is None:
            yield None
            return
        try:
            yield trace
        except BaseException as exc:
            self.finish(trace, error=exc)
            raise
        else:
            self.finish(trace)

"""Production observability: metrics, tracing, slow-query log, diagnostics.

The subsystem answers the three operational questions the rest of the stack
could not:

* **"what is p99 latency under load?"** — :mod:`.metrics` provides a
  thread-safe :class:`MetricsRegistry` of counters, gauges and
  bounded-reservoir histograms; every query, API request, commit, WAL
  append and checkpoint records into it, and ``GET /metrics`` snapshots it.
* **"why was this query slow?"** — :mod:`.tracing` times each query's
  phases (parse / analyze / plan / execute / wal_append / fsync /
  checkpoint) into per-query :class:`TraceRecord`\\ s aggregated into a
  structured :class:`RunSummary`; :mod:`.slowlog` keeps a ring buffer of
  the slowest statements, keyed on normalized query text, with phase
  breakdowns and parameter redaction.
* **"what was the system doing when it degraded?"** — :mod:`.bundle`
  captures a one-shot JSON diagnostic bundle (config, health state and
  transition history, retry/cleanup counters, plan-cache and
  WAL/checkpoint state, metrics snapshot, recent slow queries) for
  incident debugging, served by ``POST /admin/diagnostics``.

:class:`Observability` is the per-system hub: one registry + tracer +
slow-query log, attached to every :class:`~repro.system.ErbiumDB` at
construction.  ``disable()`` turns the per-query tracing/slow-log machinery
off (the facade ``QueryMetrics`` counters stay live — tests assert on
them).  It is on by default, and the ``erbench`` workloads run with it on,
so its cost is inside every number they report.
"""

from __future__ import annotations

from .bundle import build_bundle, write_bundle
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .slowlog import SlowQueryLog
from .tracing import (
    PHASES,
    RunSummary,
    TraceRecord,
    Tracer,
    current_trace,
    phase_timer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PHASES",
    "RunSummary",
    "SlowQueryLog",
    "TraceRecord",
    "Tracer",
    "build_bundle",
    "current_trace",
    "phase_timer",
    "write_bundle",
]

#: Default slow-query threshold (seconds).  Deliberately generous: the
#: in-process engine answers point reads in tens of microseconds, so a
#: quarter second means something is genuinely wrong (cold plan compile on
#: a giant scan, lock convoy, degraded disk).
DEFAULT_SLOW_QUERY_SECONDS = 0.25

#: Default query-trace sampling rate: fully trace 1 in N queries.  A full
#: trace costs a few microseconds — material against a ~20µs point read —
#: so sampling keeps the steady-state overhead to a few percent while
#: histograms/summaries still see a deterministic, unbiased sample.  Slow
#: queries bypass sampling (every one reaches the slow log); counters are
#: exact regardless.  Set to 1 (``set_sampling(1)``) to trace everything.
DEFAULT_TRACE_SAMPLE_EVERY = 64


class Observability:
    """One system's observability hub: registry + tracer + slow-query log.

    Constructed by :class:`~repro.system.ErbiumDB` and shared with the
    engine (``Database.observability``), the durability manager and the API
    service.  ``enabled`` gates the per-query tracing and slow-log paths;
    the :class:`MetricsRegistry` itself is always live (counters are cheap
    and the ``QueryMetrics`` facade routes through it unconditionally).
    """

    def __init__(
        self,
        enabled: bool = True,
        slow_query_seconds: float = DEFAULT_SLOW_QUERY_SECONDS,
        slowlog_capacity: int = 128,
        sample_every: int = DEFAULT_TRACE_SAMPLE_EVERY,
    ) -> None:
        self.registry = MetricsRegistry()
        self.slowlog = SlowQueryLog(
            capacity=slowlog_capacity, threshold_seconds=slow_query_seconds
        )
        self.tracer = Tracer(self.registry, slowlog=self.slowlog, sample_every=sample_every)
        self.enabled = bool(enabled)

    def enable(self) -> None:
        """Turn per-query tracing and the slow-query log on."""

        self.enabled = True

    def set_sampling(self, every: int) -> None:
        """Fully trace 1 in ``every`` queries (1 = trace every query)."""

        if every < 1:
            raise ValueError("sample_every must be >= 1")
        self.tracer.sample_every = every

    def disable(self) -> None:
        """Turn per-query tracing and the slow-query log off.

        Counters (including the ``QueryMetrics`` facade) keep counting;
        existing trace/slow-log data is retained, not cleared.  The A/B
        knob for measuring the instrumentation overhead.
        """

        self.enabled = False

    def describe(self) -> dict:
        """Operator-facing summary: enabled flag, thresholds, sizes."""

        return {
            "enabled": self.enabled,
            "sample_every": self.tracer.sample_every,
            "slow_query_seconds": self.slowlog.threshold_seconds,
            "slowlog_capacity": self.slowlog.capacity,
            "slowlog_entries": len(self.slowlog),
            "instruments": self.registry.instrument_count(),
            "traces": self.tracer.trace_count(),
        }

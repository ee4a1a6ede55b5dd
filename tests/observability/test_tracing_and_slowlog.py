"""Tracing + slow-log behavior through the real query paths.

These tests pin the tracing contract: which phases a traced query carries,
how prepared re-execution differs from a cold compile, how 1-in-N sampling
behaves, and what reaches the slow-query log (and what never does —
parameter *values* are redacted by construction).
"""

from __future__ import annotations

import pytest

from repro import ErbiumDB
from repro.core import Attribute, EntitySet, ERSchema
from repro.observability import (
    DEFAULT_TRACE_SAMPLE_EVERY,
    PHASES,
    SlowQueryLog,
    TraceRecord,
)


def _system(name: str = "obs") -> ErbiumDB:
    schema = ERSchema(name)
    schema.add_entity(
        EntitySet(
            "item",
            attributes=[Attribute("id", "int", required=True), Attribute("val", "varchar")],
            key=["id"],
        )
    )
    system = ErbiumDB(name, schema)
    system.set_mapping()
    for i in range(10):
        system.insert("item", {"id": i, "val": f"v{i}"})
    return system


# --------------------------------------------------------------------------
# phase attribution
# --------------------------------------------------------------------------


class TestQueryTracing:
    def test_cold_query_records_compile_and_execute_phases(self):
        system = _system()
        system.observability.set_sampling(1)  # deterministic: trace everything
        before = system.observability.tracer.trace_count()
        system.query("select i.id from item i where i.id = $k", params={"k": 3})
        tracer = system.observability.tracer
        assert tracer.trace_count() == before + 1
        phases = tracer.summary.snapshot()["phases"]
        for phase in ("parse", "analyze", "plan", "execute"):
            assert phase in phases, phase
            assert phases[phase]["count"] >= 1

    def test_prepared_reexecution_traces_execute_only(self):
        system = _system()
        statement = system.prepare("select i.id from item i where i.id = $k")
        system.observability.set_sampling(1)
        summary_before = system.observability.tracer.summary.snapshot()["phases"]
        for k in range(5):
            statement.execute(k=k)
        summary_after = system.observability.tracer.summary.snapshot()["phases"]
        assert (
            summary_after["execute"]["count"]
            == summary_before.get("execute", {"count": 0})["count"] + 5
        )
        # no compile work on re-execution: parse/analyze/plan untouched
        for phase in ("parse", "analyze", "plan"):
            assert summary_after.get(phase, {"count": 0}) == summary_before.get(
                phase, {"count": 0}
            ), phase

    def test_traces_are_keyed_on_normalized_text_with_redacted_params(self):
        system = _system()
        obs = system.observability
        obs.set_sampling(1)
        obs.slowlog.set_threshold(0.0)  # everything is "slow": capture entries
        system.query("SELECT   i.id FROM item i WHERE i.id = $secret", params={"secret": 3})
        entry = obs.slowlog.entries(limit=1)[0]
        # normalized (not raw) text; parameter names only, never values
        assert entry["query"] == system._compile(
            "select i.id from item i where i.id = $secret"
        ).normalized_text
        assert entry["params"] == ["secret"]
        assert "3" not in str(entry["params"])

    def test_executor_mode_tagged_on_sampled_traces(self):
        system = _system()
        obs = system.observability
        obs.set_sampling(1)
        before = obs.registry.counter("executor.row").value
        system.query("select i.id from item i where i.id = $k", params={"k": 1})
        after = obs.registry.counter("executor.row").value
        assert after == before + 1

    def test_query_latency_histogram_records(self):
        system = _system()
        obs = system.observability
        obs.set_sampling(1)
        before = obs.registry.histogram("query.seconds").count
        system.query("select count(*) as n from item")
        assert obs.registry.histogram("query.seconds").count == before + 1

    def test_error_traces_are_counted(self):
        system = _system()
        obs = system.observability
        obs.set_sampling(1)
        with pytest.raises(Exception):
            system.query("select nope.x from nonexistent nope")
        ops = obs.tracer.summary.snapshot()["operations"]
        assert ops["query"]["errors"] >= 1

    def test_nested_start_returns_none(self):
        system = _system()
        tracer = system.observability.tracer
        trace = tracer.start("query", "outer")
        try:
            assert tracer.start("query", "inner") is None
            assert tracer.start_query() is None
        finally:
            tracer.finish(trace)

    def test_canonical_phases_constant_is_complete(self):
        assert set(PHASES) >= {
            "parse",
            "analyze",
            "plan",
            "execute",
            "wal_append",
            "fsync",
            "checkpoint",
        }


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


class TestSampling:
    def test_fresh_system_is_enabled_and_sampled_by_default(self):
        described = ErbiumDB("fresh").observability.describe()
        assert described["enabled"] is True
        assert described["sample_every"] == DEFAULT_TRACE_SAMPLE_EVERY

    def test_one_in_n_queries_is_traced(self):
        system = _system()
        obs = system.observability
        obs.set_sampling(10)
        statement = system.prepare("select i.id from item i where i.id = $k")
        before = obs.tracer.trace_count()
        for k in range(100):
            statement.execute(k=k % 10)
        traced = obs.tracer.trace_count() - before
        assert traced == 10  # deterministic: exactly 1 in 10

    def test_sampling_never_affects_counter_accuracy(self):
        system = _system()
        system.observability.set_sampling(50)
        statement = system.prepare("select i.id from item i where i.id = $k")
        before = system.metrics.executions
        for k in range(30):
            statement.execute(k=k % 10)
        assert system.metrics.executions == before + 30

    def test_invalid_sampling_rejected(self):
        system = _system()
        with pytest.raises(ValueError):
            system.observability.set_sampling(0)

    def test_disable_stops_tracing_entirely(self):
        system = _system()
        obs = system.observability
        obs.set_sampling(1)
        obs.disable()
        before = obs.tracer.trace_count()
        system.query("select count(*) as n from item")
        assert obs.tracer.trace_count() == before
        obs.enable()
        system.query("select count(*) as n from item")
        assert obs.tracer.trace_count() == before + 1


# --------------------------------------------------------------------------
# slow-query log
# --------------------------------------------------------------------------


class TestSlowQueryLog:
    def _trace(self, detail: str, seconds: float, params=()) -> TraceRecord:
        trace = TraceRecord("query", detail, tuple(params))
        trace.duration = seconds
        return trace

    def test_threshold_filters(self):
        log = SlowQueryLog(capacity=4, threshold_seconds=0.1)
        assert log.observe(self._trace("q1", 0.05)) is False
        assert log.observe(self._trace("q1", 0.15)) is True
        assert len(log) == 1
        assert log.recorded == 1

    def test_ring_evicts_oldest(self):
        log = SlowQueryLog(capacity=3, threshold_seconds=0.0)
        for i in range(5):
            log.observe(self._trace(f"q{i}", 0.1 + i))
        entries = log.entries()
        assert len(entries) == 3
        # newest first, oldest (q0, q1) evicted
        assert [e["query"] for e in entries] == ["q4", "q3", "q2"]
        assert log.recorded == 5  # monotonic across eviction

    def test_by_shape_rolls_up_and_orders_by_total(self):
        log = SlowQueryLog(capacity=16, threshold_seconds=0.0)
        log.observe(self._trace("a", 1.0))
        log.observe(self._trace("a", 2.0))
        log.observe(self._trace("b", 0.5))
        shapes = log.by_shape()
        assert [s["query"] for s in shapes] == ["a", "b"]
        assert shapes[0]["count"] == 2
        assert shapes[0]["max_seconds"] == pytest.approx(2.0)

    def test_shape_bound_drops_least_recently_seen(self):
        log = SlowQueryLog(capacity=64, threshold_seconds=0.0, max_shapes=2)
        log.observe(self._trace("a", 1.0))
        log.observe(self._trace("b", 1.0))
        log.observe(self._trace("a", 1.0))  # refresh a
        log.observe(self._trace("c", 1.0))  # evicts b (least recently seen)
        assert {s["query"] for s in log.by_shape()} == {"a", "c"}

    def test_slow_adhoc_query_reaches_log_even_unsampled(self):
        system = _system()
        obs = system.observability
        obs.set_sampling(10**9)  # no query will ever be sampled
        obs.slowlog.set_threshold(0.0)
        system.query("select i.id from item i where i.id = $k", params={"k": 1})
        entries = obs.slowlog.entries(limit=1)
        assert entries and entries[0]["params"] == ["k"]
        assert entries[0]["phases"] == {}  # unsampled: no phase breakdown

    def test_entry_values_redacted(self):
        log = SlowQueryLog(capacity=4, threshold_seconds=0.0)
        trace = TraceRecord("query", "select x from t where ssn = $ssn", ("ssn",))
        trace.duration = 1.0
        log.observe(trace)
        entry = log.entries()[0]
        assert entry["params"] == ["ssn"]
        assert set(entry) == {"query", "seconds", "phases", "params", "rows", "error", "at"}

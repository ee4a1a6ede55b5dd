"""The layer pass: micro-runs, one public call of one layer at a time.

Run after the traced box of every ``--trace 1`` run, on seeded data of fixed
size, so the numbers do not depend on the workload that happened to run
first.  Each function times calls into one module of ``src/repro`` and
returns that module's metrics by their catalogue names.  Timings are medians
over many calls; counts are exact.
"""

from __future__ import annotations

import os
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List

from repro import ErbiumDB
from repro.api import ApiService
from repro.durability import CheckpointStore, WriteAheadLog, scan_segments
from repro.durability.recovery import replay
from repro.durability.snapshot import capture_state
from repro.durability.wal import encode_frame
from repro.erql import Planner, analyze_query, parse_query, unparse_query
from repro.relational import Database
from repro.relational.expressions import BinaryOp, col, lit
from repro.relational.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    SeqScan,
)
from repro.relational.typed import TypedColumn
from repro.relational.types import FLOAT, INT, TEXT, Column
from repro.relational.vectorized import execute_batch
from repro.workloads.synthetic import build_synthetic_schema, synthetic_mappings

from .catalog import MAPPING_LABELS
from .data import build_system, make_dataset
from .workloads.base import Scratch
from .workloads.lifecycle_durable import COMMITS, run_cycle
from .workloads.oltp_point import ADHOC_TEMPLATE, PREPARED_TEXT

#: sizes of the micro-runs (``smoke`` divides the row counts by 20)
LAYER_SCALE = 300
KERNEL_ROWS = 100_000
MVCC_ROWS = 20_000
INSERT_ROWS = 30_000
AGGREGATE_TEXT = "select r_y, count(*) as n, sum(r_x.r_x1) as total from R group by r_y"
SCAN_TEXT = "select s_id, s1_id, s1_x, s1_y from S1"


def _median_ns(call: Callable[[int], Any], count: int) -> float:
    samples: List[int] = []
    for i in range(count):
        t0 = perf_counter_ns()
        call(i)
        samples.append(perf_counter_ns() - t0)
    return median(samples)


def _us(call: Callable[[int], Any], count: int) -> float:
    return _median_ns(call, count) / 1e3


def _ms(call: Callable[[int], Any], count: int) -> float:
    return _median_ns(call, count) / 1e6


def _adhoc_texts(first: int, count: int) -> List[str]:
    return [ADHOC_TEMPLATE.format(key=i % 100, n=first + i) for i in range(count)]


# -- erql, session, relational (row path), api, observability: one small system --


def query_path(system: ErbiumDB, count: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    schema, db = system.schema, system.db
    planner = Planner(schema, system.active_mapping(), db)
    texts = _adhoc_texts(1, count)
    statements = [parse_query(text) for text in texts]
    bounds = [analyze_query(schema, statement) for statement in statements]
    out["erql.parse_us"] = _us(lambda i: parse_query(texts[i]), count)
    out["erql.unparse_us"] = _us(lambda i: unparse_query(statements[i]), count)
    out["erql.analyze_us"] = _us(lambda i: analyze_query(schema, statements[i]), count)
    out["erql.plan_us"] = _us(lambda i: planner.plan(bounds[i]), count)

    fresh = _adhoc_texts(10_000, count)
    out["session.compile_miss_us"] = _us(lambda i: system.plan(fresh[i]), count)
    out["session.compile_hit_us"] = _us(lambda i: system.plan(PREPARED_TEXT), 5 * count)
    stmt = system.prepare(PREPARED_TEXT)
    plan = system.plan(PREPARED_TEXT)
    through_session = _us(lambda i: stmt.execute(k=i % 100).fetchall(), 5 * count)
    engine_only = _us(lambda i: db.execute(plan, params={"k": i % 100}).rows, 5 * count)
    out["session.prepared_overhead_us"] = through_session - engine_only

    out["relational.choose_executor_us"] = _us(lambda i: db.choose_executor(plan), 5 * count)
    out["relational.execute_row_us"] = _us(
        lambda i: db.execute(plan, executor="row", params={"k": i % 100}).rows, 5 * count
    )
    aggregate = system.plan(AGGREGATE_TEXT)
    out["relational.execute_batch_ms"] = _ms(
        lambda i: db.execute(aggregate, executor="batch").rows, max(count // 10, 5)
    )
    scan = system.plan(SCAN_TEXT)
    rows = len(db.execute(scan, executor="batch"))
    unconsumed = [db.execute(scan, executor="batch") for _ in range(max(count // 10, 5))]
    out["relational.materialize_us_per_row"] = (
        _us(lambda i: unconsumed[i].rows, len(unconsumed)) / rows
    )
    return out


def api_path(system: ErbiumDB, count: int) -> Dict[str, float]:
    service = ApiService(system)
    reader = system.session(isolation="snapshot")
    try:
        body = lambda i: {"query": PREPARED_TEXT, "params": {"k": i % 100}}  # noqa: E731
        request = _us(lambda i: service.post("/query", body(i)), count)
        statement = _us(
            lambda i: reader.query(PREPARED_TEXT, params={"k": i % 100}).fetchall(), count
        )
        response = service.post("/query", body(1))
        return {
            "api.request_overhead_us": request - statement,
            "api.json_encode_us": _us(lambda i: response.json(), count),
        }
    finally:
        reader.close()
        service.close()


def phase_vs_span(system: ErbiumDB, count: int) -> Dict[str, float]:
    """The program's own phase clock against the benchmark's, on like texts.

    With sampling at 1 the program attributes every ``system.query`` to
    parse / analyze / plan / execute; the harness times the same four public
    calls itself on texts of the same shape.  A ratio far from 1 means the
    two clocks disagree about where a query's time goes.
    """

    observability = system.observability
    previous = observability.tracer.sample_every
    phases = ("parse", "analyze", "plan", "execute")

    def program_seconds() -> float:
        seen = observability.tracer.summary.snapshot()["phases"]
        return sum(seen.get(phase, {}).get("seconds", 0.0) for phase in phases)

    planner = Planner(system.schema, system.active_mapping(), system.db)
    harness = 0.0
    observability.set_sampling(1)
    try:
        before = program_seconds()
        # alternate the two clocks text by text, so drift hits both alike
        for through_program, by_hand in zip(_adhoc_texts(20_000, count), _adhoc_texts(30_000, count)):
            system.query(through_program).rows
            started = perf_counter()
            statement = parse_query(by_hand)
            plan = planner.plan(analyze_query(system.schema, statement))
            system.db.execute(plan)
            harness += perf_counter() - started
        program = program_seconds() - before
    finally:
        observability.set_sampling(previous)
    return {"observability.phase_vs_span_ratio": program / harness}


# -- relational: typed kernels, MVCC, commit, bulk insert, index -------------------


def _table(db: Database, name: str, rows: int) -> None:
    db.create_table(
        name,
        [Column("id", INT), Column("v", INT, nullable=True), Column("x", FLOAT), Column("g", TEXT)],
        primary_key=["id"],
    )
    db.insert_many(
        name,
        (
            {"id": i, "v": None if i % 97 == 0 else i % 1000, "x": (i % 713) * 0.5, "g": f"g{i % 23}"}
            for i in range(rows)
        ),
    )


def kernels(rows: int, repeats: int = 7) -> Dict[str, float]:
    """The shapes of ``benchmarks/test_typed_kernels.py`` plus a join."""

    db = Database("kernels")
    _table(db, "t", rows)
    db.create_table("d", [Column("g", TEXT), Column("w", INT)], primary_key=["g"])
    db.insert_many("d", ({"g": f"g{i}", "w": i} for i in range(23)))
    plans = {
        "relational.kernel_filter_ms": Filter(SeqScan("t"), BinaryOp("<", col("v"), lit(200))),
        "relational.kernel_group_agg_ms": HashAggregate(
            SeqScan("t"),
            group_by=[("g", col("g"))],
            aggregates=[
                AggregateSpec("sum", col("x"), "s"),
                AggregateSpec("count_star", None, "n"),
                AggregateSpec("min", col("v"), "lo"),
            ],
        ),
        "relational.kernel_join_ms": HashJoin(SeqScan("t"), SeqScan("d"), ["g"], ["g"]),
        "relational.kernel_distinct_ms": Distinct(SeqScan("t"), columns=["g", "v"]),
    }
    execute_batch(plans["relational.kernel_filter_ms"], db)  # builds the snapshot once
    out = {name: _ms(lambda i: execute_batch(plan, db), repeats) for name, plan in plans.items()}
    values = list(range(rows))
    out["relational.typed_column_build_ms"] = _ms(lambda i: TypedColumn.from_values(values), repeats)
    return out


def mvcc_and_commit(rows: int, insert_rows: int, count: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    db = Database("mvcc")
    _table(db, "m", rows)
    table = db.table("m")
    columns = ["id", "v", "x", "g"]

    def bump(i: int) -> None:
        db.update_row("m", i % rows, {"v": i})

    out["relational.index_probe_us"] = _us(lambda i: table.lookup_ids(("id",), (i % rows,)), 20 * count)
    out["relational.commit_us_mvcc_off"] = _us(bump, 20 * count)

    def rebuild(i: int) -> float:
        bump(i)
        t0 = perf_counter_ns()
        table.column_data(columns)
        return perf_counter_ns() - t0

    out["relational.snapshot_build_ms"] = median([rebuild(i) for i in range(count)]) / 1e6

    db.activate_mvcc()
    out["relational.commit_ms_mvcc_on"] = _ms(bump, count)
    out["relational.mvcc_pin_us"] = _us(lambda i: db.begin_read_view().close(), 20 * count)

    def pin_after_commit(i: int) -> float:
        bump(i)
        t0 = perf_counter_ns()
        db.begin_read_view().close()
        return perf_counter_ns() - t0

    out["relational.mvcc_pin_after_commit_ms"] = (
        median([pin_after_commit(i) for i in range(count)]) / 1e6
    )

    bulk = Database("bulk")
    bulk.create_table(
        "w",
        [Column("id", INT), Column("v", INT), Column("x", FLOAT), Column("g", TEXT)],
        primary_key=["id"],
    )
    batch = [{"id": i, "v": i % 1000, "x": i * 0.5, "g": f"g{i % 23}"} for i in range(insert_rows)]
    started = perf_counter()
    bulk.insert_many("w", batch)
    out["relational.insert_many_rows_per_s"] = insert_rows / (perf_counter() - started)
    return out


# -- mapping: set_mapping, load, CRUD under M1 and M2 side by side ---------------------


def mapping_crud(scale: int, seed: int, count: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    dataset = make_dataset(scale, seed)
    schema = build_synthetic_schema()
    specs = synthetic_mappings(schema)

    def install(label: str) -> float:
        system = ErbiumDB(label, schema.clone(label))
        t0 = perf_counter_ns()
        system.set_mapping(specs[label])
        return perf_counter_ns() - t0

    out["mapping.set_mapping_ms"] = median([install(label) for label in MAPPING_LABELS]) / 1e6
    systems: Dict[str, ErbiumDB] = {}
    for label in MAPPING_LABELS:
        systems[label], seconds = build_system(label, dataset)
        out[f"mapping.load_instances_per_s.{label}"] = dataset.total_instances() / seconds

    m1 = systems["M1"]
    s_keys, r_keys = dataset.s_ids, dataset.r_ids
    out["mapping.get_us.S"] = _us(lambda i: m1.get("S", s_keys[i % len(s_keys)]), 10 * count)
    out["mapping.insert_us.S"] = _us(
        lambda i: m1.insert("S", {"s_id": 5_000_000 + i, "s_x": i, "s_y": "l"}), 10 * count
    )

    def link(i: int) -> float:
        m1.insert("R", {"r_id": 6_000_000 + i, "r_y": i})
        t0 = perf_counter_ns()
        m1.link("r_s", {"R": 6_000_000 + i, "S": s_keys[i % len(s_keys)]})
        return perf_counter_ns() - t0

    out["mapping.link_us"] = median([link(i) for i in range(count)]) / 1e3
    for label in ("M1", "M2"):
        system = systems[label]
        out[f"mapping.get_ms.R.{label}"] = _ms(lambda i: system.get("R", r_keys[i % len(r_keys)]), count)
        out[f"mapping.delete_ms.R.{label}"] = _ms(lambda i: system.delete("R", r_keys[i]), count // 2)
    return out


# -- durability, reliability, evolution ---------------------------------------------


def wal_micro(scratch: Scratch, count: int) -> Dict[str, float]:
    record = {
        "t": "update_batch",
        "table": "S",
        "row_ids": [17],
        "changes": [{"s_x": 123}],
    }
    out = {"durability.wal_encode_us": _us(lambda i: encode_frame(record), 20 * count)}
    wal = WriteAheadLog(scratch.fresh("wal"), fsync="off")
    try:
        out["durability.wal_append_us"] = _us(lambda i: wal.append_transaction([record]), 5 * count)

        def sync(i: int) -> float:
            wal.append_transaction([record])
            t0 = perf_counter_ns()
            wal.sync()
            return perf_counter_ns() - t0

        out["durability.wal_sync_us"] = median([sync(i) for i in range(count)]) / 1e3
    finally:
        wal.close()
    return out


def checkpoint_and_replay(scale: int, seed: int, scratch: Scratch, repeats: int = 5) -> Dict[str, float]:
    out: Dict[str, float] = {}
    dataset = make_dataset(scale, seed)
    path = scratch.fresh("ckpt")
    system, _seconds = build_system("M1", dataset, path=path)
    try:
        lsn = system.durability.wal.last_lsn
        out["durability.checkpoint_capture_ms"] = _ms(lambda i: capture_state(system, lsn), repeats)
        state = capture_state(system, lsn)
        store = CheckpointStore(scratch.fresh("store"))
        write_ms = _ms(lambda i: store.write(state), repeats)
        info = store.latest_info()
        size = os.path.getsize(os.path.join(store.directory, info["file"]))
        out["durability.checkpoint_write_ms"] = write_ms
        out["durability.checkpoint_bytes"] = size
        out["durability.checkpoint_mb_per_s"] = size / 1e6 / (write_ms / 1e3)
        out["durability.recovery_load_ms"] = _ms(lambda i: store.load(), repeats)

        # a WAL tail of single-row commits on top of a checkpoint...
        floor = system.checkpoint()["lsn"]
        s_ids = dataset.s_ids
        for i in range(COMMITS):
            system.update("S", s_ids[i % len(s_ids)], {"s_x": i})
        system.durability.sync()
        scan = scan_segments(path)

        # ...replayed onto identically loaded tables (same load, same row ids)
        def replay_once(_i: int) -> float:
            fresh, _ = build_system("M1", dataset)
            t0 = perf_counter_ns()
            applied = replay(fresh.db, scan, {}, lsn_floor=floor)
            elapsed = perf_counter_ns() - t0
            if applied != COMMITS:
                raise RuntimeError(f"replay applied {applied} records, expected {COMMITS}")
            return elapsed

        out["durability.recovery_replay_ms"] = median([replay_once(i) for i in range(3)]) / 1e6
    finally:
        system.close(checkpoint=False)
    return out


def lifecycle_micro(scale: int, seed: int, scratch: Scratch) -> Dict[str, float]:
    """One small lifecycle cycle: the whole-call durations, the exact
    filesystem counts, the migration's report, the durability verdict."""

    cycle = run_cycle(make_dataset(scale, seed), scratch.fresh("cycle"))
    samples = cycle.samples
    migrate_s = samples["migrate"][0] / 1e9
    probes = samples["probe_read"] + samples["probe_insert"]
    out = {
        "durability.checkpoint_ms": median(samples["checkpoint"]) / 1e6,
        "durability.recovery_ms": samples["recover"][0] / 1e6,
        "durability.wal_bytes_per_commit": cycle.wal_bytes_per_commit,
        "durability.wal_bytes_per_user_byte": cycle.wal_bytes_per_user_byte,
        "durability.disk_bytes_per_user_byte": cycle.disk_bytes_per_user_byte,
        "reliability.acked_commits_lost": cycle.acked_commits_lost,
        "evolution.migrate_ms": migrate_s * 1e3,
        "evolution.migrate_instances_per_s": cycle.migration["instances"] / migrate_s,
        "evolution.backfill_batches": cycle.migration["backfill_batches"],
        "evolution.changelog_applied": cycle.migration["changelog_applied"],
        "evolution.foreground_stall_ms_max": max(probes) / 1e6,
        "evolution.foreground_ops_per_s": len(probes) / cycle.prober_seconds,
    }
    out.update({f"reliability.{name}": value for name, value in cycle.fs_counters.items()})
    if cycle.failed:
        raise RuntimeError(f"layer-pass lifecycle failed: {cycle.errors}")
    return out


def run_layer_pass(seed: int, scratch: Scratch, smoke: bool = False) -> Dict[str, float]:
    """Every layer metric that does not come from the workload's own box."""

    shrink = 20 if smoke else 1
    scale = max(LAYER_SCALE // shrink, 40)
    count = max(200 // shrink, 20)
    system, _seconds = build_system("M1", make_dataset(scale, seed))
    out: Dict[str, float] = {}
    out.update(query_path(system, count))
    out.update(api_path(system, count))
    out.update(phase_vs_span(system, count))
    out.update(kernels(KERNEL_ROWS // shrink))
    out.update(mvcc_and_commit(MVCC_ROWS // shrink, INSERT_ROWS // shrink, max(count // 10, 10)))
    out.update(mapping_crud(scale, seed, max(count // 5, 10)))
    out.update(wal_micro(scratch, count))
    out.update(checkpoint_and_replay(scale, seed, scratch))
    out.update(lifecycle_micro(scale, seed, scratch))
    return out

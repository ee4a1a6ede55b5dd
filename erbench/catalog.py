"""The benchmark's declared surface: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is the committed copy of what is
declared here (``erbench/tests`` asserts the two agree), and the README's
metric catalogue is written from the same tables.  Later issues refer to
workloads and metrics by these names.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: Seed used when none is given; ``erbench/expected/seed-11.json`` holds the
#: output fingerprints for it.
DEFAULT_SEED = 11
#: Length of one measured box (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 10


class WorkloadDecl(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end: regression bound (share of the parent's median).
    #: per-layer: ``None`` — layer metrics explain, they do not gate.
    bound: float | None = None


WORKLOADS: Tuple[WorkloadDecl, ...] = (
    WorkloadDecl(
        "analytic_scan",
        "E1-E8 + 5 aggregate shapes on six in-memory mappings, plans cached, results "
        "consumed: scan/join/aggregate kernels and materialization; compile, WAL, MVCC idle",
    ),
    WorkloadDecl(
        "oltp_point",
        "durable M1, fsync per commit, live isolation, 85/15 point read/write mix, one text "
        "pool inside and one beyond the plan cache: session, compile, CRUD, WAL; kernels idle",
    ),
    WorkloadDecl(
        "rest_mix",
        "ApiService over in-memory M2, 90/10 request mix, one thread: the outermost surface; "
        "reads under snapshot views so MVCC is active and each write forces a new snapshot",
    ),
    WorkloadDecl(
        "mixed_snapshot",
        "one snapshot-session reader thread beside one autocommit writer thread on in-memory "
        "M1: snapshot publication, per-version columnar rebuilds, GIL hand-off; no compile, no disk",
    ),
    WorkloadDecl(
        "lifecycle_durable",
        "load, checkpoints, acked commits, online migrate M1->M6 under a prober, crash to the "
        "fsynced bytes, recover, verify: bulk write path, JSON WAL/checkpoint codec, recovery, evolution",
    ),
)

#: Every workload reports every end-to-end metric (the driver's contract), so
#: each name is defined for all five; ``erbench/README.md`` says what an "op",
#: a "read" and a "kind" are in each workload.
#: The 95th percentiles are layer metrics (``ops.*_p95``), not gates: over
#: batches of runs minutes apart on this sandbox their medians moved by up
#: to 40 % with no change to the code (fsync tails, interpreter-lock quanta).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_ms_p50", "ms", "lower", 0.25),
    Metric("op_geomean_ms", "ms", "lower", 0.25),
    Metric("read_ms_p50", "ms", "lower", 0.25),
    Metric("load_instances_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

MAPPING_LABELS = ("M1", "M2", "M3", "M4", "M5", "M6")

#: Layers of the traced box's latency budget (module names of ``src/repro``
#: plus the benchmark's own loop).
BUDGET_LAYERS = (
    "erql", "session", "relational", "mapping", "durability", "reliability",
    "evolution", "api", "harness",
)  # fmt: skip


def _layer(names: str, unit: str, better: str) -> List[Metric]:
    return [Metric(name, unit, better) for name in names.split()]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("erql.parse_us erql.analyze_us erql.plan_us erql.unparse_us", "us", "lower")
    + _layer(
        "session.compile_miss_us session.compile_hit_us session.prepared_overhead_us",
        "us",
        "lower",
    )
    + _layer("session.plan_cache_hit_ratio", "ratio", "higher")
    + _layer("session.plan_cache_evictions", "count", "lower")
    + _layer("relational.choose_executor_us relational.execute_row_us", "us", "lower")
    + _layer("relational.execute_batch_ms", "ms", "lower")
    + _layer("relational.batch_share relational.materialize_share", "ratio", "lower")
    + _layer("relational.materialize_us_per_row", "us", "lower")
    + _layer(
        "relational.kernel_filter_ms relational.kernel_group_agg_ms "
        "relational.kernel_join_ms relational.kernel_distinct_ms "
        "relational.typed_column_build_ms relational.snapshot_build_ms",
        "ms",
        "lower",
    )
    + _layer("relational.mvcc_pin_us", "us", "lower")
    + _layer("relational.mvcc_pin_after_commit_ms", "ms", "lower")
    + _layer("relational.commit_us_mvcc_off", "us", "lower")
    + _layer("relational.commit_ms_mvcc_on", "ms", "lower")
    + _layer("relational.insert_many_rows_per_s", "1/s", "higher")
    + _layer("relational.index_probe_us", "us", "lower")
    + _layer("mapping.set_mapping_ms", "ms", "lower")
    + [Metric(f"mapping.load_instances_per_s.{m}", "1/s", "higher") for m in MAPPING_LABELS]
    + _layer("mapping.insert_us.S mapping.get_us.S mapping.link_us", "us", "lower")
    + _layer(
        "mapping.get_ms.R.M1 mapping.get_ms.R.M2 mapping.delete_ms.R.M1 mapping.delete_ms.R.M2",
        "ms",
        "lower",
    )
    + _layer(
        "durability.wal_encode_us durability.wal_append_us durability.wal_sync_us",
        "us",
        "lower",
    )
    + _layer("durability.wal_bytes_per_commit", "bytes", "lower")
    + _layer(
        "durability.wal_bytes_per_user_byte durability.disk_bytes_per_user_byte",
        "ratio",
        "lower",
    )
    + _layer(
        "durability.checkpoint_capture_ms durability.checkpoint_write_ms "
        "durability.checkpoint_ms durability.recovery_load_ms "
        "durability.recovery_replay_ms durability.recovery_ms",
        "ms",
        "lower",
    )
    + _layer("durability.checkpoint_bytes", "bytes", "lower")
    + _layer("durability.checkpoint_mb_per_s", "MB/s", "higher")
    + _layer(
        "reliability.fs_write_calls reliability.fs_fsync_calls reliability.fs_replace_calls",
        "count",
        "lower",
    )
    + _layer("reliability.fs_write_bytes", "bytes", "lower")
    + _layer("reliability.fs_fsync_s", "s", "lower")
    + _layer("reliability.acked_commits_lost", "count", "lower")
    + _layer("evolution.migrate_ms", "ms", "lower")
    + _layer("evolution.migrate_instances_per_s evolution.foreground_ops_per_s", "1/s", "higher")
    + _layer("evolution.backfill_batches evolution.changelog_applied", "count", "lower")
    + _layer("evolution.foreground_stall_ms_max", "ms", "lower")
    + _layer("api.request_overhead_us api.json_encode_us", "us", "lower")
    + _layer("api.requests", "count", "higher")
    + _layer("api.shed", "count", "lower")
    + _layer("observability.phase_vs_span_ratio", "ratio", "higher")
    + _layer("harness.trace_overhead_fraction", "ratio", "lower")
    + _layer("harness.budget_closure", "ratio", "higher")
    + _layer(
        "ops.op_ms_p95 ops.read_ms_p50 ops.read_ms_p95 ops.write_ms_p50 ops.write_ms_p95",
        "ms",
        "lower",
    )
    + [Metric(f"share.{layer}", "ratio", "lower") for layer in BUDGET_LAYERS]
)


def benchmark_json() -> Dict[str, object]:
    """The document committed as ``BENCHMARK.json``."""

    return {
        "command": ["python3", "-m", "erbench", "run"],
        "paths": ["erbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

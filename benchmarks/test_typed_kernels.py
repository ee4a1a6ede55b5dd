"""Typed-kernel gate: NumPy columnar kernels vs the pure-Python object path.

PR 6's acceptance gate: scan/aggregate paths must run ≥5x (target 10x)
faster on typed columns than the list-based batch executor they replaced.
Both sides run the *same* plans through the *same* executor — the only
difference is whether ``Table.snapshot`` produced
:class:`~repro.relational.typed.TypedColumn` arrays or plain lists
(``typed_columns_disabled`` flips that), so the measured ratio isolates the
kernels themselves from parsing/planning overhead.

The measured results are persisted as ``BENCH_6.json`` (set
``ERBIUM_WRITE_BENCH6=1``) so the repo carries a perf trajectory, and
``test_no_regression_vs_committed_baseline`` re-measures against the
committed file — CI fails when a speedup drops more than
``ERBIUM_TYPED_REGRESSION_TOL`` (default 20%) below the baseline.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.relational import Database
from repro.relational.expressions import BinaryOp, col, lit
from repro.relational.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    SeqScan,
)
from repro.relational.typed import typed_columns_disabled
from repro.relational.types import FLOAT, INT, TEXT, Column
from repro.relational.vectorized import execute_batch

BENCH_SCALE = int(os.environ.get("ERBIUM_BENCH_SCALE", "400"))
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH6_PATH = REPO_ROOT / "BENCH_6.json"

#: The ≥5x acceptance gate (issue target: 10x); overridable for constrained
#: CI runners like the other throughput gates in this suite.
TYPED_SPEEDUP_MIN = float(os.environ.get("ERBIUM_TYPED_SPEEDUP_MIN", "5"))
REGRESSION_TOL = float(os.environ.get("ERBIUM_TYPED_REGRESSION_TOL", "0.20"))
REPEATS = max(3, int(os.environ.get("ERBIUM_BENCH_REPEATS", "5")))


def build_database(rows: int) -> Database:
    db = Database("typed-kernels")
    db.create_table(
        "t",
        [
            Column("id", INT),
            Column("v", INT, nullable=True),
            Column("x", FLOAT),
            Column("g", TEXT),
        ],
        primary_key=["id"],
    )
    db.table("t").insert_batch(
        [
            {
                "id": i,
                "v": None if i % 97 == 0 else i % 1000,
                "x": (i % 713) * 0.5,
                "g": f"g{i % 23}",
            }
            for i in range(rows)
        ]
    )
    return db


def gate_plans():
    """The scan/aggregate shapes the gate measures (one per kernel family)."""

    return {
        "filter_scan": Filter(SeqScan("t"), BinaryOp("<", col("v"), lit(200))),
        "group_aggregate": HashAggregate(
            SeqScan("t"),
            group_by=[("g", col("g"))],
            aggregates=[
                AggregateSpec("sum", col("x"), "s"),
                AggregateSpec("count_star", None, "n"),
                AggregateSpec("min", col("v"), "lo"),
            ],
        ),
        "global_aggregate": HashAggregate(
            SeqScan("t"),
            group_by=[],
            aggregates=[
                AggregateSpec("sum", col("v"), "s"),
                AggregateSpec("avg", col("x"), "a"),
            ],
        ),
        "distinct": Distinct(SeqScan("t"), columns=["g", "v"]),
    }


def _best_of(plan, db, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute_batch(plan, db)
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_speedups(rows: int):
    """Typed-vs-object best-of timings for every gate plan on fresh data."""

    db = build_database(rows)
    table = db.table("t")
    out = {}
    for name, plan in gate_plans().items():
        typed_s, typed_result = _best_of(plan, db)
        with typed_columns_disabled():
            table._snapshot = None  # force an object-path snapshot rebuild
            object_s, object_result = _best_of(plan, db)
        table._snapshot = None
        assert typed_result.length == object_result.length, name
        out[name] = {
            "typed_ms": round(typed_s * 1e3, 4),
            "object_ms": round(object_s * 1e3, 4),
            "speedup": round(object_s / typed_s, 2),
        }
    return out


@pytest.fixture(scope="module")
def gate_rows():
    # 250 rows per scale unit: the default scale (400) measures at 100k rows,
    # big enough that kernel time dominates fixed per-plan overhead.
    return BENCH_SCALE * 250


@pytest.fixture(scope="module")
def speedups(gate_rows):
    return measure_speedups(gate_rows)


class TestTypedKernelGate:
    def test_scan_aggregate_speedup_gate(self, speedups, gate_rows):
        """Every gated shape ≥5x over the list-based executor (target 10x)."""

        failing = {
            name: entry["speedup"]
            for name, entry in speedups.items()
            if entry["speedup"] < TYPED_SPEEDUP_MIN
        }
        assert not failing, (
            f"typed kernels under the {TYPED_SPEEDUP_MIN}x gate at "
            f"{gate_rows} rows: {failing} (all: {speedups})"
        )

    def test_write_bench6_snapshot(self, speedups, gate_rows, suite):
        """Persist the perf trajectory (opt-in, so CI never dirties the tree)."""

        if os.environ.get("ERBIUM_WRITE_BENCH6") != "1":
            pytest.skip("set ERBIUM_WRITE_BENCH6=1 to refresh BENCH_6.json")
        from repro.bench.experiments import get_experiment

        e8b = get_experiment("E8b")
        scans = {}
        for label in ("M1", "M6"):
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                suite.run_query(label, e8b.query)
                best = min(best, time.perf_counter() - start)
            scans[label] = round(best * 1e3, 4)
        payload = {
            "pr": 6,
            "gate_rows": gate_rows,
            "bench_scale": BENCH_SCALE,
            "speedup_gate": TYPED_SPEEDUP_MIN,
            "kernels": speedups,
            "e8b_query_ms": scans,
        }
        BENCH6_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    def test_no_regression_vs_committed_baseline(self):
        """CI smoke: >20% speedup regression vs committed BENCH_6.json fails.

        Re-measures at the *baseline's* row count (not this run's scale) so
        the comparison is like-for-like; speedup ratios — not wall-clock —
        are compared, which holds across machines of different absolute speed.
        """

        if not BENCH6_PATH.exists():
            pytest.skip("no committed BENCH_6.json baseline")
        baseline = json.loads(BENCH6_PATH.read_text())
        fresh = measure_speedups(baseline["gate_rows"])
        regressions = {}
        for name, entry in baseline["kernels"].items():
            floor = entry["speedup"] * (1.0 - REGRESSION_TOL)
            got = fresh.get(name, {}).get("speedup", 0.0)
            if got < floor:
                regressions[name] = {"baseline": entry["speedup"], "fresh": got}
        assert not regressions, (
            f"typed-kernel speedup regressed >{REGRESSION_TOL:.0%} vs "
            f"committed BENCH_6.json: {regressions}"
        )

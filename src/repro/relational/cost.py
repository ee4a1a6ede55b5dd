"""Analytical cost model over physical plans.

The cost model estimates output cardinality and a unit-less cost for each
operator, using :class:`~repro.relational.statistics.TableStats`.  It exists
for two consumers:

* the small plan optimizer inside the engine (index selection, join ordering
  hints), and
* the mapping optimizer (:mod:`repro.mapping.optimizer`), which compares the
  *same logical workload* compiled against different physical mappings without
  executing each candidate on the full data.

Constants are calibrated loosely against the relative per-row costs of the
pure-Python operators (a hash probe is cheap, evaluating an expression has
noticeable overhead, unnesting multiplies rows).  Only ratios matter; the
paper's experiments are reported as ratios as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from . import operators as ops
from .plan import PlanNode
from .statistics import StatisticsManager, TableStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database


# Per-row cost constants (unit-less).
SCAN_COST = 1.0
PREDICATE_COST = 0.4
PROJECT_COST = 0.3
HASH_BUILD_COST = 1.2
HASH_PROBE_COST = 0.8
NESTED_LOOP_COST = 0.9
INDEX_LOOKUP_COST = 2.0
AGGREGATE_COST = 1.5
UNNEST_COST = 0.9
SORT_COST_FACTOR = 1.2
DEFAULT_ARRAY_LENGTH = 4.0
DEFAULT_FILTER_SELECTIVITY = 0.25
DEFAULT_JOIN_SELECTIVITY = 0.1

# Thresholds for the cost-based executor choice (``executor="auto"``): plans
# estimated to stay within BOTH bounds run row-at-a-time, because the batch
# executor's columnar set-up is pure overhead for a handful of rows.  The cost
# bound keeps small results of large scans (e.g. a whole-table aggregate) on
# the batch path.
AUTO_ROW_MAX_ROWS = 32.0
AUTO_ROW_MAX_COST = 256.0


@dataclass
class CostEstimate:
    """Estimated output rows and cumulative cost for a plan subtree."""

    rows: float
    cost: float

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(self.rows + other.rows, self.cost + other.cost)


class CostModel:
    """Estimates cost of physical plans against a database's statistics."""

    def __init__(self, db: "Database") -> None:
        self._db = db

    def _stats(self, table_name: str) -> TableStats:
        # Estimates only need ballpark cardinalities: tolerate bounded row
        # drift so concurrent readers don't re-analyze a table on every query
        # while a writer keeps bumping its data version.
        table = self._db.catalog.table(table_name)
        return self._db.statistics.stats_for(table, tolerate_drift=True)

    def estimate(self, node: PlanNode) -> CostEstimate:
        """Recursively estimate a plan; unknown operators get a generic charge."""

        if isinstance(node, ops.SeqScan):
            stats = self._stats(node.table_name)
            rows = float(stats.row_count)
            cost = rows * SCAN_COST
            if node.predicate is not None:
                cost += rows * PREDICATE_COST
                rows *= DEFAULT_FILTER_SELECTIVITY
            return CostEstimate(rows, cost)

        if isinstance(node, ops.IndexLookup):
            stats = self._stats(node.table_name)
            keys = len(list(node.keys))
            table = self._db.catalog.table(node.table_name)
            # the same rule Table.lookup follows: no exact index, a scan per key
            if table.index_on(tuple(node.columns)) is not None:
                per_key = INDEX_LOOKUP_COST
            else:
                per_key = stats.row_count * SCAN_COST
            rows_per_key = max(
                stats.row_count
                * stats.column(node.columns[0]).selectivity_equals(stats.row_count),
                1.0,
            )
            return CostEstimate(rows_per_key * keys, per_key * keys)

        if isinstance(node, ops.ValuesScan):
            return CostEstimate(float(len(node.rows)), float(len(node.rows)) * PROJECT_COST)

        if isinstance(node, ops.Filter):
            child = self.estimate(node.child)
            return CostEstimate(
                child.rows * DEFAULT_FILTER_SELECTIVITY,
                child.cost + child.rows * PREDICATE_COST,
            )

        if isinstance(node, ops.Project):
            child = self.estimate(node.child)
            return CostEstimate(
                child.rows, child.cost + child.rows * PROJECT_COST * max(len(node.outputs), 1)
            )

        if isinstance(node, ops.Rename):
            child = self.estimate(node.child)
            return CostEstimate(child.rows, child.cost + child.rows * PROJECT_COST)

        if isinstance(node, ops.Unnest):
            child = self.estimate(node.child)
            fanout = DEFAULT_ARRAY_LENGTH
            return CostEstimate(
                child.rows * fanout, child.cost + child.rows * fanout * UNNEST_COST
            )

        if isinstance(node, ops.HashJoin):
            left = self.estimate(node.left)
            right = self.estimate(node.right)
            out_rows = max(left.rows, right.rows) * (
                1.0 if node.join_type == "left" else DEFAULT_JOIN_SELECTIVITY * 10
            )
            cost = (
                left.cost
                + right.cost
                + right.rows * HASH_BUILD_COST
                + left.rows * HASH_PROBE_COST
            )
            return CostEstimate(max(out_rows, 1.0), cost)

        if isinstance(node, ops.IndexNestedLoopJoin):
            outer = self.estimate(node.outer)
            return CostEstimate(
                outer.rows,
                outer.cost + outer.rows * INDEX_LOOKUP_COST,
            )

        if isinstance(node, ops.NestedLoopJoin):
            left = self.estimate(node.left)
            right = self.estimate(node.right)
            pairs = left.rows * right.rows
            return CostEstimate(
                max(pairs * DEFAULT_JOIN_SELECTIVITY, 1.0),
                left.cost + right.cost + pairs * NESTED_LOOP_COST,
            )

        if isinstance(node, ops.HashAggregate):
            child = self.estimate(node.child)
            groups = max(child.rows * 0.1, 1.0) if node.group_by else 1.0
            return CostEstimate(groups, child.cost + child.rows * AGGREGATE_COST)

        if isinstance(node, ops.Union):
            total = CostEstimate(0.0, 0.0)
            for child in node.inputs:
                total = total + self.estimate(child)
            return total

        if isinstance(node, ops.Distinct):
            child = self.estimate(node.child)
            return CostEstimate(child.rows * 0.8, child.cost + child.rows * PREDICATE_COST)

        if isinstance(node, ops.Sort):
            child = self.estimate(node.child)
            import math

            n = max(child.rows, 2.0)
            return CostEstimate(child.rows, child.cost + n * math.log2(n) * SORT_COST_FACTOR)

        if isinstance(node, ops.Limit):
            child = self.estimate(node.child)
            return CostEstimate(min(child.rows, float(node.count)), child.cost)

        if isinstance(node, ops.Materialize):
            child = self.estimate(node.child)
            return CostEstimate(child.rows, child.cost + child.rows * PROJECT_COST)

        # Unknown node type: charge its children plus a small constant.
        total = CostEstimate(1.0, 1.0)
        for child in node.children():
            total = total + self.estimate(child)
        return total

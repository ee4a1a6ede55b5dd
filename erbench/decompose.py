"""The traced box's view of a query: the pipeline's public stages, one span each.

In the untraced box a read is one call (``stmt.execute(...).fetchall()``,
``system.query(text).rows``).  In the traced box the harness walks the same
pipeline itself — ``parse_query`` -> ``analyze_query`` -> ``Planner.plan`` ->
``Database.choose_executor`` -> ``Database.execute`` -> ``QueryResult.rows``
— so each layer's share of the latency is measured from outside, with no
span inside the program.  What the decomposition leaves out (the session's
own glue) is measured separately as ``session.prepared_overhead_us``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.erql import Planner, analyze_query, parse_query, unparse_query

from .spans import SpanRecorder


class QueryTracer:
    """Runs statements stage by stage under spans; counts executor choices."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.executions = 0
        self.batch_executions = 0
        self._planners: Dict[int, Planner] = {}

    def _planner(self, system: Any) -> Planner:
        planner = self._planners.get(id(system))
        if planner is None:
            planner = self._planners[id(system)] = Planner(
                system.schema, system.active_mapping(), system.db
            )
        return planner

    def compile(self, system: Any, text: str) -> Any:
        """Ad-hoc text: every compile stage runs (as on a plan-cache miss)."""

        span = self.recorder.span
        with span("erql", "parse"):
            statement = parse_query(text)
        with span("erql", "unparse"):
            unparse_query(statement)  # the plan cache keys on the normalized text
        with span("erql", "analyze"):
            bound = analyze_query(system.schema, statement)
        with span("erql", "plan"):
            return self._planner(system).plan(bound)

    def cached_plan(self, system: Any, text: str) -> Any:
        """Repeated text: one plan-cache probe."""

        with self.recorder.span("session", "plan_cache"):
            return system.plan(text)

    def execute(
        self,
        system: Any,
        plan: Any,
        params: Optional[Dict[str, Any]] = None,
        session: Any = None,
    ) -> List[Dict[str, Any]]:
        """choose -> execute -> materialize; under ``session``'s read scope
        (the MVCC pin is its own span) when one is given."""

        if session is None:
            return self._run(system.db, plan, params)
        scope = session.read_scope()
        with self.recorder.span("relational", "mvcc_pin"):
            scope.__enter__()
        try:
            return self._run(system.db, plan, params)
        finally:
            scope.__exit__(None, None, None)

    def _run(self, db: Any, plan: Any, params: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
        span = self.recorder.span
        with span("relational", "choose_executor"):
            mode = db.choose_executor(plan)
        self.executions += 1
        if mode == "batch":
            self.batch_executions += 1
        with span("relational", "execute"):
            result = db.execute(plan, executor=mode, params=params)
        with span("relational", "materialize"):
            return result.rows

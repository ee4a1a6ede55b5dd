"""Query stability analysis across schema changes (paper Section 3).

The paper's argument for the E/R abstraction is that schema changes cause
*localized* query changes: making ``city`` multi-valued only affects queries
that read ``city`` (they gain an ``unnest``), and relaxing a many-to-one
relationship to many-to-many often requires *no* change at all to queries that
join through the relationship by name.

:func:`analyze_query_impact` classifies a set of ERQL queries against a schema
change as ``unchanged`` / ``rewritten`` / ``broken``, and — where the rewrite
is mechanical — produces the rewritten text.  It rewrites the parsed query,
never its text: only names that bind (under the old schema) to the changed
attribute of the targeted entity set or a subclass are handed to the change
(:meth:`~repro.evolution.changes.SchemaChange.rewrite_reference`, and
``rewrite_equality`` for a ``name = literal`` filter).  This powers
the A2 ablation benchmark and the schema-evolution example.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional

from ..core import ERSchema
from ..errors import ErbiumError
from ..erql import parse_query, unparse_query
from ..erql.analyzer import Analyzer
from ..erql.ast_nodes import BinOp, Expr, Literal, Name, SelectItem, StructCall
from ..erql.logical import BoundRef
from .changes import SchemaChange


@dataclass
class QueryImpact:
    """Impact of one schema change on one query."""

    query: str
    status: str  # "unchanged" | "rewritten" | "broken"
    rewritten: Optional[str] = None
    reason: str = ""


class _RecordingAnalyzer(Analyzer):
    """The production analyzer, also recording what each name binds to."""

    def __init__(self, schema: ERSchema) -> None:
        super().__init__(schema)
        self.bindings: Dict[int, BoundRef] = {}

    def _resolve_name(self, name: Name, context) -> BoundRef:
        ref = super()._resolve_name(name, context)
        self.bindings[id(name)] = ref
        return ref


class _Rewriter:
    """Rebuilds a query tree, handing each reference to the changed attribute
    to the change."""

    def __init__(self, change: SchemaChange, schema: ERSchema, bindings: Dict[int, BoundRef]) -> None:
        self.change = change
        self.schema = schema
        self.bindings = bindings
        self.attribute = change.changed_attribute()[1]

    def _hit(self, expr: Expr) -> Optional[BoundRef]:
        ref = self.bindings.get(id(expr)) if isinstance(expr, Name) else None
        if ref is None or ref.entity is None or ref.attribute != self.attribute:
            return None
        return ref if self.change.applies_to(self.schema, ref.entity) else None

    def expr(self, expr: Expr, item: bool = False, where: bool = False) -> Expr:
        """``expr`` rewritten; ``item`` is set for a whole select-list item,
        ``where`` on the AND/OR spine of WHERE."""

        ref = self._hit(expr)
        if ref is not None:
            return self.change.rewrite_reference(expr, ref, item)
        if where and isinstance(expr, BinOp) and expr.op in ("and", "or"):
            return BinOp(expr.op, self.expr(expr.left, where=True), self.expr(expr.right, where=True))
        if where and isinstance(expr, BinOp) and expr.op == "=":
            for name, other in ((expr.left, expr.right), (expr.right, expr.left)):
                ref = self._hit(name)
                if ref is not None and isinstance(other, Literal) and other.value is not None:
                    replacement = self.change.rewrite_equality(name, ref, other)
                    if replacement is not None:
                        return replacement
        if isinstance(expr, StructCall):
            struct_fields = []
            for alias, value in expr.fields:
                # a struct field named after a rewritten reference keeps its name
                ref = self._hit(value)
                alias = alias if alias is not None or ref is None else ref.display_name()
                struct_fields.append((alias, self.expr(value)))
            return StructCall(struct_fields)
        return replace(expr, **{f.name: self._map(getattr(expr, f.name)) for f in fields(expr)})

    def _map(self, value: Any) -> Any:
        if isinstance(value, Expr):
            return self.expr(value)
        if isinstance(value, list):
            return [self._map(v) for v in value]
        return value


def _impact(schema: ERSchema, evolved: ERSchema, change: SchemaChange, text: str) -> QueryImpact:
    try:
        statement = parse_query(text)
        recorder = _RecordingAnalyzer(schema)
        before = recorder.analyze(statement)
    except ErbiumError as exc:
        return QueryImpact(query=text, status="broken", reason=f"invalid before change: {exc}")

    rewritten = statement
    if change.changed_attribute() is not None:
        rewriter = _Rewriter(change, schema, recorder.bindings)
        try:
            items = []
            for item, bound in zip(statement.items, before.items):
                expression = rewriter.expr(item.expression, item=True)
                # a rewritten item keeps the original output column name
                kept = item.alias is not None or expression == item.expression
                items.append(SelectItem(expression, item.alias if kept else bound.name))
            rewritten = replace(
                statement,
                items=items,
                where=None if statement.where is None else rewriter.expr(statement.where, where=True),
                group_by=[rewriter.expr(e) for e in statement.group_by],
            )
        except ErbiumError as exc:
            return QueryImpact(query=text, status="broken", reason=str(exc))
    try:
        Analyzer(evolved).analyze(rewritten)
    except ErbiumError as exc:
        return QueryImpact(query=text, status="broken", reason=str(exc))
    if rewritten == statement:
        return QueryImpact(query=text, status="unchanged")
    return QueryImpact(query=text, status="rewritten", rewritten=unparse_query(rewritten))


def analyze_query_impact(
    schema: ERSchema, change: SchemaChange, queries: List[str]
) -> List[QueryImpact]:
    """Classify each query's fate under the schema change.

    The old schema is used to understand the query, the evolved schema to
    check whether the original (or mechanically rewritten) query still works.
    """

    evolved = change.apply_to_schema(schema)
    return [_impact(schema, evolved, change, text) for text in queries]


def impact_summary(impacts: List[QueryImpact]) -> Dict[str, int]:
    """Counts per status, for reports and benchmarks."""

    summary = {"unchanged": 0, "rewritten": 0, "broken": 0}
    for impact in impacts:
        summary[impact.status] = summary.get(impact.status, 0) + 1
    return summary

"""Mapping-aware physical planner for bound ERQL queries.

The planner turns a :class:`~repro.erql.logical.BoundQuery` into a physical
:class:`~repro.relational.plan.PlanNode` tree by composing access paths from
the active mapping's :class:`~repro.mapping.AccessPathBuilder`.  The same
logical query therefore compiles to very different plans under different
mappings — the logical-data-independence property the paper's experiments
measure.

Planning steps:

1. collect the attributes each alias needs (select + where + group keys);
2. detect two pushdown opportunities:
   * key-equality predicates on a single-entity query become index lookups;
   * a query that touches only one multi-valued attribute (always through
     ``unnest``) plus key attributes is answered directly from the attribute's
     own access path (the side table under M1) instead of a full entity scan;
3. build the FROM tree: base entity scan, then one relationship join per JOIN
   clause (co-stored relationships collapse the join into a single wide-table
   scan);
4. apply WHERE, unnest operators, aggregation with inferred grouping, final
   projection, ORDER BY and LIMIT.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core import ERSchema
from ..errors import PlanningError
from ..mapping import AccessPathBuilder, Mapping, qualified
from ..relational import Database
from ..relational.expressions import (
    And,
    BinaryOp,
    ColumnRef,
    Expression,
    FieldAccess,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Parameter,
    StructBuild,
    col,
    conjunction,
    lit,
)
from ..relational.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Project,
    Sort,
    Unnest,
)
from ..relational.plan import PlanNode, QueryResult
from ..relational.vectorized import annotate_required_columns
from .logical import (
    BoundAggregate,
    BoundBinOp,
    BoundExpr,
    BoundFunc,
    BoundInList,
    BoundIsNull,
    BoundLiteral,
    BoundNot,
    BoundParameter,
    BoundQuery,
    BoundRef,
    BoundSelectItem,
    BoundStruct,
    BoundUnnest,
)


class Planner:
    """Compile bound queries into physical plans under one mapping."""

    def __init__(self, schema: ERSchema, mapping: Mapping, db: Database) -> None:
        self.schema = schema
        self.mapping = mapping
        self.db = db
        self.access = AccessPathBuilder(schema, mapping, db)

    # -- public API -------------------------------------------------------------

    def plan(self, query: BoundQuery) -> PlanNode:
        needed = query.attributes_by_alias()
        key_equals = self._extract_key_equals(query)

        plan = self._maybe_multivalued_only_plan(query, needed, key_equals)
        unnest_handled = plan is not None
        if plan is None:
            plan = self._build_from(query, needed, key_equals)
            plan = self._apply_where(plan, query)
            plan = self._apply_unnest(plan, query)
        else:
            plan = self._apply_where(plan, query)

        if query.has_aggregates:
            plan = self._apply_aggregation(plan, query)
            plan = self._project_after_aggregation(plan, query)
        else:
            plan = self._project(plan, query, unnest_handled)

        if query.order_by:
            plan = Sort(plan, [(o.column, o.ascending) for o in query.order_by])
        if query.limit is not None:
            plan = Limit(plan, query.limit)
        # Scans below the final projection only need the columns the plan
        # actually consumes; the batch executor projects them at scan time.
        return annotate_required_columns(plan)

    def explain(self, query: BoundQuery) -> str:
        return self.plan(query).explain()

    # -- pushdowns ------------------------------------------------------------------

    def _extract_key_equals(self, query: BoundQuery) -> Optional[Dict[str, Any]]:
        """Equality constants on the base entity's full key, if the WHERE gives them.

        Values are plain constants for literal predicates, or
        :class:`~repro.relational.expressions.Parameter` placeholders for
        ``key = $name`` — so a parameterized point lookup keeps its index
        access path and resolves the key at execution time from the bindings.
        """

        if query.joins or query.where is None:
            return None
        key_names = set(self.schema.effective_key(query.base_entity))
        found: Dict[str, Any] = {}
        for conjunct in self._conjuncts(query.where):
            if not isinstance(conjunct, BoundBinOp) or conjunct.op != "=":
                continue
            ref, value = None, None
            sides = (conjunct.left, conjunct.right), (conjunct.right, conjunct.left)
            for candidate, other in sides:
                if not isinstance(candidate, BoundRef):
                    continue
                if isinstance(other, BoundLiteral):
                    ref, value = candidate, other.value
                elif isinstance(other, BoundParameter):
                    ref, value = candidate, Parameter(other.name)
                break
            if ref is None or ref.alias != query.base_alias or ref.path:
                continue
            if ref.attribute in key_names:
                found[ref.attribute] = value
        if set(found) == key_names:
            return found
        return None

    def _conjuncts(self, expression: BoundExpr) -> List[BoundExpr]:
        if isinstance(expression, BoundBinOp) and expression.op == "and":
            return self._conjuncts(expression.left) + self._conjuncts(expression.right)
        return [expression]

    def _maybe_multivalued_only_plan(
        self,
        query: BoundQuery,
        needed: Dict[str, Set[str]],
        key_equals: Optional[Dict[str, Any]],
    ) -> Optional[PlanNode]:
        """Answer single-entity queries over one unnested multi-valued attribute
        directly from the attribute's access path (side table or array column)."""

        if query.joins or not query.unnest_items:
            return None
        unnested_attrs = {u.ref.attribute for u in query.unnest_items}
        if len(unnested_attrs) != 1:
            return None
        attribute = next(iter(unnested_attrs))
        key_names = set(self.schema.effective_key(query.base_entity))
        referenced = needed.get(query.base_alias, set())
        if not referenced <= (key_names | {attribute}):
            return None
        # every reference to the attribute must be inside unnest()
        for item in query.items:
            for ref in item.expression.refs():
                if ref.attribute == attribute and not isinstance(item.expression, BoundUnnest):
                    return None
        return self.access.multivalued_rows(
            query.base_entity, query.base_alias, attribute, key_equals=key_equals
        )

    # -- FROM tree -----------------------------------------------------------------------

    def _build_from(
        self,
        query: BoundQuery,
        needed: Dict[str, Set[str]],
        key_equals: Optional[Dict[str, Any]],
    ) -> PlanNode:
        base_attrs = sorted(needed.get(query.base_alias, set()))
        plan = self.access.entity_scan(
            query.base_entity,
            query.base_alias,
            attributes=base_attrs,
            key_equals=key_equals,
        )
        bound_aliases = {query.base_alias: query.base_entity}
        for join in query.joins:
            relationship = self.schema.relationship(join.relationship)
            left_alias = self._partner_alias(bound_aliases, relationship, join)
            left_entity = bound_aliases[left_alias]
            placement = self.mapping.relationship_placement(join.relationship)
            right_attrs = sorted(needed.get(join.alias, set()))
            if placement.kind == "co_stored":
                wide = self.access.relationship_join(
                    join.relationship,
                    left_entity,
                    left_alias,
                    join.entity,
                    join.alias,
                )
                if len(bound_aliases) == 1:
                    plan = wide
                else:
                    left_keys = [
                        qualified(left_alias, k)
                        for k in self.schema.effective_key(left_entity)
                    ]
                    plan = HashJoin(plan, wide, left_keys, left_keys, join_type=join.join_type)
            else:
                right_plan = self.access.entity_scan(
                    join.entity, join.alias, attributes=right_attrs
                )
                plan = self.access.relationship_join(
                    join.relationship,
                    left_entity,
                    left_alias,
                    join.entity,
                    join.alias,
                    left_plan=plan,
                    right_plan=right_plan,
                    join_type=join.join_type,
                )
            bound_aliases[join.alias] = join.entity
        return plan

    def _partner_alias(self, bound_aliases: Dict[str, str], relationship, join) -> str:
        """Which already-bound alias the new join connects to."""

        for alias, entity in bound_aliases.items():
            family = {entity} | {a.name for a in self.schema.ancestors_of(entity)}
            for participant in relationship.participants:
                if participant.entity in family:
                    return alias
        raise PlanningError(
            f"relationship {join.relationship!r} does not connect {join.entity!r} to the "
            "entities already in the FROM clause"
        )

    # -- WHERE / unnest ------------------------------------------------------------------------

    def _apply_where(self, plan: PlanNode, query: BoundQuery) -> PlanNode:
        if query.where is None:
            return plan
        return Filter(plan, self._translate(query.where))

    def _apply_unnest(self, plan: PlanNode, query: BoundQuery) -> PlanNode:
        seen = set()
        for unnest in query.unnest_items:
            column = qualified(unnest.ref.alias, unnest.ref.attribute)
            if column in seen:
                continue
            seen.add(column)
            plan = Unnest(plan, array_column=column, output_column=column, expand_struct=True)
        return plan

    # -- aggregation -----------------------------------------------------------------------------

    def _apply_aggregation(self, plan: PlanNode, query: BoundQuery) -> PlanNode:
        group_by: List[Tuple[str, Expression]] = []
        for key in query.group_keys:
            group_by.append((key.name, self._translate(key.expression)))
        aggregates: List[AggregateSpec] = []
        for item in query.items:
            if not item.is_aggregate():
                continue
            expression = item.expression
            if not isinstance(expression, BoundAggregate):
                raise PlanningError(
                    f"select item {item.name!r} mixes aggregates with other expressions; "
                    "only bare aggregate calls are supported"
                )
            argument = (
                self._translate(expression.argument)
                if expression.argument is not None
                else None
            )
            aggregates.append(
                AggregateSpec(
                    function=expression.function,
                    argument=argument,
                    output=item.name,
                    distinct=expression.distinct,
                )
            )
        return HashAggregate(plan, group_by=group_by, aggregates=aggregates)

    def _project_after_aggregation(self, plan: PlanNode, query: BoundQuery) -> PlanNode:
        outputs = []
        for item in query.items:
            # a select item that is a GROUP BY key reads the key's column,
            # whatever alias the item gives it (``city as c ... group by city``)
            column = item.name
            if not item.is_aggregate():
                column = next(
                    (k.name for k in query.group_keys if k.expression == item.expression),
                    column,
                )
            outputs.append((item.name, col(column)))
        return Project(plan, outputs)

    def _project(self, plan: PlanNode, query: BoundQuery, unnest_handled: bool) -> PlanNode:
        outputs = []
        for item in query.items:
            outputs.append((item.name, self._translate(item.expression)))
        return Project(plan, outputs)

    # -- expression translation -------------------------------------------------------------------------

    def _translate(self, expression: BoundExpr) -> Expression:
        if isinstance(expression, BoundLiteral):
            return Literal(expression.value)
        if isinstance(expression, BoundParameter):
            return Parameter(expression.name)
        if isinstance(expression, BoundRef):
            base: Expression = ColumnRef(qualified(expression.alias, expression.attribute))
            for part in expression.path:
                base = FieldAccess(base, part)
            return base
        if isinstance(expression, BoundUnnest):
            # the Unnest operator (or the multi-valued access path) has already
            # replaced the array column with one element per row
            return ColumnRef(qualified(expression.ref.alias, expression.ref.attribute))
        if isinstance(expression, BoundBinOp):
            if expression.op == "and":
                return And([self._translate(expression.left), self._translate(expression.right)])
            if expression.op == "or":
                return Or([self._translate(expression.left), self._translate(expression.right)])
            return BinaryOp(
                expression.op, self._translate(expression.left), self._translate(expression.right)
            )
        if isinstance(expression, BoundNot):
            return Not(self._translate(expression.operand))
        if isinstance(expression, BoundIsNull):
            return IsNull(self._translate(expression.operand), negate=expression.negate)
        if isinstance(expression, BoundInList):
            return InList(self._translate(expression.operand), expression.values)
        if isinstance(expression, BoundFunc):
            return FunctionCall(expression.name, [self._translate(a) for a in expression.args])
        if isinstance(expression, BoundStruct):
            return StructBuild(
                {name: self._translate(value) for name, value in expression.fields}
            )
        if isinstance(expression, BoundAggregate):
            raise PlanningError("aggregate expressions cannot be translated row-wise")
        raise PlanningError(f"cannot translate expression {expression!r}")

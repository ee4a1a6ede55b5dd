"""Access paths: build physical plans for logical (E/R level) operations.

The :class:`AccessPathBuilder` is the point where logical data independence is
realized: the ERQL planner asks for *entity scans*, *multi-valued attribute
rows* and *relationship joins* in terms of the E/R schema, and the builder
emits different physical plans depending on the active mapping:

* a normalized mapping answers an "all multi-valued attributes" scan with a
  chain of aggregate + hash joins over side tables (the paper's E1/M1 plan);
* an array mapping answers the same request with a single table scan (E1/M2);
* a single-table hierarchy answers a subclass scan with a type filter (M3),
  a disjoint layout with a plain scan of one table (M4), and a delta layout
  with a join chain up the hierarchy (M1);
* a nested mapping answers a weak-entity scan with an unnest over the owner
  (M5), and a co-stored mapping answers a relationship join with a single
  wide-table scan (M6).

Column naming convention for every plan produced here: logical attribute
``a`` of the alias ``x`` appears as column ``"x.a"``.  Physical columns that
have no logical counterpart (foreign-key folds, discriminators) stay visible
under their physical name qualified by the alias, which lets the join builder
reuse them without extra scans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import ERSchema, WeakEntitySet
from ..errors import MappingError, PlanningError
from ..relational import Database
from ..relational.expressions import (
    And,
    ColumnRef,
    Expression,
    IsNull,
    Literal,
    Not,
    StructBuild,
    col,
    conjunction,
    eq,
    lit,
)
from ..relational.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexLookup,
    IndexNestedLoopJoin,
    Project,
    Rename,
    SeqScan,
    Unnest,
)
from ..relational.plan import PlanNode
from .physical import AttributePlacement, EntityPlacement, Mapping


def qualified(alias: str, name: str) -> str:
    """The output column name for logical attribute ``name`` of alias ``alias``."""

    return f"{alias}.{name}"


def _value_expr(value: Any) -> Expression:
    """A pushed-down comparison value as an expression.

    ``key_equals`` values are plain constants for literal predicates and
    already-built expressions (bind-time ``Parameter`` placeholders) for
    ``key = $name`` — pass the latter through instead of wrapping them in a
    ``Literal``.
    """

    return value if isinstance(value, Expression) else lit(value)


class AccessPathBuilder:
    """Builds physical plans for E/R-level access under one mapping."""

    def __init__(self, schema: ERSchema, mapping: Mapping, db: Database) -> None:
        self.schema = schema
        self.mapping = mapping
        self.db = db

    # ------------------------------------------------------------------ utils

    def _attribute_placement(self, entity: str, attribute: str) -> AttributePlacement:
        """Placement for an attribute, resolving inheritance.

        Looks for a placement on the entity itself first (disjoint layouts
        place every effective attribute on the member), then on the declaring
        ancestor.
        """

        if self.mapping.has_attribute_placement(entity, attribute):
            return self.mapping.attribute_placement(entity, attribute)
        entity_obj = self.schema.entity(entity)
        if isinstance(entity_obj, WeakEntitySet):
            owner_key = self.schema.effective_key(entity_obj.owner)
            if attribute in owner_key:
                # The owner-key part of a weak entity's key is stored alongside
                # the weak entity itself (own table, nested array, or wide table).
                placement = self.mapping.entity_placement(entity)
                key_names = self.schema.effective_key(entity)
                index = key_names.index(attribute)
                return AttributePlacement(
                    owner=entity,
                    attribute=attribute,
                    kind="inline",
                    table=placement.table,
                    column=placement.key_columns[index],
                )
        declaring = self.schema.owning_entity_of_attribute(entity, attribute)
        return self.mapping.attribute_placement(declaring.name, attribute)

    def _effective_attribute_names(self, entity: str) -> List[str]:
        return [
            a.name
            for a in self.schema.effective_attributes(entity)
            if not a.is_derived()
        ]

    def _key_names(self, entity: str) -> List[str]:
        return self.schema.effective_key(entity)

    # ------------------------------------------------------------ entity scans

    def entity_scan(
        self,
        entity: str,
        alias: str,
        attributes: Optional[Sequence[str]] = None,
        key_equals: Optional[Dict[str, Any]] = None,
    ) -> PlanNode:
        """A plan producing one row per instance of ``entity``.

        ``attributes`` restricts which logical attributes must be present in
        the output (the key is always included).  ``key_equals`` optionally
        pushes an equality predicate on key attributes down into the base
        access (turning a scan into an index lookup when the physical key
        matches).
        """

        placement = self.mapping.entity_placement(entity)
        requested = list(attributes) if attributes is not None else self._effective_attribute_names(entity)
        for key in self._key_names(entity):
            if key not in requested:
                requested.append(key)

        if placement.kind in ("own_table", "delta_root", "single_table", "disjoint_table"):
            plan = self._scan_tabular(entity, alias, placement, requested, key_equals)
        elif placement.kind == "delta_sub":
            plan = self._scan_delta_subclass(entity, alias, placement, requested, key_equals)
        elif placement.kind == "nested_in_owner":
            plan = self._scan_nested(entity, alias, placement, requested)
        elif placement.kind == "co_stored":
            plan = self._scan_co_stored(entity, alias, placement, requested, key_equals)
        else:
            raise PlanningError(f"unknown entity placement kind {placement.kind!r}")

        plan = self._attach_multivalued(entity, alias, plan, requested, key_equals)
        return plan

    # -- plain / hierarchy scans ------------------------------------------------

    def _base_scan(
        self,
        table_name: str,
        alias: str,
        key_columns: Sequence[str],
        key_equals: Optional[Dict[str, Any]],
        key_names: Sequence[str],
    ) -> PlanNode:
        """Scan or index-lookup a physical table, qualified by ``alias``.

        A full key is an ``IndexLookup`` when an index on exactly
        ``key_columns`` answers it (``Table.index_on``, the rule the
        executor applies), else a scan filtered on the key.
        """

        scan = SeqScan(table_name, alias=alias)
        if not key_equals or set(key_equals) != set(key_names):
            return scan
        columns = tuple(key_columns)
        key = tuple(key_equals[name] for name in key_names)
        if self.db.catalog.table(table_name).index_on(columns) is not None:
            return IndexLookup(table_name, columns, [key], alias=alias)
        return Filter(
            scan,
            conjunction(
                [eq(col(f"{alias}.{c}"), _value_expr(v)) for c, v in zip(columns, key)]
            ),
        )

    def _rename_for(
        self, entity: str, alias: str, table_alias: str, attributes: Sequence[str]
    ) -> Dict[str, str]:
        """Renames turning ``table_alias.physical`` into ``alias.logical``."""

        renames: Dict[str, str] = {}
        for attribute in attributes:
            placement = self._attribute_placement(entity, attribute)
            if placement.kind in ("inline", "inline_array") and placement.column:
                renames[f"{table_alias}.{placement.column}"] = qualified(alias, attribute)
        return renames

    def _scan_tabular(
        self,
        entity: str,
        alias: str,
        placement: EntityPlacement,
        requested: Sequence[str],
        key_equals: Optional[Dict[str, Any]],
    ) -> PlanNode:
        if placement.table is None:
            raise PlanningError(f"entity {entity!r} has no base table")
        key_names = self._key_names(entity)

        if placement.kind == "disjoint_table":
            members = [entity] + [d.name for d in self.schema.descendants_of(entity)]
            scans: List[PlanNode] = []
            for member in members:
                member_placement = self.mapping.entity_placement(member)
                scan = self._base_scan(
                    member_placement.table, alias, member_placement.key_columns, key_equals, key_names
                )
                scans.append(scan)
            plan: PlanNode = scans[0] if len(scans) == 1 else _union(scans)
        else:
            plan = self._base_scan(
                placement.table, alias, placement.key_columns, key_equals, key_names
            )
            if placement.kind == "single_table":
                members = {entity} | {d.name for d in self.schema.descendants_of(entity)}
                all_members = {
                    m.name
                    for m in self.schema.hierarchy_members(self.schema.hierarchy_root(entity).name)
                }
                if members != all_members and placement.discriminator_column:
                    discriminator = f"{alias}.{placement.discriminator_column}"
                    from ..relational.expressions import InList

                    plan = Filter(plan, InList(col(discriminator), sorted(members)))

        inline_attrs = [
            a
            for a in requested
            if self._attribute_placement(entity, a).kind in ("inline", "inline_array")
        ]
        renames = self._rename_for(entity, alias, alias, inline_attrs)
        renames = {k: v for k, v in renames.items() if k != v}
        if renames:
            plan = Rename(plan, renames)
        return plan

    def _scan_delta_subclass(
        self,
        entity: str,
        alias: str,
        placement: EntityPlacement,
        requested: Sequence[str],
        key_equals: Optional[Dict[str, Any]],
    ) -> PlanNode:
        """Join chain from the subclass's delta table up to whichever ancestor
        tables hold the requested inherited attributes."""

        key_names = self._key_names(entity)
        plan = self._base_scan(placement.table, alias, placement.key_columns, key_equals, key_names)
        own_renames: Dict[str, str] = {}
        tables_needed: Dict[str, List[str]] = {}
        for attribute in requested:
            if attribute in key_names:
                # The hierarchy key is the delta table's own key (FK = PK in a
                # delta layout), so inherited key attributes never need a join
                # up to the declaring ancestor's table.
                column = placement.key_columns[key_names.index(attribute)]
                if f"{alias}.{column}" != qualified(alias, attribute):
                    own_renames[f"{alias}.{column}"] = qualified(alias, attribute)
                continue
            attr_placement = self._attribute_placement(entity, attribute)
            if attr_placement.kind not in ("inline", "inline_array"):
                continue
            if attr_placement.table == placement.table:
                if attr_placement.column != qualified(alias, attribute):
                    own_renames[f"{alias}.{attr_placement.column}"] = qualified(alias, attribute)
            else:
                tables_needed.setdefault(attr_placement.table, []).append(attribute)
        own_renames = {k: v for k, v in own_renames.items() if k != v}
        if own_renames:
            plan = Rename(plan, own_renames)

        for other_table, attrs in tables_needed.items():
            other_alias = f"{alias}__{other_table}"
            # keyed lookups reduce the ancestor side to the matching rows
            # instead of rebuilding a hash table over the whole table
            other_scan = self._base_scan(
                other_table, other_alias, list(key_names), key_equals, key_names
            )
            left_keys = [qualified(alias, k) for k in key_names]
            right_keys = [f"{other_alias}.{k}" for k in key_names]
            plan = HashJoin(plan, other_scan, left_keys, right_keys, join_type="inner")
            renames = {}
            for attribute in attrs:
                attr_placement = self._attribute_placement(entity, attribute)
                renames[f"{other_alias}.{attr_placement.column}"] = qualified(alias, attribute)
            plan = Rename(plan, renames)
        return plan

    def _scan_nested(
        self,
        entity: str,
        alias: str,
        placement: EntityPlacement,
        requested: Sequence[str],
    ) -> PlanNode:
        """Weak entity folded into its owner: scan owner, unnest the array."""

        owner = placement.owner_entity
        if owner is None or placement.array_column is None or placement.table is None:
            raise PlanningError(f"invalid nested placement for entity {entity!r}")
        owner_alias = f"{alias}__owner"
        plan: PlanNode = SeqScan(placement.table, alias=owner_alias)
        plan = Unnest(
            plan,
            array_column=f"{owner_alias}.{placement.array_column}",
            output_column=alias,
            expand_struct=True,
        )
        renames: Dict[str, str] = {}
        owner_key = self.schema.effective_key(owner)
        owner_placement = self.mapping.entity_placement(owner)
        for key_name, key_column in zip(owner_key, owner_placement.key_columns):
            renames[f"{owner_alias}.{key_column}"] = qualified(alias, key_name)
        # struct fields already expand to "<alias>.<field>", matching our naming
        plan = Rename(plan, renames)
        return plan

    def _scan_co_stored(
        self,
        entity: str,
        alias: str,
        placement: EntityPlacement,
        requested: Sequence[str],
        key_equals: Optional[Dict[str, Any]],
    ) -> PlanNode:
        """Entity stored only inside a pre-joined wide table: scan + dedup."""

        if placement.table is None:
            raise PlanningError(f"entity {entity!r} has no co-stored table")
        key_names = self._key_names(entity)
        plan = self._base_scan(
            placement.table, alias, placement.key_columns, key_equals, key_names
        )
        presence = [
            Not(IsNull(col(f"{alias}.{column}"))) for column in placement.key_columns
        ]
        plan = Filter(plan, And(presence))
        plan = Distinct(plan, columns=[f"{alias}.{c}" for c in placement.key_columns])
        renames: Dict[str, str] = {}
        for attribute in requested:
            attr_placement = self._attribute_placement(entity, attribute)
            if attr_placement.kind == "inline" and attr_placement.table == placement.table:
                renames[f"{alias}.{attr_placement.column}"] = qualified(alias, attribute)
        # inherited attributes of a co-stored subclass live on ancestor tables
        inherited: Dict[str, List[str]] = {}
        for attribute in requested:
            attr_placement = self._attribute_placement(entity, attribute)
            if attr_placement.kind == "inline" and attr_placement.table != placement.table:
                inherited.setdefault(attr_placement.table, []).append(attribute)
        renames = {k: v for k, v in renames.items() if k != v}
        if renames:
            plan = Rename(plan, renames)
        for other_table, attrs in inherited.items():
            other_alias = f"{alias}__{other_table}"
            other_scan = SeqScan(other_table, alias=other_alias)
            left_keys = [qualified(alias, k) for k in key_names]
            right_keys = [f"{other_alias}.{k}" for k in key_names]
            plan = HashJoin(plan, other_scan, left_keys, right_keys)
            extra = {}
            for attribute in attrs:
                attr_placement = self._attribute_placement(entity, attribute)
                extra[f"{other_alias}.{attr_placement.column}"] = qualified(alias, attribute)
            plan = Rename(plan, extra)
        return plan

    # -------------------------------------------------- multi-valued attributes

    def _attach_multivalued(
        self,
        entity: str,
        alias: str,
        plan: PlanNode,
        requested: Sequence[str],
        key_equals: Optional[Dict[str, Any]] = None,
    ) -> PlanNode:
        """Join side tables (aggregated to arrays) for requested multi-valued attrs.

        Array-column placements are already part of the base scan; only
        side-table placements need the aggregate + left join (this is the
        multi-way join the paper measures in experiment E1 under M1).
        """

        key_names = self._key_names(entity)
        for attribute in requested:
            try:
                placement = self._attribute_placement(entity, attribute)
            except MappingError:
                continue
            if placement.kind != "side_table":
                continue
            side_alias = f"{alias}__{attribute}"
            side_scan: PlanNode = SeqScan(placement.table, alias=side_alias)
            if key_equals and set(key_equals) == set(key_names):
                owner_columns = tuple(placement.owner_key_columns)
                side_table = self.db.catalog.table(placement.table)
                if (
                    all(k in key_equals for k in owner_columns)
                    and side_table.index_on(owner_columns) is not None
                ):
                    side_scan = IndexLookup(
                        placement.table,
                        owner_columns,
                        [tuple(key_equals[k] for k in owner_columns)],
                        alias=side_alias,
                    )
                else:
                    condition = conjunction(
                        [
                            eq(col(f"{side_alias}.{k}"), _value_expr(key_equals[k]))
                            for k in owner_columns
                            if k in key_equals
                        ]
                    )
                    if condition is not None:
                        side_scan = Filter(side_scan, condition)
            if len(placement.value_columns) == 1:
                argument: Expression = col(f"{side_alias}.{placement.value_columns[0]}")
            else:
                argument = StructBuild(
                    {c: col(f"{side_alias}.{c}") for c in placement.value_columns}
                )
            aggregated = HashAggregate(
                side_scan,
                group_by=[
                    (qualified(alias, k), col(f"{side_alias}.{k}"))
                    for k in placement.owner_key_columns
                ],
                aggregates=[AggregateSpec("array_agg", argument, qualified(alias, attribute))],
            )
            plan = HashJoin(
                plan,
                aggregated,
                left_keys=[qualified(alias, k) for k in key_names],
                right_keys=[qualified(alias, k) for k in key_names],
                join_type="left",
            )
        return plan

    def multivalued_rows(
        self,
        entity: str,
        alias: str,
        attribute: str,
        key_equals: Optional[Dict[str, Any]] = None,
    ) -> PlanNode:
        """One row per element of a multi-valued attribute (unnested access).

        Output columns: the entity key as ``alias.<key>`` and the element value
        as ``alias.<attribute>`` (struct elements keep the whole struct there
        and additionally expose ``alias.<attribute>.<component>``).
        """

        placement = self._attribute_placement(entity, attribute)
        key_names = self._key_names(entity)
        if placement.kind == "side_table":
            # Narrow scan-time projection: key columns plus the element value(s).
            projection: Dict[str, str] = {
                column: qualified(alias, key)
                for column, key in zip(placement.owner_key_columns, key_names)
            }
            if len(placement.value_columns) == 1:
                projection[placement.value_columns[0]] = qualified(alias, attribute)
            else:
                for column in placement.value_columns:
                    projection[column] = f"{qualified(alias, attribute)}.{column}"
            plan: PlanNode = SeqScan(placement.table, projection=projection)
            if key_equals and set(key_equals) == set(key_names):
                condition = conjunction(
                    [
                        eq(col(qualified(alias, k)), _value_expr(key_equals[k]))
                        for k in key_names
                    ]
                )
                if condition is not None:
                    plan = Filter(plan, condition)
            return plan
        if placement.kind == "inline_array":
            base = self.entity_scan(entity, alias, attributes=[attribute], key_equals=key_equals)
            return Unnest(
                base,
                array_column=qualified(alias, attribute),
                output_column=qualified(alias, attribute),
                expand_struct=True,
            )
        raise PlanningError(
            f"attribute {entity}.{attribute} is not multi-valued under mapping "
            f"{self.mapping.name!r}"
        )

    def multivalued_intersection(
        self, entity: str, alias: str, first: str, second: str
    ) -> PlanNode:
        """Per-entity intersection of two multi-valued attributes (experiment E4).

        Side-table placements intersect by joining the two side tables on
        (owner key, value) and re-aggregating; array placements intersect the
        two array columns row-by-row (paying unnesting/interpretation cost).
        The output columns are the entity key plus ``alias.common``.
        """

        first_placement = self._attribute_placement(entity, first)
        second_placement = self._attribute_placement(entity, second)
        key_names = self._key_names(entity)
        output = qualified(alias, "common")

        if first_placement.kind == "side_table" and second_placement.kind == "side_table":
            if len(first_placement.value_columns) != 1 or len(second_placement.value_columns) != 1:
                raise PlanningError("intersection of composite multi-valued attributes is not supported")
            left = self.multivalued_rows(entity, alias, first)
            # The second side table's primary key is (owner key, value), so the
            # join probes that index directly — no hash-table build needed.
            probe_columns = tuple(
                second_placement.owner_key_columns + [second_placement.value_columns[0]]
            )
            joined: PlanNode = IndexNestedLoopJoin(
                outer=left,
                inner_table=second_placement.table,
                outer_keys=[qualified(alias, k) for k in key_names] + [qualified(alias, first)],
                inner_columns=probe_columns,
                inner_alias="__probe",
            )
            return HashAggregate(
                joined,
                group_by=[(qualified(alias, k), col(qualified(alias, k))) for k in key_names],
                aggregates=[
                    AggregateSpec("array_agg", col(qualified(alias, first)), output)
                ],
            )

        # Array placements: unnest the first array and keep the elements also
        # present in the second (the plan shape a relational engine uses for
        # per-row array intersection, and where the paper's "unnesting
        # overhead" comes from under M2).
        from ..relational.expressions import FunctionCall

        base = self.entity_scan(entity, alias, attributes=[first, second])
        element_column = qualified(alias, first)
        plan: PlanNode = Unnest(base, array_column=element_column, output_column=element_column)
        plan = Filter(
            plan,
            FunctionCall(
                "array_contains",
                [col(qualified(alias, second)), col(element_column)],
            ),
        )
        return HashAggregate(
            plan,
            group_by=[(qualified(alias, k), col(qualified(alias, k))) for k in key_names],
            aggregates=[AggregateSpec("array_agg", col(element_column), output)],
        )

    # ------------------------------------------------------- relationship joins

    def relationship_join(
        self,
        relationship: str,
        left_entity: str,
        left_alias: str,
        right_entity: str,
        right_alias: str,
        left_plan: Optional[PlanNode] = None,
        right_plan: Optional[PlanNode] = None,
        left_attributes: Optional[Sequence[str]] = None,
        right_attributes: Optional[Sequence[str]] = None,
        join_type: str = "inner",
    ) -> PlanNode:
        """Join two entity scans through a relationship set.

        The relationship's attributes (if any) appear as
        ``<relationship>.<attribute>`` columns in the output.
        """

        placement = self.mapping.relationship_placement(relationship)
        rel = self.schema.relationship(relationship)
        left_role = self._role_for(rel, left_entity)
        right_role = self._role_for(rel, right_entity, taken=left_role)

        if placement.kind == "co_stored":
            return self._join_co_stored(
                placement, rel.name, left_entity, left_alias, right_entity, right_alias
            )

        if left_plan is None:
            left_plan = self.entity_scan(left_entity, left_alias, attributes=left_attributes)
        if right_plan is None:
            right_plan = self.entity_scan(right_entity, right_alias, attributes=right_attributes)

        left_keys = [qualified(left_alias, k) for k in self._key_names(left_entity)]
        right_keys = [qualified(right_alias, k) for k in self._key_names(right_entity)]

        if placement.kind in ("identifying", "nested"):
            # weak entity <-> owner: shared owner-key attributes
            owner_entity = right_entity if self._is_owner_of(right_entity, left_entity) else left_entity
            owner_keys = self.schema.effective_key(owner_entity)
            return HashJoin(
                left_plan,
                right_plan,
                [qualified(left_alias, k) for k in owner_keys],
                [qualified(right_alias, k) for k in owner_keys],
                join_type=join_type,
            )

        if placement.kind == "foreign_key":
            # The foreign-key columns live on the MANY side's base table(s); the
            # entity scans expose only logical attributes, so the join hops
            # through a narrow scan of those tables: many-key -> fk columns.
            fk_side = placement.fk_side
            many_entity = rel.participant(fk_side).entity
            hop_alias = f"__fk_{relationship}"
            hop = self._fk_hop_scan(relationship, many_entity, placement, hop_alias)
            many_key_names = self._key_names(many_entity)
            hop_many_keys = [f"{hop_alias}.{k}" for k in many_key_names]
            hop_fk_keys = [f"{hop_alias}.{c}" for c in placement.role_columns[rel.other(fk_side).label]]
            if fk_side == left_role:
                plan = HashJoin(left_plan, hop, left_keys, hop_many_keys, join_type=join_type)
                return HashJoin(plan, right_plan, hop_fk_keys, right_keys, join_type=join_type)
            plan = HashJoin(right_plan, hop, right_keys, hop_many_keys, join_type=join_type)
            return HashJoin(left_plan, plan, left_keys, hop_fk_keys, join_type=join_type)

        if placement.kind == "join_table":
            rel_alias = relationship
            rel_scan: PlanNode = SeqScan(placement.table, alias=rel_alias)
            renames = {
                f"{rel_alias}.{column}": f"{relationship}.{attr}"
                for attr, column in placement.attribute_columns.items()
            }
            renames = {k: v for k, v in renames.items() if k != v}
            if renames:
                rel_scan = Rename(rel_scan, renames)
            left_link = [f"{rel_alias}.{c}" for c in placement.role_columns[left_role]]
            right_link = [f"{rel_alias}.{c}" for c in placement.role_columns[right_role]]
            plan = HashJoin(left_plan, rel_scan, left_keys, left_link, join_type=join_type)
            plan = HashJoin(plan, right_plan, right_link, right_keys, join_type=join_type)
            return plan

        raise PlanningError(f"unknown relationship placement kind {placement.kind!r}")

    def _fk_hop_scan(
        self, relationship: str, many_entity: str, placement, hop_alias: str
    ) -> PlanNode:
        """Narrow scan(s) of the table(s) carrying a folded relationship's columns."""

        many_placement = self.mapping.entity_placement(many_entity)
        many_key_names = self._key_names(many_entity)
        fk_columns = [
            column
            for role, columns in placement.role_columns.items()
            if role != placement.fk_side
            for column in columns
        ]
        rel_attr_columns = list(placement.attribute_columns.values())
        tables = [many_placement.table] if many_placement.table else []
        if many_placement.kind == "disjoint_table":
            for descendant in self.schema.descendants_of(many_entity):
                sub = self.mapping.entity_placement(descendant.name)
                if sub.table and sub.table not in tables:
                    tables.append(sub.table)
        scans: List[PlanNode] = []
        for table_name in tables:
            table = self.db.catalog.table(table_name)
            projection: Dict[str, str] = {}
            for key_name, key_column in zip(many_key_names, many_placement.key_columns):
                projection[key_column] = f"{hop_alias}.{key_name}"
            for column in fk_columns + rel_attr_columns:
                if table.schema.has_column(column):
                    projection[column] = f"{hop_alias}.{column}"
            scans.append(SeqScan(table_name, projection=projection))
        if not scans:
            raise PlanningError(
                f"relationship {relationship!r} has no physical table to join through"
            )
        plan = scans[0] if len(scans) == 1 else _union(scans)
        # relationship attributes become visible as "<relationship>.<attr>"
        renames = {
            f"{hop_alias}.{column}": f"{relationship}.{attr}"
            for attr, column in placement.attribute_columns.items()
        }
        renames = {k: v for k, v in renames.items() if k != v}
        if renames:
            plan = Rename(plan, renames)
        return plan

    def _role_for(self, rel, entity: str, taken: Optional[str] = None) -> str:
        """The first role ``entity`` can play in ``rel`` other than ``taken``
        (a self-relationship's two sides take different roles)."""

        family = {entity} | {a.name for a in self.schema.ancestors_of(entity)}
        for participant in rel.participants:
            if participant.entity in family and participant.label != taken:
                return participant.label
        raise PlanningError(
            f"entity {entity!r} does not participate in relationship {rel.name!r}"
        )

    def _is_owner_of(self, maybe_owner: str, weak: str) -> bool:
        entity = self.schema.entity(weak)
        return isinstance(entity, WeakEntitySet) and entity.owner == maybe_owner

    def _join_co_stored(
        self,
        placement,
        relationship: str,
        left_entity: str,
        left_alias: str,
        right_entity: str,
        right_alias: str,
    ) -> PlanNode:
        """Both sides plus the relationship live in one wide table: scan it once."""

        rel = self.schema.relationship(relationship)
        left_role = self._role_for(rel, left_entity)
        right_role = self._role_for(rel, right_entity, taken=left_role)
        scan_alias = f"{relationship}__costored"
        plan: PlanNode = SeqScan(placement.table, alias=scan_alias)
        presence = [
            Not(IsNull(col(f"{scan_alias}.{c}")))
            for c in placement.role_columns[left_role] + placement.role_columns[right_role]
        ]
        plan = Filter(plan, And(presence))
        renames: Dict[str, str] = {}
        for entity_name, alias in ((left_entity, left_alias), (right_entity, right_alias)):
            exposed = list(self._effective_attribute_names(entity_name))
            for key_name in self._key_names(entity_name):
                if key_name not in exposed:
                    exposed.append(key_name)
            for attribute in exposed:
                attr_placement = self._attribute_placement(entity_name, attribute)
                if attr_placement.kind != "inline":
                    continue
                if attr_placement.table == placement.table:
                    renames[f"{scan_alias}.{attr_placement.column}"] = qualified(alias, attribute)
        for attribute, column in placement.attribute_columns.items():
            renames[f"{scan_alias}.{column}"] = f"{relationship}.{attribute}"
        plan = Rename(plan, renames)
        # Inherited attributes of the participants (e.g. the root part of a
        # subclass) still come from their own tables.
        for entity_name, alias in ((left_entity, left_alias), (right_entity, right_alias)):
            inherited: Dict[str, List[str]] = {}
            for attribute in self._effective_attribute_names(entity_name):
                attr_placement = self._attribute_placement(entity_name, attribute)
                if attr_placement.kind == "inline" and attr_placement.table != placement.table:
                    inherited.setdefault(attr_placement.table, []).append(attribute)
            key_names = self._key_names(entity_name)
            for other_table, attrs in inherited.items():
                other_alias = f"{alias}__{other_table}"
                other_scan = SeqScan(other_table, alias=other_alias)
                plan = HashJoin(
                    plan,
                    other_scan,
                    [qualified(alias, k) for k in key_names],
                    [f"{other_alias}.{k}" for k in key_names],
                )
                extra = {}
                for attribute in attrs:
                    attr_placement = self._attribute_placement(entity_name, attribute)
                    extra[f"{other_alias}.{attr_placement.column}"] = qualified(alias, attribute)
                plan = Rename(plan, extra)
        return plan


def _union(scans: List[PlanNode]) -> PlanNode:
    from ..relational.operators import Union

    return Union(scans)

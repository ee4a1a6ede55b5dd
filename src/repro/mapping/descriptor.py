"""The placement descriptor: which E/R facts one physical row carries.

The :class:`~repro.mapping.physical.Mapping` says where each entity,
attribute and relationship goes; the descriptor reads the same placements
back, per physical table, as the facts one row carries.  Its inverse,
:meth:`PlacementDescriptor.sites`, lists every ``(table, columns)`` where a
hierarchy root's key can appear.  Online catch-up decodes written rows
through it, erasure counts and verifies the rows that carry a key, and the
CRUD delete walks every site of a key, after the weak instances it owns.

The law it obeys is the lens round-trip: decoding every row of a load gives
exactly the loaded entity keys and pairs (Bohannon, Pierce & Vaughan,
"Relational Lenses", PODS 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union, TYPE_CHECKING

from ..core import ERSchema, WeakEntitySet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .physical import Mapping

#: ``("entity", hierarchy root, key)`` or ``("pair", relationship, left key,
#: right key)``: one logical instance a physical row carries.
Identity = Tuple[Any, ...]


def _key(row: Dict[str, Any], columns: Tuple[str, ...]) -> Optional[Tuple[Any, ...]]:
    key = tuple(row.get(c) for c in columns)
    return None if None in key else key


@dataclass(frozen=True)
class KeyFact:
    """An entity key in ``columns``, named by its hierarchy root: own, delta,
    single, disjoint and co-stored rows, side-table owner keys, and the
    owner key of a row that carries weak instances, as their own row or as
    nested elements (``owner_of`` names the weak entity)."""

    root: str
    columns: Tuple[str, ...]
    owner_of: Optional[str] = None

    def keys(self, row: Dict[str, Any]) -> Iterator[Tuple[str, Tuple[Any, ...]]]:
        key = _key(row, self.columns)
        if key is not None:
            yield self.root, key


@dataclass(frozen=True)
class NestedFact:
    """Weak keys folded into an owner row: the owner key in ``columns`` plus
    each ``array_column`` element's ``discriminator``."""

    root: str
    columns: Tuple[str, ...]
    array_column: str
    discriminator: Tuple[str, ...]

    def keys(self, row: Dict[str, Any]) -> Iterator[Tuple[str, Tuple[Any, ...]]]:
        owner = _key(row, self.columns)
        if owner is not None:
            for element in row.get(self.array_column) or ():
                yield self.root, owner + tuple(element.get(d) for d in self.discriminator)


@dataclass(frozen=True)
class PairFact:
    """One pair of ``relationship``, by role columns in participant order.
    ``kind`` is ``"join"``, ``"co_stored"`` or ``"fold"``; a fold's
    ``own_side`` is the participant whose key is the row's own."""

    relationship: str
    kind: str
    roots: Tuple[str, str]
    columns: Tuple[Tuple[str, ...], Tuple[str, ...]]
    attribute_columns: Tuple[str, ...] = ()
    own_side: Optional[int] = None

    def keys(self, row: Dict[str, Any]) -> Iterator[Tuple[str, Tuple[Any, ...]]]:
        for root, columns in zip(self.roots, self.columns):
            key = _key(row, columns)
            if key is not None:
                yield root, key


Fact = Union[KeyFact, NestedFact, PairFact]


class Site(NamedTuple):
    """``columns`` of ``table`` can hold a root's key (a nested site's,
    only the owner-key prefix), read through ``fact``."""

    table: str
    columns: Tuple[str, ...]
    fact: Fact


class PlacementDescriptor:
    """Per-table fact lists of one (schema, mapping) pair, and their inverse.

    :meth:`Mapping.descriptor` builds one on first use and keeps it.
    """

    def __init__(self, schema: ERSchema, mapping: "Mapping") -> None:
        self.schema = schema
        #: table name -> the facts one of its rows carries
        self.tables: Dict[str, List[Fact]] = {}
        self._sites: Dict[str, List[Site]] = {}

        def root(entity: str) -> str:
            return schema.hierarchy_root(entity).name

        for name, placement in mapping.entity_placements.items():
            entity = schema.entity(name)
            if placement.kind == "nested_in_owner":
                owner = mapping.entity_placement(placement.owner_entity)
                owner_columns = tuple(owner.key_columns)
                self._add(owner.table, NestedFact(
                    name, owner_columns, placement.array_column, tuple(entity.discriminator),
                ))  # fmt: skip
                self._add(owner.table, KeyFact(root(entity.owner), owner_columns, name))
                continue
            # a co-stored key's site is its pair site, which also finds placeholder rows
            self._add(placement.table, KeyFact(root(name), tuple(placement.key_columns)),
                      site=placement.kind != "co_stored")  # fmt: skip
            if isinstance(entity, WeakEntitySet):
                width = len(schema.effective_key(entity.owner))
                owner_columns = tuple(placement.key_columns[:width])
                self._add(placement.table, KeyFact(root(entity.owner), owner_columns, name))
        for (owner, _), placement in mapping.attribute_placements.items():
            if placement.kind == "side_table":
                owner_columns = tuple(placement.owner_key_columns)
                self._add(placement.table, KeyFact(root(owner), owner_columns))
        for relationship in schema.relationships():
            if relationship.identifying:
                continue  # the weak row's owner key is the pair
            placement = mapping.relationship_placement(relationship.name)
            roots = tuple(root(p.entity) for p in relationship.participants)
            labels = relationship.labels()
            if placement.kind != "foreign_key":
                kind = "join" if placement.kind == "join_table" else "co_stored"
                self._add(placement.table, PairFact(
                    relationship.name, kind, roots,
                    tuple(tuple(placement.role_columns[label]) for label in labels),
                    tuple(placement.attribute_columns.values()),
                ))  # fmt: skip
                continue
            many = relationship.participant(placement.fk_side)
            fk = tuple(placement.role_columns[relationship.other(many.label).label])
            home = mapping.entity_placement(many.entity)
            tables = [home.table]
            if home.kind == "disjoint_table":
                tables += [mapping.entity_placement(d.name).table
                           for d in schema.descendants_of(many.entity)]  # fmt: skip
            for table in dict.fromkeys(tables):
                physical = mapping.table(table)
                if not all(physical.has_column(c) for c in fk):
                    continue
                # a descendant's table names its key columns as attributes
                own = tuple(home.key_columns if table == home.table
                            else schema.effective_key(many.entity))  # fmt: skip
                side = labels.index(many.label)
                columns = (own, fk) if side == 0 else (fk, own)
                self._add(table, PairFact(
                    relationship.name, "fold", roots, columns,
                    tuple(c for c in placement.attribute_columns.values()
                          if physical.has_column(c)),
                    side,
                ))  # fmt: skip

    def _add(self, table: str, fact: Fact, site: bool = True) -> None:
        facts = self.tables.setdefault(table, [])
        if fact in facts:  # hierarchy members sharing one table
            return
        facts.append(fact)
        if not site:
            return
        if not isinstance(fact, PairFact):
            self._sites.setdefault(fact.root, []).append(Site(table, fact.columns, fact))
            return
        for side, (root, columns) in enumerate(zip(fact.roots, fact.columns)):
            if side != fact.own_side:  # a fold's own key is its row's KeyFact
                self._sites.setdefault(root, []).append(Site(table, columns, fact))

    def sites(self, root: str) -> List[Site]:
        """Every place the key of hierarchy root ``root`` can appear."""

        return self._sites.get(root, [])

    def owned(self, site: Site, row: Dict[str, Any]) -> Iterator[Tuple[str, Tuple[Any, ...]]]:
        """The weak instances one row at an owner-key site (a ``KeyFact``
        with ``owner_of``) carries: the weak entity's own key, or each
        element of its nested array."""

        for fact in self.tables[site.table]:
            if _names_entity(fact) and fact.root == site.fact.owner_of:
                yield from fact.keys(row)

    def decode(self, table: str, row: Dict[str, Any]) -> Iterator[Identity]:
        """The entity keys and pairs one row of ``table`` carries.

        A pair also names its two endpoints, since a co-stored row keeps an
        entity inside its pair rows.  An owner key is a reference, not an
        instance of the owner, so it decodes to nothing.
        """

        for fact in self.tables[table]:
            if isinstance(fact, PairFact):
                ends = list(fact.keys(row))
                if len(ends) == 2:
                    yield ("pair", fact.relationship, ends[0][1], ends[1][1])
                    yield from (("entity", root, key) for root, key in ends)
            elif _names_entity(fact):
                yield from (("entity", root, key) for root, key in fact.keys(row))


def _names_entity(fact: Fact) -> bool:
    """Whether ``fact`` holds instances of its root, not owner-key references."""

    return isinstance(fact, NestedFact) or (isinstance(fact, KeyFact) and fact.owner_of is None)

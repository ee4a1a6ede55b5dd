"""Right-to-erasure: delete all data about an entity, wherever it lives.

This is the paper's flagship governance operation: "ability to delete data of
specific individuals ... requires reasoning about all the data related to an
entity as a whole", which is hard when personal data is "spread across many
tables, often without the foreign keys to help link the data".  Because the
ErbiumDB mapping knows where every attribute and relationship of an entity is
physically stored, erasure becomes a single entity-centric operation:

1. find the instance and the instances of weak entity sets owned by it —
   e.g. a person's orders;
2. collect the physical footprint: the rows that carry the instance's key,
   wherever the mapping's placement descriptor says that key can appear;
3. delete through the CRUD templates, whose one delete rule walks the same
   sites: it deletes the owned instances first, then clears relationship
   rows and foreign-key references along with the instance's own rows;
4. verify, through the same descriptor, that no row still carries the key
   (a weak dependant's row carries it as its owner key), and write an audit
   record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core import ERSchema
from ..errors import GovernanceError
from ..mapping import CrudTemplates, Mapping
from ..relational import Database
from .access_control import AccessController
from .audit import AuditLog


@dataclass
class ErasureReport:
    """Outcome of one erasure request."""

    entity: str
    key: Tuple[Any, ...]
    rows_removed: int = 0
    dependants_erased: List[Tuple[str, Tuple[Any, ...]]] = field(default_factory=list)
    residual_occurrences: List[str] = field(default_factory=list)
    verified: bool = False

    def describe(self) -> Dict[str, Any]:
        return {
            "entity": self.entity,
            "key": list(self.key),
            "rows_removed": self.rows_removed,
            "dependants_erased": [
                {"entity": e, "key": list(k)} for e, k in self.dependants_erased
            ],
            "verified": self.verified,
            "residual_occurrences": list(self.residual_occurrences),
        }


class ErasureService:
    """Entity-centric right-to-erasure over one mapped database."""

    def __init__(
        self,
        schema: ERSchema,
        mapping: Mapping,
        db: Database,
        access: Optional[AccessController] = None,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self.schema = schema
        self.mapping = mapping
        self.db = db
        self.crud = CrudTemplates(schema, mapping, db)
        self.access = access
        self.audit = audit

    # -- discovery ----------------------------------------------------------------

    def footprint(self, entity: str, key: Sequence[Any]) -> Dict[str, int]:
        """How many rows in each physical table carry the instance's key.

        This is the "where is this person's data" inventory, read off the
        mapping's placement descriptor — exactly the point the paper makes:
        the E/R layer *knows* every place an entity's key can appear, so the
        inventory does not rely on conventions or external documentation.
        """

        return {table: len(ids) for table, ids in self._holding(entity, key).items()}

    def _holding(self, entity: str, key: Sequence[Any]) -> Dict[str, Set[int]]:
        """Ids of the rows, per table, that carry ``key`` of ``entity``'s root."""

        key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
        root = self.schema.hierarchy_root(entity).name
        holding: Dict[str, Set[int]] = {}
        for site in self.mapping.descriptor(self.schema).sites(root):
            ids = self.crud.holding(site, root, key)
            if ids:
                holding.setdefault(site.table, set()).update(ids)
        return holding

    def dependants(self, entity: str, key: Sequence[Any]) -> List[Tuple[str, Tuple[Any, ...]]]:
        """Weak-entity instances owned by the given instance."""

        return self.crud.dependants(entity, key if isinstance(key, (tuple, list)) else (key,))

    # -- erasure -----------------------------------------------------------------------

    def erase(
        self,
        entity: str,
        key: Sequence[Any],
        principal: Optional[str] = None,
    ) -> ErasureReport:
        """Erase one entity instance and the weak instances it owns."""

        if not isinstance(key, (tuple, list)):
            key = (key,)
        if self.access is not None and principal is not None:
            self.access.check(principal, "erase", entity)

        if self.crud.get_entity(entity, key) is None:
            raise GovernanceError(
                f"no instance of {entity!r} with key {tuple(key)} exists"
            )

        report = ErasureReport(entity, tuple(key), dependants_erased=self.dependants(entity, key))
        report.rows_removed = self.crud.delete_entity(entity, key)

        report.residual_occurrences = self._verify(entity, key)
        report.verified = not report.residual_occurrences

        if self.audit is not None:
            self.audit.record(
                action="erasure",
                principal=principal or "system",
                entity=entity,
                key=tuple(key),
                outcome="verified" if report.verified else "residuals_found",
                rows_removed=report.rows_removed,
            )
        return report

    def _verify(self, entity: str, key: Sequence[Any]) -> List[str]:
        """Tables in which the erased instance's key still appears."""

        residual = []
        if self.crud.get_entity(entity, key) is not None:
            residual.append(f"entity {entity!r} still reconstructible")
        return residual + sorted(self._holding(entity, key))

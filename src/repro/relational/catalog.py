"""System catalog: the set of tables, indexes and constraints in a database.

The catalog is deliberately small — it mirrors what the paper's prototype
stores in PostgreSQL system tables plus the JSON mapping object it keeps in a
side table.  The mapping layer stores its serialized mapping here too (see
:meth:`Catalog.put_metadata`), matching the paper's description of the mapping
being "maintained in a table in the database as a JSON object".
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

from ..errors import CatalogError
from .constraints import Constraint
from .indexes import IndexDefinition
from .table import Table
from .types import TableSchema


class Catalog:
    """Holds every table, constraint and metadata entry of one database."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._constraints: Dict[str, List[Constraint]] = {}
        self._metadata: Dict[str, str] = {}

    # -- tables --------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[schema.name] = table
        self._constraints[schema.name] = []
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[name]
        del self._constraints[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        return self._tables[name]

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # -- constraints -----------------------------------------------------------

    def add_constraint(self, table_name: str, constraint: Constraint) -> None:
        if table_name not in self._tables:
            raise CatalogError(f"table {table_name!r} does not exist")
        self._constraints[table_name].append(constraint)

    def constraints_for(self, table_name: str) -> List[Constraint]:
        return list(self._constraints.get(table_name, ()))

    # -- indexes ----------------------------------------------------------------

    def create_index(self, definition: IndexDefinition) -> None:
        self.table(definition.table).create_index(definition)

    # -- metadata (JSON blobs, e.g. the active mapping) ---------------------------

    def put_metadata(self, key: str, value: Any) -> None:
        """Store a JSON-serializable blob under ``key``."""

        self._metadata[key] = json.dumps(value, sort_keys=True)

    def get_metadata(self, key: str, default: Any = None) -> Any:
        if key not in self._metadata:
            return default
        return json.loads(self._metadata[key])

    def metadata_keys(self) -> List[str]:
        return sorted(self._metadata)

    def delete_metadata(self, key: str) -> None:
        self._metadata.pop(key, None)

    # -- introspection -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """A JSON-friendly summary of the catalog (used by the API layer)."""

        out: Dict[str, Any] = {}
        for name, table in sorted(self._tables.items()):
            out[name] = {
                "columns": [
                    {"name": c.name, "type": repr(c.dtype), "nullable": c.nullable}
                    for c in table.schema.columns
                ],
                "primary_key": list(table.schema.primary_key),
                "row_count": table.row_count,
                "indexes": sorted(table.indexes()),
                "constraints": [repr(c) for c in self.constraints_for(name)],
            }
        return out

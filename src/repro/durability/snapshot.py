"""Columnar checkpoint store: versioned on-disk snapshots of a mapped system.

A checkpoint is one JSON document holding everything needed to rebuild an
:class:`~repro.system.ErbiumDB` without the WAL:

* the **E/R schema** (full fidelity: attribute shapes, keys, hierarchies,
  weak-entity owners, participation constraints),
* the **mapping spec** (the declarative physical-design choices; recovery
  recompiles and reinstalls it, which recreates every physical table, index
  and constraint exactly as :meth:`ErbiumDB.set_mapping` did),
* per-table **row data**, column-major, taken from the same version-stamped
  columnar snapshot the batch executor scans — capturing a checkpoint is a
  few list references, not a data copy, so the expensive JSON encode can run
  on a background thread while the engine keeps serving,
* per-table **LSN watermarks** for idempotent WAL replay,
* the catalog's **metadata blobs** (the serialized mapping JSON, etc.).

On-disk layout (inside the database directory)::

    checkpoints/ckpt-<version>.json     the checkpoint documents
    CURRENT                             {"file", "crc", "version", "lsn"}

Checkpoint files are written to a temp name, fsynced, atomically renamed,
and only then referenced from ``CURRENT`` (itself written the same way), so
a crash at any point leaves the previous checkpoint intact.  The loader
verifies the crc32 recorded in ``CURRENT`` before parsing.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Any, Dict, Optional, TYPE_CHECKING

from ..core import (
    Attribute,
    CompositeAttribute,
    DerivedAttribute,
    EntitySet,
    ERSchema,
    MultiValuedAttribute,
    Participant,
    RelationshipSet,
    WeakEntitySet,
)
from ..errors import DurabilityError, RecoveryError
from ..mapping import MappingSpec
from ..reliability.faults import REAL_FS, Filesystem
from ..reliability.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import ErbiumDB

#: Bump when the checkpoint document layout changes incompatibly.
CHECKPOINT_FORMAT = 1

CURRENT_FILE = "CURRENT"
CHECKPOINT_DIR = "checkpoints"
#: Completed checkpoints kept on disk (older ones are pruned).
KEEP_CHECKPOINTS = 2


# --------------------------------------------------------------------------
# E/R schema serialization (full fidelity, unlike describe())
# --------------------------------------------------------------------------


def attribute_to_dict(attribute: Attribute) -> Dict[str, Any]:
    """JSON-ready image of one attribute (simple/composite/multivalued/derived)."""

    out: Dict[str, Any] = {
        "name": attribute.name,
        "type_name": attribute.type_name,
        "required": attribute.required,
        "pii": attribute.pii,
        "description": attribute.description,
    }
    if isinstance(attribute, CompositeAttribute):
        out["kind"] = "composite"
        out["components"] = [attribute_to_dict(c) for c in attribute.components]
    elif isinstance(attribute, MultiValuedAttribute):
        out["kind"] = "multivalued"
        if attribute.element_components is not None:
            out["element_components"] = [
                attribute_to_dict(c) for c in attribute.element_components
            ]
    elif isinstance(attribute, DerivedAttribute):
        out["kind"] = "derived"
        out["formula"] = attribute.formula
    else:
        out["kind"] = "simple"
    return out


def attribute_from_dict(data: Dict[str, Any]) -> Attribute:
    """Inverse of :func:`attribute_to_dict`."""

    kind = data.get("kind", "simple")
    common = dict(
        name=data["name"],
        type_name=data.get("type_name", "varchar"),
        required=data.get("required", False),
        pii=data.get("pii", False),
        description=data.get("description"),
    )
    if kind == "composite":
        return CompositeAttribute(
            components=[attribute_from_dict(c) for c in data["components"]], **common
        )
    if kind == "multivalued":
        elements = data.get("element_components")
        return MultiValuedAttribute(
            element_components=(
                [attribute_from_dict(c) for c in elements] if elements else None
            ),
            **common,
        )
    if kind == "derived":
        return DerivedAttribute(formula=data.get("formula"), **common)
    return Attribute(**common)


def entity_to_dict(entity: EntitySet) -> Dict[str, Any]:
    """JSON-ready image of an entity set (strong or weak, incl. hierarchy)."""

    out: Dict[str, Any] = {
        "name": entity.name,
        "weak": entity.is_weak(),
        "attributes": [attribute_to_dict(a) for a in entity.attributes],
        "key": list(entity.key),
        "parent": entity.parent,
        "specialization_total": entity.specialization_total,
        "specialization_disjoint": entity.specialization_disjoint,
        "description": entity.description,
    }
    if isinstance(entity, WeakEntitySet):
        out["owner"] = entity.owner
        out["discriminator"] = list(entity.discriminator)
    return out


def entity_from_dict(data: Dict[str, Any]) -> EntitySet:
    """Inverse of :func:`entity_to_dict`."""

    common = dict(
        name=data["name"],
        attributes=[attribute_from_dict(a) for a in data.get("attributes", [])],
        key=list(data.get("key", [])),
        parent=data.get("parent"),
        specialization_total=data.get("specialization_total", False),
        specialization_disjoint=data.get("specialization_disjoint", True),
        description=data.get("description"),
    )
    if data.get("weak"):
        return WeakEntitySet(
            owner=data.get("owner", ""),
            discriminator=list(data.get("discriminator", [])),
            **common,
        )
    return EntitySet(**common)


def relationship_to_dict(relationship: RelationshipSet) -> Dict[str, Any]:
    """JSON-ready image of a relationship set and its participants."""

    return {
        "name": relationship.name,
        "participants": [
            {
                "entity": p.entity,
                "role": p.role,
                "cardinality": p.cardinality.value,
                "participation": p.participation.value,
            }
            for p in relationship.participants
        ],
        "attributes": [attribute_to_dict(a) for a in relationship.attributes],
        "identifying": relationship.identifying,
        "description": relationship.description,
    }


def relationship_from_dict(data: Dict[str, Any]) -> RelationshipSet:
    """Inverse of :func:`relationship_to_dict`."""

    return RelationshipSet(
        name=data["name"],
        participants=[
            Participant(
                entity=p["entity"],
                role=p.get("role"),
                cardinality=p.get("cardinality", "many"),
                participation=p.get("participation", "partial"),
            )
            for p in data.get("participants", [])
        ],
        attributes=[attribute_from_dict(a) for a in data.get("attributes", [])],
        identifying=data.get("identifying", False),
        description=data.get("description"),
    )


def schema_to_dict(schema: ERSchema) -> Dict[str, Any]:
    """Full-fidelity serialization of an E/R schema (unlike ``describe()``)."""

    return {
        "name": schema.name,
        "entities": [entity_to_dict(e) for e in schema.entities()],
        "relationships": [relationship_to_dict(r) for r in schema.relationships()],
    }


def schema_from_dict(data: Dict[str, Any]) -> ERSchema:
    """Inverse of :func:`schema_to_dict`."""

    schema = ERSchema(data.get("name", "schema"))
    for entity in data.get("entities", []):
        schema.add_entity(entity_from_dict(entity))
    for relationship in data.get("relationships", []):
        schema.add_relationship(relationship_from_dict(relationship))
    return schema


# --------------------------------------------------------------------------
# Mapping spec serialization
# --------------------------------------------------------------------------


def spec_to_dict(spec: MappingSpec) -> Dict[str, Any]:
    """JSON-ready image of a :class:`MappingSpec` (checkpointed with the data)."""

    return {
        "name": spec.name,
        "hierarchy": dict(spec.hierarchy),
        # list-of-triples rather than dotted keys: attribute names are not
        # guaranteed dot-free
        "multivalued": [
            [owner, attribute, choice]
            for (owner, attribute), choice in sorted(spec.multivalued.items())
        ],
        "weak_entity": dict(spec.weak_entity),
        "relationship": dict(spec.relationship),
        "description": spec.description,
    }


def spec_from_dict(data: Dict[str, Any]) -> MappingSpec:
    """Inverse of :func:`spec_to_dict`."""

    return MappingSpec(
        name=data.get("name", "custom"),
        hierarchy=dict(data.get("hierarchy", {})),
        multivalued={
            (owner, attribute): choice
            for owner, attribute, choice in data.get("multivalued", [])
        },
        weak_entity=dict(data.get("weak_entity", {})),
        relationship=dict(data.get("relationship", {})),
        description=data.get("description"),
    )


# --------------------------------------------------------------------------
# Checkpoint capture
# --------------------------------------------------------------------------


def capture_state(system: "ErbiumDB", lsn: int) -> Dict[str, Any]:
    """Snapshot a mapped system into a JSON-ready checkpoint document.

    Row data is captured by *reference* to the tables' shared columnar
    snapshots (rebuilt per data version, never mutated in place), so this is
    cheap and the returned document stays consistent even if the engine
    mutates tables while a background writer encodes it.
    """

    layout = system._layout
    if layout.mapping is None or layout.spec is None:
        raise DurabilityError("cannot checkpoint before a mapping is installed")
    db = layout.db
    tables: Dict[str, Any] = {}
    table_lsns: Dict[str, int] = {}
    for table in db.catalog.tables():
        tables[table.name] = table.dump_slots()
        table_lsns[table.name] = lsn
    metadata = {
        key: db.catalog.get_metadata(key) for key in db.catalog.metadata_keys()
    }
    state = {
        "format": CHECKPOINT_FORMAT,
        "name": system.name,
        "lsn": lsn,
        "schema": schema_to_dict(layout.schema),
        "mapping_spec": spec_to_dict(layout.spec),
        "mapping_name": layout.mapping.name,
        "tables": tables,
        "table_lsns": table_lsns,
        "metadata": metadata,
    }
    # Governance state (grants, role assignments, audit trail) rides in the
    # checkpoint so recovery restores the same policy surface the crashed
    # process enforced — closing the "governance not checkpointed" gap.
    access = getattr(system, "access", None)
    audit = getattr(system, "audit", None)
    if access is not None or audit is not None:
        state["governance"] = {
            "access": access.export_state() if access is not None else None,
            "audit": audit.export_state() if audit is not None else None,
        }
    return state


# --------------------------------------------------------------------------
# The on-disk store
# --------------------------------------------------------------------------


def _write_atomic(
    path: str,
    data: bytes,
    fs: Filesystem = REAL_FS,
    cleanup_errors: Optional[list] = None,
) -> None:
    """Write bytes to ``path`` via temp file + fsync + atomic rename.

    On failure the half-written temp file is removed (best-effort: a temp
    file that will not delete is a space leak, never a correctness hazard —
    recovery only reads files the ``CURRENT`` pointer names).
    """

    tmp = path + ".tmp"
    try:
        handle = fs.open(tmp, "wb")
        try:
            fs.write(handle, data)
            fs.flush(handle)
            fs.fsync(handle)
        finally:
            handle.close()
        fs.replace(tmp, path)
    except BaseException:
        try:
            fs.remove(tmp)
        except OSError as exc:
            if cleanup_errors is not None:
                cleanup_errors.append(f"temp cleanup {tmp}: {exc}")
        raise
    # fsync the directory so the rename itself survives a power failure
    fs.fsync_dir(os.path.dirname(path) or ".")


class CheckpointStore:
    """Versioned, checksummed checkpoint files under one database directory."""

    def __init__(
        self,
        directory: str,
        fs: Optional[Filesystem] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.directory = directory
        self.checkpoint_dir = os.path.join(directory, CHECKPOINT_DIR)
        self.fs = fs if fs is not None else REAL_FS
        self.retry = retry
        self.cleanup_errors: list = []
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self._writer: Optional[threading.Thread] = None
        self._writer_error: Optional[BaseException] = None

    def _write_file(self, path: str, data: bytes) -> None:
        """One durable file publication, retried under the store's policy."""

        def attempt() -> None:
            _write_atomic(path, data, self.fs, self.cleanup_errors)

        if self.retry is None:
            attempt()
        else:
            self.retry.call(attempt)

    # -- introspection -------------------------------------------------------

    @property
    def current_path(self) -> str:
        """Path of the ``CURRENT`` pointer file naming the live checkpoint."""

        return os.path.join(self.directory, CURRENT_FILE)

    def has_checkpoint(self) -> bool:
        """Whether this directory holds a completed checkpoint."""

        return os.path.exists(self.current_path)

    def latest_info(self) -> Optional[Dict[str, Any]]:
        """The ``CURRENT`` pointer ({file, crc, version, lsn}), if any."""

        if not self.has_checkpoint():
            return None
        return json.loads(self.fs.read_bytes(self.current_path).decode("utf-8"))

    def _next_version(self) -> int:
        info = self.latest_info()
        return (info["version"] + 1) if info else 1

    # -- writing -------------------------------------------------------------

    def write(
        self,
        state: Dict[str, Any],
        background: bool = False,
        on_complete: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Persist a checkpoint document; returns the new ``CURRENT`` info.

        ``background=True`` runs the JSON encode and all file IO on a writer
        thread (safe because :func:`capture_state` captures immutable column
        lists); :meth:`wait` joins it and re-raises any failure.  The
        ``CURRENT`` pointer is updated only after the checkpoint file is
        durably on disk, so a crash mid-write is invisible to recovery.
        ``on_complete(info)`` runs after the pointer flip (the manager uses
        it to prune WAL segments the new checkpoint covers).

        The returned dict is a stable snapshot the writer thread never
        touches; a background write marks it ``{"pending": True}`` because
        the checkpoint is not yet guaranteed on disk when the call returns —
        :meth:`wait` (or the next synchronous store operation) surfaces any
        failure.
        """

        self.wait()
        version = self._next_version()
        filename = f"ckpt-{version:08d}.json"
        path = os.path.join(self.checkpoint_dir, filename)
        info = {
            "file": os.path.join(CHECKPOINT_DIR, filename),
            "version": version,
            "lsn": state.get("lsn", 0),
        }

        def run() -> Dict[str, Any]:
            # the thread works on its own copy: `info` already escaped to
            # the caller, which may be serializing it concurrently
            written = dict(info)
            payload = json.dumps(state, separators=(",", ":")).encode("utf-8")
            written["crc"] = zlib.crc32(payload)
            self._write_file(path, payload)
            self._write_file(
                self.current_path, json.dumps(written, sort_keys=True).encode("utf-8")
            )
            self._prune(version)
            if on_complete is not None:
                on_complete(written)
            return written

        if not background:
            return run()
        info["pending"] = True
        self._writer_error = None

        def guarded() -> None:
            try:
                run()
            except BaseException as exc:  # pragma: no cover - disk failures
                self._writer_error = exc

        self._writer = threading.Thread(
            target=guarded, name="erbium-checkpoint-writer", daemon=True
        )
        self._writer.start()
        return info

    def wait(self) -> None:
        """Join a pending background checkpoint write, re-raising failures."""

        if self._writer is not None:
            self._writer.join()
            self._writer = None
        if self._writer_error is not None:
            error = self._writer_error
            self._writer_error = None
            raise DurabilityError(f"background checkpoint write failed: {error!r}")

    def _prune(self, latest_version: int) -> None:
        for name in os.listdir(self.checkpoint_dir):
            if not (name.startswith("ckpt-") and name.endswith(".json")):
                continue
            digits = name[len("ckpt-") : -len(".json")]
            if digits.isdigit() and int(digits) <= latest_version - KEEP_CHECKPOINTS:
                try:
                    self.fs.remove(os.path.join(self.checkpoint_dir, name))
                except OSError as exc:
                    # Best-effort: a stale checkpoint that will not delete
                    # costs disk space only — CURRENT never points at it.
                    self.cleanup_errors.append(f"prune checkpoint {name}: {exc}")

    # -- loading -------------------------------------------------------------

    def load(self) -> Dict[str, Any]:
        """Load and checksum-verify the checkpoint ``CURRENT`` points at."""

        self.wait()
        info = self.latest_info()
        if info is None:
            raise RecoveryError(f"no checkpoint in {self.directory!r}")
        path = os.path.join(self.directory, info["file"])
        if not os.path.exists(path):
            raise RecoveryError(f"checkpoint file {path!r} is missing")
        payload = self.fs.read_bytes(path)
        expected = info.get("crc")
        if expected is not None and zlib.crc32(payload) != expected:
            raise RecoveryError(
                f"checkpoint file {path!r} fails its checksum (corrupt or torn write)"
            )
        state = json.loads(payload.decode("utf-8"))
        fmt = state.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise RecoveryError(
                f"unsupported checkpoint format {fmt!r} (this build reads "
                f"format {CHECKPOINT_FORMAT})"
            )
        return state

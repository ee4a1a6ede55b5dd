"""``lifecycle_durable``: load, checkpoint, commit, migrate, crash, recover.

One cycle, in a fresh directory, through the benchmark's counting
filesystem: ``load`` -> 5 x ``checkpoint()`` -> 200 acknowledged single-row
commits -> ``migrate_online(new_spec=M6)`` beside one foreground prober
thread -> 200 more acknowledged commits -> crash (``abandon``, then every
file is cut back to its last-fsynced length) -> ``ErbiumDB.open`` -> verify
that every acknowledged commit is readable.  The box repeats cycles until
its time is up.  Bulk write path, JSON WAL/checkpoint codec, recovery and
online evolution do the work; the query executors do almost none.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from repro import ErbiumDB
from repro.errors import SerializationError
from repro.workloads.synthetic import SyntheticDataset, synthetic_mappings

from ..data import build_system, make_dataset, user_bytes
from ..fsprobe import AckLedger, CountingFilesystem, disk_bytes
from ..spans import SpanRecorder, span_or_nothing
from .base import HARNESS, MAX_ERRORS, Box, SetupResult, Slice, Workload
from .oltp_point import PREPARED_TEXT

CHECKPOINTS = 5
COMMITS = 200
PROBE_INSERT_EVERY = 10
KINDS = (
    "load", "checkpoint", "commit", "probe_read", "probe_insert",
    "migrate", "recover", "verify_read",
)  # fmt: skip
#: the latency percentiles are taken over populations the client controls:
#: an op is an acknowledged commit, a read is a read-back after recovery.
#: (The prober's ops number more or fewer as the migration runs longer or
#: shorter; they enter ``op_geomean_ms`` and the evolution layer metrics.)
OP_KINDS = frozenset({"commit"})
READ_KINDS = frozenset({"verify_read"})


@dataclass
class Cycle:
    """What one cycle observed: latencies per kind, counts, the verdict."""

    samples: Dict[str, List[int]] = field(default_factory=lambda: {k: [] for k in KINDS})
    instances: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    acked_commits_lost: int = 0
    #: WAL + checkpoint bytes on disk after load + first checkpoint, over the
    #: compact-JSON size of the loaded values
    disk_bytes_per_user_byte: float = 0.0
    wal_bytes_per_user_byte: float = 0.0
    wal_bytes_per_commit: float = 0.0
    #: filesystem counters over the single-client prefix of the cycle (load,
    #: checkpoints, first commits): exact for a given seed
    fs_counters: Dict[str, float] = field(default_factory=dict)
    migration: Dict[str, Any] = field(default_factory=dict)
    #: seconds inside ``ErbiumDB.load``
    load_seconds: float = 0.0
    prober_seconds: float = 0.0
    elapsed_s: float = 0.0


def _prober(system: Any, s_ids: List[int], ledger: AckLedger, stop: threading.Event,
            cycle: Cycle, recorder: Optional[SpanRecorder], first_key: int) -> None:  # fmt: skip
    """The foreground client during migration: prepared point reads, every
    10th op an autocommit insert.  An insert that races the flip gets the
    documented retryable ``SerializationError`` ("retry the statement against
    the new layout"), so the client retries the statement — once is enough."""

    stmt = system.prepare(PREPARED_TEXT)
    reads, inserts = cycle.samples["probe_read"], cycle.samples["probe_insert"]
    span = span_or_nothing(recorder)
    started = perf_counter()
    ops = 0
    key = first_key
    while not stop.is_set():
        ops += 1
        t0 = perf_counter_ns()
        try:
            if ops % PROBE_INSERT_EVERY == 0:
                key += 1
                row = {"s_id": key, "s_x": ops, "s_y": "p"}
                with span("mapping", "probe_insert"):
                    try:
                        system.insert("S", row)
                    except SerializationError:
                        system.insert("S", row)
                inserts.append(perf_counter_ns() - t0)
                ledger.ack(key, ops)
            else:
                with span("session", "probe_read"):
                    rows = stmt.execute(k=s_ids[ops % len(s_ids)]).fetchall()
                reads.append(perf_counter_ns() - t0)
                if len(rows) != 1:
                    raise ValueError(f"probe read returned {len(rows)} rows")
        except Exception as exc:  # the prober outlives a failing op to count it
            cycle.failed += 1
            if len(cycle.errors) < MAX_ERRORS:
                cycle.errors.append(f"prober: {exc!r}")
    cycle.prober_seconds = perf_counter() - started


def run_cycle(
    dataset: SyntheticDataset, path: str, recorder: Optional[SpanRecorder] = None
) -> Cycle:
    """One full lifecycle in the fresh directory ``path``."""

    cycle = Cycle(instances=dataset.total_instances())
    samples = cycle.samples
    span = span_or_nothing(recorder)
    fs = CountingFilesystem()
    fs.recorder = recorder
    ledger = AckLedger()
    s_ids = list(dataset.s_ids)
    payload = user_bytes(dataset)
    cycle_started = perf_counter()
    root = recorder.begin(HARNESS, "cycle") if recorder is not None else -1

    def timed(kind: str, layer: str, call: Any) -> Any:
        t0 = perf_counter_ns()
        with span(layer, kind):
            out = call()
        samples[kind].append(perf_counter_ns() - t0)
        return out

    def commits(system: Any, first_key: int) -> None:
        for i in range(COMMITS):
            if i % 2:
                key, value = s_ids[i % len(s_ids)], first_key + i
                timed("commit", "mapping", lambda: system.update("S", key, {"s_x": value}))
            else:
                key, value = first_key + i, i
                row = {"s_id": key, "s_x": value, "s_y": "c"}
                timed("commit", "mapping", lambda: system.insert("S", row))
            ledger.ack(key, value)  # the call returned: the commit is acknowledged

    # load -> checkpoints -> commits, one client: every count repeats exactly
    t0 = perf_counter_ns()
    with span("mapping", "load"):
        system, cycle.load_seconds = build_system("M1", dataset, path=path, fs=fs)
    samples["load"].append(perf_counter_ns() - t0)
    wal_after_load = fs.total("write_bytes", "wal-")
    for index in range(CHECKPOINTS):
        timed("checkpoint", "durability", system.checkpoint)
        if index == 0:
            cycle.disk_bytes_per_user_byte = disk_bytes(path) / payload
    commits(system, 2_000_000)
    wal_after_commits = fs.total("write_bytes", "wal-")
    cycle.wal_bytes_per_user_byte = wal_after_load / payload
    cycle.wal_bytes_per_commit = (wal_after_commits - wal_after_load) / COMMITS
    cycle.fs_counters = fs.counters()

    # online migration beside a foreground prober
    stop = threading.Event()
    prober = threading.Thread(
        target=_prober, args=(system, s_ids, ledger, stop, cycle, recorder, 3_000_000)
    )
    prober.start()
    try:
        report = timed(
            "migrate", "evolution",
            lambda: system.migrate_online(new_spec=synthetic_mappings(system.schema)["M6"]),
        )  # fmt: skip
    finally:
        stop.set()
        prober.join(60.0)
    if prober.is_alive():
        raise RuntimeError("the migration prober did not stop")
    cycle.migration = {
        "backfill_batches": report.backfill_batches,
        "changelog_applied": report.changelog_applied,
        "instances": report.entities_backfilled + report.relationships_backfilled,
    }
    commits(system, 4_000_000)
    expected_count = system.count("S")

    # crash: lose the process, then lose everything the disk never confirmed
    system.durability.abandon()
    fs.crash(path)
    recovered = timed(
        "recover", "durability",
        lambda: ErbiumDB.open(path, fsync="commit", fs=fs, probe_interval=None),
    )  # fmt: skip

    # the durability check: every acknowledged commit, read back one by one
    cycle.acked_commits_lost = ledger.lost(
        lambda key: timed("verify_read", "mapping", lambda: recovered.get("S", key))
    )
    if recovered.count("S") != expected_count:
        cycle.errors.append(
            f"count(S) after recovery is {recovered.count('S')}, was {expected_count}"
        )
        cycle.failed += 1
    if recovered.active_mapping().name != system.active_mapping().name:
        cycle.errors.append("recovered system is not on the migrated mapping")
        cycle.failed += 1
    cycle.failed += cycle.acked_commits_lost
    recovered.close(checkpoint=False)
    if root >= 0:
        recorder.end(root)
    cycle.elapsed_s = perf_counter() - cycle_started
    return cycle


class LifecycleDurable(Workload):
    name = "lifecycle_durable"
    kinds = KINDS
    read_kinds = READ_KINDS
    op_kinds = OP_KINDS
    scale = 600
    smoke_scale = 60

    def setup(self) -> SetupResult:
        self.dataset = make_dataset(self.size, self.seed)
        self.cycles: List[Cycle] = []
        # the cold cycle: every code path of the lifecycle once
        cold = run_cycle(self.dataset, self.scratch.fresh("lifecycle"))
        return SetupResult(cold.instances, cold.load_seconds)

    def warm_up(self, seconds: float) -> None:
        pass  # set-up already ran one whole cycle

    def run_box(self, seconds: float, recorder: Optional[SpanRecorder] = None) -> Box:
        box = Box(slices=[], attempted=0, failed=0, elapsed_s=0.0)
        started = perf_counter()
        while True:
            cycle = run_cycle(self.dataset, self.scratch.fresh("lifecycle"), recorder)
            self.cycles.append(cycle)
            # the user work of one cycle is fixed: instances loaded, commits
            # acknowledged, acknowledged commits read back
            work = cycle.instances + 2 * COMMITS + len(cycle.samples["verify_read"])
            box.slices.append(Slice(cycle.samples, float(work), cycle.elapsed_s))
            box.attempted += sum(len(values) for values in cycle.samples.values())
            box.failed += cycle.failed
            box.errors.extend(cycle.errors[:2])
            box.thread_seconds += cycle.elapsed_s + cycle.prober_seconds
            box.elapsed_s = perf_counter() - started
            if box.elapsed_s >= seconds:
                return box

    def verify(self) -> Tuple[int, List[str]]:
        # each cycle verified itself (acknowledged commits, count, mapping);
        # here: the exact counts must be the same in every cycle
        failures: List[str] = []
        first = self.cycles[0]
        for cycle in self.cycles[1:]:
            if cycle.fs_counters["fs_write_bytes"] != first.fs_counters["fs_write_bytes"]:
                failures.append("fs_write_bytes differs between cycles of one seed")
            if cycle.disk_bytes_per_user_byte != first.disk_bytes_per_user_byte:
                failures.append("disk_bytes_per_user_byte differs between cycles of one seed")
        return 2 * max(len(self.cycles) - 1, 1), failures

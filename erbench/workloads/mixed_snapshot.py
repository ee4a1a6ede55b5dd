"""``mixed_snapshot``: writes beside reads under real concurrency.

In-memory M1.  Two threads for the whole box: a ``Session(isolation=
"snapshot")`` reader (prepared point read on S; every 50th op an aggregate
over S1; 2 ms of think time between requests) and an autocommit writer
(``update S`` / ``insert S1``, 50/50, no think time).
Snapshot retention and publication, per-version columnar rebuilds and GIL
hand-off do the work; compile and disk do none.
"""

from __future__ import annotations

import random
import threading
from time import perf_counter_ns, sleep
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..data import build_system, make_dataset
from ..decompose import QueryTracer
from ..spans import SpanRecorder
from .base import Box, SetupResult, Workload, closed_loop, spanned
from .oltp_point import PREPARED_TEXT

AGGREGATE_TEXT = "select s1_y, count(*) as n, sum(s1_x) as total from S1 group by s1_y"
AGGREGATE_EVERY = 50
#: the reader thinks between requests.  A reader that spins instead fights the
#: writer for the interpreter lock, and how the two split it differs from run
#: to run by a factor of two; a client that waits does not have that problem
#: and is the commoner client.
READER_THINK_S = 0.002
READER_KINDS = ("snap_point", "snap_aggregate")
WRITER_KINDS = ("update_S", "insert_S1")
#: how long past the box a loop thread may take to finish its last op
JOIN_GRACE_S = 60.0


class MixedSnapshot(Workload):
    name = "mixed_snapshot"
    kinds = READER_KINDS + WRITER_KINDS
    read_kinds = frozenset(READER_KINDS)
    scale = 4000
    smoke_scale = 200

    def setup(self) -> SetupResult:
        dataset = make_dataset(self.size, self.seed)
        self.system, load_seconds = build_system("M1", dataset)
        self.s_ids = list(dataset.s_ids)
        self.s1_before = self.system.count("S1")
        self.reader = self.system.session(isolation="snapshot")
        self.point = self.reader.prepare(PREPARED_TEXT)
        self.aggregate = self.reader.prepare(AGGREGATE_TEXT)
        self.reader_rng = random.Random(self.seed)
        self.writer_rng = random.Random(self.seed + 1)
        self.reads = 0
        self.writes = 0
        self.next_s1 = 1_000_000
        self.last_s_x: Dict[int, int] = {}
        # the cold pass: each kind once
        self._read_point(self.s_ids[0])
        self._read_aggregate(None)
        self._update(self._next_write()[1])
        self._insert(self._next_write()[1])
        return SetupResult(dataset.total_instances(), load_seconds)

    # -- the seeded sequences (one per thread) -----------------------------------------

    def _next_read(self) -> Tuple[int, Any]:
        sleep(READER_THINK_S)
        self.reads += 1
        if self.reads % AGGREGATE_EVERY == 0:
            return 1, None
        return 0, self.reader_rng.choice(self.s_ids)

    def _next_write(self) -> Tuple[int, Any]:
        self.writes += 1
        rng = self.writer_rng
        owner = rng.choice(self.s_ids)
        if self.writes % 2:
            value = rng.randint(0, 1000)
            self.last_s_x[owner] = value
            return 0, (owner, value)
        self.next_s1 += 1
        return 1, {"s_id": owner, "s1_id": self.next_s1, "s1_x": rng.randint(0, 1000), "s1_y": "w"}

    # -- the ops ----------------------------------------------------------------------

    def _read_point(self, key: int) -> bool:
        return len(self.point.execute(k=key).fetchall()) == 1

    def _read_aggregate(self, _payload: None) -> bool:
        return len(self.aggregate.execute().fetchall()) > 0

    def _update(self, payload: Tuple[int, int]) -> bool:
        key, value = payload
        self.system.update("S", key, {"s_x": value})
        return True

    def _insert(self, row: Dict[str, Any]) -> bool:
        self.system.insert("S1", row)
        return True

    def run_box(self, seconds: float, recorder: Optional[SpanRecorder] = None) -> Box:
        read_handlers: List[Callable[[Any], Any]] = [self._read_point, self._read_aggregate]
        write_handlers: List[Callable[[Any], Any]] = [self._update, self._insert]
        if recorder is not None:
            tracer = self.tracer = QueryTracer(recorder)
            system, reader = self.system, self.reader

            def traced_point(key: int) -> bool:
                plan = tracer.cached_plan(system, PREPARED_TEXT)
                return len(tracer.execute(system, plan, {"k": key}, session=reader)) == 1

            def traced_aggregate(_payload: None) -> bool:
                plan = tracer.cached_plan(system, AGGREGATE_TEXT)
                return len(tracer.execute(system, plan, session=reader)) > 0

            read_handlers = [traced_point, traced_aggregate]
            write_handlers = [
                spanned(recorder, "mapping", "update", self._update),
                spanned(recorder, "mapping", "insert", self._insert),
            ]

        boxes: Dict[str, Box] = {}
        start_ns = perf_counter_ns()  # one clock, so both loops slice alike

        def loop(role: str, next_op: Any, handlers: Any, kinds: Any) -> None:
            boxes[role] = closed_loop(next_op, handlers, kinds, seconds, recorder, start_ns)

        threads = [
            threading.Thread(target=loop, args=("reader", self._next_read, read_handlers, READER_KINDS)),
            threading.Thread(target=loop, args=("writer", self._next_write, write_handlers, WRITER_KINDS)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + JOIN_GRACE_S)
        if any(thread.is_alive() for thread in threads) or len(boxes) != 2:
            raise RuntimeError("a mixed_snapshot loop thread did not finish its box")
        return boxes["reader"].merge(boxes["writer"])

    def verify(self) -> Tuple[int, List[str]]:
        failures: List[str] = []
        system = self.system
        inserted = self.writes // 2
        count = system.count("S1")
        if count != self.s1_before + inserted:
            failures.append(f"count(S1) is {count}, expected {self.s1_before + inserted}")
        checks = 1
        keys = sorted(self.last_s_x)
        for key in random.Random(self.seed + 2).sample(keys, min(60, len(keys))):
            checks += 1
            row = system.get("S", key)
            if row is None or row.get("s_x") != self.last_s_x[key]:
                failures.append(f"S[{key}] reads {row}, last written s_x={self.last_s_x[key]}")
        # registry hygiene: with the reader's views released nothing is retained
        self.reader.close()
        checks += 1
        retained = system.db.snapshots.retained()
        if retained:
            failures.append(f"{len(retained)} snapshots still retained after the reader closed")
        return checks, failures

    def teardown(self) -> None:
        self.reader.close()

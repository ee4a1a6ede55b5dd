"""``oltp_point``: a durable point read/write mix under live isolation.

One durable system (``ErbiumDB.open``, ``fsync="commit"``, mapping M1) and
one client.  Only live isolation is used, so MVCC never activates.  Session
and plan cache, ERQL compile, mapping CRUD, constraints/indexes and WAL
append + fsync dominate; the batch kernels are idle.  Two text working sets:
``cached_text`` (8 texts) fits the 128-entry plan cache, ``adhoc_point``
(a fresh literal every call) does not.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..data import build_system, make_dataset
from ..decompose import QueryTracer
from ..fsprobe import CountingFilesystem
from ..ops import Ledger, Mix, one_of_each, op_sequence
from ..spans import SpanRecorder
from .base import Box, SetupResult, Workload, closed_loop, spanned, system_counters

PREPARED_TEXT = "select s_x, s_y from S where s_id = $k"
#: eight spellings of a point read: a working set that fits the plan cache
CACHED_TEXTS = (
    "select s_x from S where s_id = $k",
    "select s_y from S where s_id = $k",
    "select s_id, s_x from S where s_id = $k",
    "select s_id, s_y from S where s_id = $k",
    "select s_y, s_x from S where s_id = $k",
    "select s_id, s_x, s_y from S where s_id = $k",
    "select s_x as x from S where s_id = $k",
    "select s_y as y from S where s_id = $k",
)
#: values of s_x are >= 0, so the second predicate is always true; ``{n}``
#: grows with every call, which makes every text new to the plan cache
ADHOC_TEMPLATE = "select s_x, s_y from S where s_id = {key} and s_x > -{n}"

#: shares by count: reads 85 % (50/10/12/12/1), writes 15 % (5/5/2/2/1)
MIX: Mix = (
    ("prepared_point", 50, Ledger.live_key),
    ("cached_text", 10, lambda led: (led.rng.randrange(len(CACHED_TEXTS)), led.live_key())),
    ("adhoc_point", 12, Ledger.live_key),
    ("get_S", 12, Ledger.live_key),
    ("get_R", 1, lambda led: led.rng.choice(led.r_ids)),
    ("insert_S", 5, Ledger.fresh_row),
    ("update_S", 5, Ledger.update),
    ("link_unlink", 2, Ledger.relink),
    ("txn", 2, lambda led: ([led.fresh_row() for _ in range(3)], led.update())),
    ("delete_S", 1, Ledger.drop_extra),
)
FALLBACK = {"delete_S": "insert_S"}
READ_KINDS = frozenset(kind for kind, _share, _draw in MIX[:5])


def ledger_failures(system: Any, ledger: Ledger, rng: random.Random, sample: int = 60) -> Tuple[int, List[str]]:
    """Compare the system's final state with the generator's ledger:
    the entity count, a sample of last-written values, a sample of links."""

    failures: List[str] = []
    checks = 1
    count = system.count("S")
    if count != ledger.count_s():
        failures.append(f"count(S) is {count}, the ledger says {ledger.count_s()}")
    written = sorted(ledger.s_x)
    for key in rng.sample(written, min(sample, len(written))):
        checks += 1
        row = system.get("S", key)
        if row is None or row.get("s_x") != ledger.s_x[key]:
            failures.append(f"S[{key}] reads {row}, last written s_x={ledger.s_x[key]}")
    for r_id in rng.sample(ledger.r_ids, min(sample, len(ledger.r_ids))):
        checks += 1
        linked = system.related("r_s", "R", r_id)
        if linked != [(ledger.r_to_s[r_id],)]:
            failures.append(f"r_s of R[{r_id}] is {linked}, ledger says {ledger.r_to_s[r_id]}")
    return checks, failures


class OltpPoint(Workload):
    name = "oltp_point"
    kinds = tuple(kind for kind, _share, _draw in MIX)
    read_kinds = READ_KINDS
    scale = 1000
    smoke_scale = 100

    def setup(self) -> SetupResult:
        dataset = make_dataset(self.size, self.seed)
        self.fs = CountingFilesystem()
        self.system, load_seconds = build_system(
            "M1", dataset, path=self.scratch.fresh("oltp"), fs=self.fs
        )
        self.ledger = Ledger(dataset, random.Random(self.seed))
        self.sequence = op_sequence(MIX, self.ledger, FALLBACK)
        self.stmt = self.system.prepare(PREPARED_TEXT)
        self.adhoc_calls = 0
        self.handlers = self._handlers()
        for kind, payload in one_of_each(MIX, self.ledger):  # the cold pass
            self.handlers[kind](payload)
        return SetupResult(dataset.total_instances(), load_seconds)

    # -- the ops, as a client would issue them -----------------------------------

    def _adhoc_text(self, key: int) -> str:
        self.adhoc_calls += 1
        return ADHOC_TEMPLATE.format(key=key, n=self.adhoc_calls)

    def _handlers(self) -> List[Callable[[Any], Any]]:
        system, stmt = self.system, self.stmt

        def prepared_point(key: int) -> bool:
            return len(stmt.execute(k=key).fetchall()) == 1

        def cached_text(payload: Tuple[int, int]) -> bool:
            text, key = payload
            return len(system.query(CACHED_TEXTS[text], params={"k": key}).rows) == 1

        def adhoc_point(key: int) -> bool:
            return len(system.query(self._adhoc_text(key)).rows) == 1

        def get_s(key: int) -> bool:
            return system.get("S", key) is not None

        def get_r(key: int) -> bool:
            return system.get("R", key) is not None

        def insert_s(row: Dict[str, Any]) -> bool:
            system.insert("S", row)
            return True

        def update_s(payload: Tuple[int, int]) -> bool:
            key, value = payload
            system.update("S", key, {"s_x": value})
            return True

        def link_unlink(payload: Tuple[int, int, int]) -> bool:
            r_id, old, new = payload
            removed = system.unlink("r_s", {"R": r_id, "S": old})
            system.link("r_s", {"R": r_id, "S": new})
            return removed == 1

        def txn(payload: Tuple[List[Dict[str, Any]], Tuple[int, int]]) -> bool:
            rows, (key, value) = payload
            with system.session() as session:
                for row in rows:
                    session.insert("S", row)
                session.update("S", key, {"s_x": value})
            return True

        def delete_s(key: int) -> bool:
            return system.delete("S", key) >= 1

        return [prepared_point, cached_text, adhoc_point, get_s, get_r,
                insert_s, update_s, link_unlink, txn, delete_s]  # fmt: skip

    # -- the same ops, layer by layer ---------------------------------------------

    def _traced_handlers(self, tracer: QueryTracer) -> List[Callable[[Any], Any]]:
        system = self.system
        recorder = tracer.recorder
        span = recorder.span
        plain = dict(zip(self.kinds, self.handlers))

        def prepared_point(key: int) -> bool:
            plan = tracer.cached_plan(system, PREPARED_TEXT)
            return len(tracer.execute(system, plan, {"k": key})) == 1

        def cached_text(payload: Tuple[int, int]) -> bool:
            text, key = payload
            plan = tracer.cached_plan(system, CACHED_TEXTS[text])
            return len(tracer.execute(system, plan, {"k": key})) == 1

        def adhoc_point(key: int) -> bool:
            plan = tracer.compile(system, self._adhoc_text(key))
            return len(tracer.execute(system, plan)) == 1

        def txn(payload: Tuple[List[Dict[str, Any]], Tuple[int, int]]) -> bool:
            rows, (key, value) = payload
            session = system.session()
            with span("session", "begin"):
                session.begin()
            try:
                for row in rows:
                    with span("mapping", "insert"):
                        session.insert("S", row)
                with span("mapping", "update"):
                    session.update("S", key, {"s_x": value})
                with span("session", "commit"):
                    session.commit()
            except BaseException:
                if session.in_transaction():
                    session.rollback()
                raise
            return True

        return [
            prepared_point,
            cached_text,
            adhoc_point,
            spanned(recorder, "mapping", "get", plain["get_S"]),
            spanned(recorder, "mapping", "get", plain["get_R"]),
            spanned(recorder, "mapping", "insert", plain["insert_S"]),
            spanned(recorder, "mapping", "update", plain["update_S"]),
            spanned(recorder, "mapping", "link_unlink", plain["link_unlink"]),
            txn,
            spanned(recorder, "mapping", "delete", plain["delete_S"]),
        ]

    # -- the loop and the verdict -----------------------------------------------------

    def run_box(self, seconds: float, recorder: Optional[SpanRecorder] = None) -> Box:
        handlers = self.handlers
        if recorder is not None:
            self.tracer = QueryTracer(recorder)
            handlers = self._traced_handlers(self.tracer)
        self.fs.recorder = recorder
        try:
            return closed_loop(
                self.sequence.__next__, handlers, self.kinds, seconds, recorder
            )
        finally:
            self.fs.recorder = None

    def program_counters(self) -> Dict[str, float]:
        return system_counters(self.system)

    def verify(self) -> Tuple[int, List[str]]:
        return ledger_failures(self.system, self.ledger, random.Random(self.seed + 1))

    def teardown(self) -> None:
        self.system.close(checkpoint=False)

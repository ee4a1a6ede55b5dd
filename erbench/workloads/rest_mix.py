"""``rest_mix``: the outermost surface a client sees.

``ApiService`` over an in-memory M2 system, one thread.  REST reads run
under snapshot views, so this is the write path of ``oltp_point`` used
differently: MVCC is active and every write is followed by reads that need
a new snapshot.  Single-threaded, so its counts repeat exactly.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import ApiService

from ..data import build_system, make_dataset
from ..ops import Ledger, Mix, one_of_each, op_sequence
from ..spans import SpanRecorder
from .base import Box, SetupResult, Workload, closed_loop, system_counters
from .oltp_point import PREPARED_TEXT, ledger_failures

PAGE = 50

#: shares by count: reads 90 % (40/25/5/10/10), writes 10 % (4/4/1/1)
MIX: Mix = (
    ("query", 40, Ledger.live_key),
    ("get_S", 25, Ledger.live_key),
    ("get_R", 5, lambda led: led.rng.choice(led.r_ids)),
    ("list_page", 10, lambda led: None),
    ("related", 10, lambda led: led.rng.choice(led.base)),
    ("post", 4, Ledger.fresh_row),
    ("patch", 4, Ledger.update),
    ("batch", 1, lambda led: ([led.fresh_row(), led.fresh_row()], led.update())),
    ("delete", 1, Ledger.drop_extra),
)
FALLBACK = {"delete": "post"}

#: call(method, path, body) -> (status, decoded-for-the-client body)
Call = Callable[[str, str, Optional[Dict[str, Any]]], Tuple[int, Any]]


class RestMix(Workload):
    name = "rest_mix"
    kinds = tuple(kind for kind, _share, _draw in MIX)
    read_kinds = frozenset(kind for kind, _share, _draw in MIX[:5])
    scale = 1000
    smoke_scale = 100

    def setup(self) -> SetupResult:
        dataset = make_dataset(self.size, self.seed)
        self.system, load_seconds = build_system("M2", dataset)
        self.service = ApiService(self.system)
        self.ledger = Ledger(dataset, random.Random(self.seed))
        self.sequence = op_sequence(MIX, self.ledger, FALLBACK)
        self.cursor: Optional[str] = None
        self.handlers = self._handlers(self._call)
        for kind, payload in one_of_each(MIX, self.ledger):  # the cold pass
            self.handlers[kind](payload)
        return SetupResult(dataset.total_instances(), load_seconds)

    def _call(self, method: str, path: str, body: Optional[Dict[str, Any]]) -> Tuple[int, Any]:
        response = self.service.request(method, path, body)
        response.json()  # the bytes a socket tier would send: part of the op
        return response.status, response.body

    def _handlers(self, call: Call) -> List[Callable[[Any], Any]]:
        def query(key: int) -> bool:
            status, body = call("POST", "/query", {"query": PREPARED_TEXT, "params": {"k": key}})
            return status == 200 and body["count"] == 1

        def get_s(key: int) -> bool:
            return call("GET", f"/entities/S/{key}", None)[0] == 200

        def get_r(key: int) -> bool:
            return call("GET", f"/entities/R/{key}", None)[0] == 200

        def list_page(_payload: None) -> bool:
            path = f"/entities/S?limit={PAGE}"
            if self.cursor is not None:
                path += f"&cursor={self.cursor}"
            status, body = call("GET", path, None)
            if status != 200:
                return False
            self.cursor = body["next_cursor"]  # None at the end: walk again
            return 0 < len(body["items"]) <= PAGE

        def related(key: int) -> bool:
            return call("GET", f"/entities/S/{key}/related/r_s", None)[0] == 200

        def post(row: Dict[str, Any]) -> bool:
            return call("POST", "/entities/S", row)[0] == 201

        def patch(payload: Tuple[int, int]) -> bool:
            key, value = payload
            return call("PATCH", f"/entities/S/{key}", {"s_x": value})[0] == 200

        def batch(payload: Tuple[List[Dict[str, Any]], Tuple[int, int]]) -> bool:
            rows, (key, value) = payload
            operations = [{"op": "insert", "entity": "S", "values": row} for row in rows]
            operations.append({"op": "update", "entity": "S", "key": [key], "changes": {"s_x": value}})
            status, body = call("POST", "/batch", {"operations": operations})
            return status == 200 and body["operations"] == 3

        def delete(key: int) -> bool:
            return call("DELETE", f"/entities/S/{key}", None)[0] == 200

        return [query, get_s, get_r, list_page, related, post, patch, batch, delete]

    def run_box(self, seconds: float, recorder: Optional[SpanRecorder] = None) -> Box:
        handlers = self.handlers
        if recorder is not None:
            # the request is opaque from outside: one span for the service,
            # one for encoding the response
            def traced_call(method: str, path: str, body: Optional[Dict[str, Any]]) -> Tuple[int, Any]:
                with recorder.span("api", "request"):
                    response = self.service.request(method, path, body)
                with recorder.span("api", "json_encode"):
                    response.json()
                return response.status, response.body

            handlers = self._handlers(traced_call)
        return closed_loop(self.sequence.__next__, handlers, self.kinds, seconds, recorder)

    def program_counters(self) -> Dict[str, float]:
        return system_counters(self.system)

    def verify(self) -> Tuple[int, List[str]]:
        return ledger_failures(self.system, self.ledger, random.Random(self.seed + 1))

    def teardown(self) -> None:
        self.service.close()

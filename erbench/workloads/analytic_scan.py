"""``analytic_scan``: the paper's mapping-sensitivity result, results consumed.

Six in-memory systems M1-M6 over one generated Figure 4 dataset.  One pass
runs the 31 frozen (query, mapping) pairs of :mod:`erbench.queries`; every
plan is cached after the first pass and every result is materialized inside
the timed region.  Scan/join/aggregate kernels and row materialization do
nearly all the work; compile, WAL and MVCC do none.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..catalog import MAPPING_LABELS
from ..data import (
    build_system,
    dataset_fingerprint,
    load_expected,
    make_dataset,
    result_fingerprint,
)
from ..decompose import QueryTracer
from ..queries import E7A_KEYS, pairs
from ..spans import SpanRecorder
from .base import Box, SetupResult, Workload, closed_loop, system_counters


def _e4(system: Any) -> Any:
    plan = system.access_paths().multivalued_intersection("R", "r", "r_mv1", "r_mv2")
    return system.db.execute(plan).rows


def _e7a(system: Any) -> Any:
    return system.crud.get_documents("S", E7A_KEYS, include_weak=True)


def _consumed(answer: Callable[[], Any]) -> Callable[[Any], bool]:
    return lambda _payload: answer() is not None


def _without_owner_keys(documents: Any) -> List[Dict[str, Any]]:
    """E7a's documents with the owner's attributes dropped from the nested
    weak entities.  ``get_documents`` repeats the owner key inside each child
    under M1 and leaves it implied by the nesting under M5; the information is
    the same, so the fingerprint is taken over the common form."""

    out = []
    for document in documents:
        out.append(
            {
                name: [{k: v for k, v in child.items() if k not in document} for child in value]
                if isinstance(value, list)
                else value
                for name, value in document.items()
            }
        )
    return out


#: query id -> the form of its answer that must not depend on the mapping
CANONICAL: Dict[str, Callable[[Any], Any]] = {"E7a": _without_owner_keys}


class AnalyticScan(Workload):
    name = "analytic_scan"
    scale = 1000
    smoke_scale = 150  # E3 looks up r_id 137

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.pairs = pairs()
        self.kinds = tuple(f"{query.id}@{mapping}" for query, mapping in self.pairs)
        self.read_kinds = frozenset(self.kinds)
        self.systems: Dict[str, Any] = {}
        self.fingerprints: Dict[str, Tuple[int, str]] = {}
        self._cursor = 0

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> SetupResult:
        self.dataset = make_dataset(self.size, self.seed)
        load_seconds = 0.0
        for label in MAPPING_LABELS:
            self.systems[label], seconds = build_system(label, self.dataset)
            load_seconds += seconds
        self.answers = [self._answer(query, mapping) for query, mapping in self.pairs]
        # an op is right when it produced an answer; whether it is the right
        # answer is what the fingerprints (cold pass, verify) decide
        self.handlers = [_consumed(answer) for answer in self.answers]
        # the cold pass: compiles every plan, builds every columnar snapshot
        for kind, answer in zip(self.kinds, self.answers):
            self.fingerprints[kind] = self._fingerprint(kind, answer)
        return SetupResult(
            instances=self.dataset.total_instances() * len(MAPPING_LABELS),
            load_seconds=load_seconds,
        )

    @staticmethod
    def _fingerprint(kind: str, answer: Callable[[], Any]) -> Tuple[int, str]:
        canonical = CANONICAL.get(kind.partition("@")[0], lambda rows: rows)
        return result_fingerprint(canonical(answer()))

    def _answer(self, query: Any, mapping: str) -> Callable[[], Any]:
        system = self.systems[mapping]
        if query.id == "E4":
            return lambda: _e4(system)
        if query.id == "E7a":
            return lambda: _e7a(system)
        text = query.text
        return lambda: system.query(text).rows

    def _traced_handler(self, tracer: QueryTracer, query: Any, mapping: str) -> Callable[[Any], Any]:
        system = self.systems[mapping]
        span = tracer.recorder.span
        if query.id == "E4":

            def e4(_payload: Any) -> bool:
                with span("mapping", "access_path"):
                    plan = system.access_paths().multivalued_intersection(
                        "R", "r", "r_mv1", "r_mv2"
                    )
                return tracer.execute(system, plan) is not None

            return e4
        if query.id == "E7a":

            def e7a(_payload: Any) -> bool:
                with span("mapping", "get_documents"):
                    return _e7a(system) is not None

            return e7a
        text = query.text
        return lambda _payload: (
            tracer.execute(system, tracer.cached_plan(system, text)) is not None
        )

    # -- the loop --------------------------------------------------------------

    def _next_op(self) -> Tuple[int, Any]:
        kind = self._cursor
        self._cursor = (kind + 1) % len(self.kinds)
        return kind, None

    def run_box(self, seconds: float, recorder: Optional[SpanRecorder] = None) -> Box:
        handlers = self.handlers
        if recorder is not None:
            self.tracer = QueryTracer(recorder)
            handlers = [self._traced_handler(self.tracer, q, m) for q, m in self.pairs]
        return closed_loop(self._next_op, handlers, self.kinds, seconds, recorder)

    def program_counters(self) -> Dict[str, float]:
        return system_counters(*self.systems.values())

    # -- the verdict -----------------------------------------------------------

    def verify(self) -> Tuple[int, List[str]]:
        failures: List[str] = []
        checks = 0
        # the program's answers must not depend on the mapping...
        by_query: Dict[str, Dict[str, Tuple[int, str]]] = {}
        for (query, mapping), kind, answer in zip(self.pairs, self.kinds, self.answers):
            fingerprint = self._fingerprint(kind, answer)
            by_query.setdefault(query.id, {})[mapping] = fingerprint
            checks += 1
            if fingerprint != self.fingerprints[kind]:
                failures.append(f"{kind}: answer changed during the run")
        for query_id, answers in by_query.items():
            checks += 1
            if len(set(answers.values())) != 1:
                failures.append(f"{query_id}: answers differ across mappings {answers}")
        # ...and for the default seed they must be the committed ones
        expected = load_expected().get(self.name, {})
        if self.seed == expected.get("seed") and self.size == expected.get("scale"):
            checks += 1
            if dataset_fingerprint(self.dataset) != expected["dataset"]:
                failures.append("generated dataset drifted from erbench/expected")
            for query_id, answers in by_query.items():
                checks += 1
                if list(next(iter(answers.values()))) != expected["queries"].get(query_id):
                    failures.append(f"{query_id}: answer differs from erbench/expected")
        return checks, failures

    def expected_document(self) -> Dict[str, Any]:
        """What ``erbench/expected/seed-11.json`` records for this workload."""

        return {
            "seed": self.seed,
            "scale": self.size,
            "dataset": dataset_fingerprint(self.dataset),
            "queries": {
                query.id: list(self.fingerprints[f"{query.id}@{query.mappings[0]}"])
                for query, _mapping in self.pairs
            },
        }

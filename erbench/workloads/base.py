"""What the five workloads share: the closed loop, the box, the protocol."""

from __future__ import annotations

import os
import shutil
import traceback
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import OUT_DIR
from ..spans import SpanRecorder

#: layer name of the benchmark's own loop in the latency budget
HARNESS = "harness"
#: error messages kept per box (the count is always exact)
MAX_ERRORS = 5


@dataclass
class Slice:
    """One time slice of a box (one cycle, for ``lifecycle_durable``)."""

    #: op kind -> latency samples in ns, consumed results included
    samples: Dict[str, List[int]]
    #: numerator of ``ops_per_s``: the ops completed in the slice, unless a
    #: workload defines a fixed amount of user work per cycle
    work: float
    seconds: float


@dataclass
class Box:
    """Everything one measured (or traced) box observed.

    The box is kept as time slices because this sandbox stalls in bursts of
    about a second: every end-to-end statistic is taken per slice and the
    median slice is reported, so a burst moves a slice, not the metric.
    """

    slices: List[Slice]
    attempted: int
    failed: int
    elapsed_s: float
    errors: List[str] = field(default_factory=list)
    #: wall seconds summed over the loop threads (denominator of budget closure)
    thread_seconds: float = 0.0

    @property
    def work(self) -> float:
        return sum(piece.work for piece in self.slices)

    @property
    def samples(self) -> Dict[str, List[int]]:
        merged: Dict[str, List[int]] = {}
        for piece in self.slices:
            for kind, values in piece.samples.items():
                merged.setdefault(kind, []).extend(values)
        return merged

    def merge(self, other: "Box") -> "Box":
        """Fold in the box of a second loop thread that shared this one's
        clock: slice ``i`` of both covers the same interval."""

        for mine, theirs in zip(self.slices, other.slices):
            for kind, values in theirs.samples.items():
                mine.samples.setdefault(kind, []).extend(values)
            mine.work += theirs.work
        del self.slices[len(other.slices) :]
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:MAX_ERRORS]
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)
        self.thread_seconds += other.thread_seconds
        return self


@dataclass
class SetupResult:
    #: instances that went through ``ErbiumDB.load`` and the seconds inside it
    instances: int
    load_seconds: float


#: slices per box
SLICES = 10


def closed_loop(
    next_op: Callable[[], Tuple[int, Any]],
    handlers: Sequence[Callable[[Any], Any]],
    kinds: Sequence[str],
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
    start_ns: Optional[int] = None,
) -> Box:
    """One client, next request only after the previous one completed.

    ``next_op()`` yields ``(kind index, payload)`` from the seeded sequence;
    ``handlers[kind](payload)`` runs the op, consumes its result and returns
    whether the answer was right.  An op that raises or returns a falsy
    value is a failed op.  With a ``recorder`` every op runs under a root
    span (and the handlers passed in are the traced ones).  ``start_ns``
    lets several loop threads share one clock (and so one slicing).
    """

    op_kinds: List[int] = []
    latencies: List[int] = []
    marks: List[int] = []  # ops completed when each slice ended
    failed = 0
    errors: List[str] = []
    now = perf_counter_ns
    start = now() if start_ns is None else start_ns
    slice_ns = int(seconds * 1e9) // SLICES
    slice_end = start + slice_ns
    deadline = start + slice_ns * SLICES
    while True:
        if recorder is None:
            kind, payload = next_op()
            root = -1
        else:
            draw = recorder.begin(HARNESS, "next_op")
            kind, payload = next_op()
            recorder.end(draw)
            root = recorder.begin(HARNESS, kinds[kind])
        problem = "wrong answer"
        t0 = now()
        try:
            ok = handlers[kind](payload)
        except Exception:  # the loop must survive a failing op to count it
            ok = False
            problem = traceback.format_exc(limit=4)
        t1 = now()
        if root >= 0:
            recorder.end(root)
        op_kinds.append(kind)
        latencies.append(t1 - t0)
        if not ok:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"{kinds[kind]} {payload!r}: {problem}")
        while t1 >= slice_end:
            marks.append(len(latencies))
            slice_end += slice_ns
        if t1 >= deadline:
            break
    elapsed = (now() - start) / 1e9
    slices: List[Slice] = []
    first = 0
    for last in marks[:SLICES]:
        samples: Dict[str, List[int]] = {}
        for kind, latency in zip(op_kinds[first:last], latencies[first:last]):
            samples.setdefault(kinds[kind], []).append(latency)
        slices.append(Slice(samples, float(last - first), slice_ns / 1e9))
        first = last
    return Box(
        slices=slices,
        attempted=len(latencies),
        failed=failed,
        elapsed_s=elapsed,
        errors=errors,
        thread_seconds=elapsed,
    )


def spanned(
    recorder: SpanRecorder, layer: str, name: str, handler: Callable[[Any], Any]
) -> Callable[[Any], Any]:
    """``handler`` under one span: a CRUD call is one ``mapping`` span, and the
    WAL's write/flush/fsync show up inside it as spans of the benchmark's
    filesystem."""

    def traced(payload: Any) -> Any:
        with recorder.span(layer, name):
            return handler(payload)

    return traced


class Scratch:
    """Fresh directories under ``erbench/out`` for durable systems; removed
    on :meth:`cleanup` (the benchmark writes only inside its checkout)."""

    def __init__(self) -> None:
        self.root = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        self._count = 0

    def fresh(self, label: str) -> str:
        self._count += 1
        path = os.path.join(self.root, f"{label}-{self._count}")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class Workload:
    """One workload: seeded inputs, set-up, a closed loop, a verdict.

    Subclasses set ``name``, ``kinds`` (op kinds, in handler order),
    ``read_kinds``, optionally ``op_kinds``, and the scales, and implement :meth:`setup`,
    :meth:`run_box` and :meth:`verify`.
    """

    name = ""
    kinds: Tuple[str, ...] = ()
    read_kinds: FrozenSet[str] = frozenset()
    #: the population of ``op_ms_p50`` / ``op_ms_p95``; every kind unless the
    #: workload narrows it
    op_kinds: Optional[FrozenSet[str]] = None
    #: set by ``run_box`` of the workloads that decompose queries in the
    #: traced box (an ``erbench.decompose.QueryTracer``)
    tracer: Any = None
    #: synthetic scale (number of R entities); ``smoke_scale`` keeps the
    #: self-tests under their time limit
    scale = 1000
    smoke_scale = 100

    def __init__(self, seed: int, scratch: Scratch, smoke: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.smoke = smoke
        self.size = self.smoke_scale if smoke else self.scale

    @property
    def write_kinds(self) -> FrozenSet[str]:
        return (self.op_kinds or frozenset(self.kinds)) - self.read_kinds

    def setup(self) -> SetupResult:
        """Generate inputs, build and load the system(s), run the op mix
        once cold (plans compiled, columnar snapshots built)."""

        raise NotImplementedError

    def warm_up(self, seconds: float) -> None:
        self.run_box(seconds)

    def run_box(self, seconds: float, recorder: Optional[SpanRecorder] = None) -> Box:
        raise NotImplementedError

    def verify(self) -> Tuple[int, List[str]]:
        """Check the program's final state; returns (checks made, failures)."""

        raise NotImplementedError

    def program_counters(self) -> Dict[str, float]:
        """Cumulative counters of the program's own registry (plan cache, API);
        the traced run reports their deltas over its untraced box."""

        return {}

    def teardown(self) -> None:
        pass


def system_counters(*systems: Any) -> Dict[str, float]:
    """Plan-cache and API counters of the given systems' own registries."""

    out = {"cache_hits": 0.0, "plans": 0.0, "evictions": 0.0, "api_requests": 0.0, "api_shed": 0.0}
    for system in systems:
        snap = system.metrics.snapshot()
        out["cache_hits"] += snap["cache_hits"]
        out["plans"] += snap["plans"]
        out["evictions"] += snap["evictions"]
        registry = system.observability.registry
        out["api_requests"] += registry.counter("api.requests").value
        out["api_shed"] += registry.counter("api.shed").value
    return out

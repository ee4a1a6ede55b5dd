"""In-memory span recorder for the traced box, and its self-time arithmetic.

A span is ``[layer, name, start_ns, end_ns, parent, op]``: ``parent`` is the
index of the enclosing span on the same thread (``-1`` for a root) and
``op`` the index of the root span of the operation, so the spans of one
operation share an identifier.  Spans are recorded by benchmark code only —
around its calls into each layer, and inside :mod:`erbench.fsprobe` when the
program calls back into the benchmark's filesystem.  They stay in memory
until the box ends.
"""

from __future__ import annotations

import json
import threading
from contextlib import nullcontext
from time import perf_counter_ns
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence

LAYER, NAME, START, END, PARENT, OP = range(6)

#: Spans written to a trace file at most (the aggregate always sees all).
TRACE_FILE_LIMIT = 200_000


class _Scope:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> "_Scope":
        return self

    def __exit__(self, *exc) -> bool:
        self.recorder.end(self.index)
        return False


class SpanRecorder:
    """Records nested spans per thread; appends are atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, name: str) -> int:
        stack = self._stack()
        spans = self.spans
        parent = stack[-1] if stack else -1
        span = [layer, name, 0, 0, parent, -1]
        spans.append(span)
        # list.append returned, so the span sits at or before the current end;
        # concurrent appends only ever add behind it
        index = len(spans) - 1
        while spans[index] is not span:
            index -= 1
        span[OP] = spans[parent][OP] if parent >= 0 else index
        stack.append(index)
        span[START] = perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        now = perf_counter_ns()
        self.spans[index][END] = now
        stack = self._stack()
        # tolerate an unbalanced end (an exception skipped inner ends)
        while stack and stack.pop() != index:
            pass

    def span(self, layer: str, name: str) -> _Scope:
        """``with recorder.span("erql", "parse"): parse_query(text)``"""

        return _Scope(self, self.begin(layer, name))


def span_or_nothing(recorder: Optional[SpanRecorder]) -> Callable[[str, str], ContextManager[Any]]:
    """``recorder.span`` when tracing, a do-nothing scope otherwise — for code
    that runs the same calls in the untraced and the traced box."""

    if recorder is not None:
        return recorder.span
    return lambda _layer, _name: nullcontext()


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Per span: its duration minus the durations of its direct children."""

    out = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            out[parent] -= span[END] - span[START]
    return out


def layer_self_seconds(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time summed per layer, in seconds."""

    totals: Dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[LAYER]] = totals.get(span[LAYER], 0) + own
    return {layer: ns / 1e9 for layer, ns in totals.items()}


def name_seconds(spans: Sequence[Sequence], layer: str, name: str) -> float:
    """Total duration of the spans called ``name`` in ``layer``, in seconds."""

    return sum(s[END] - s[START] for s in spans if s[LAYER] == layer and s[NAME] == name) / 1e9


def write_trace(path: str, workload: str, spans: Sequence[Sequence]) -> None:
    kept = spans[:TRACE_FILE_LIMIT]
    document = {
        "workload": workload,
        "fields": ["layer", "name", "start_ns", "end_ns", "parent", "op"],
        "recorded": len(spans),
        "written": len(kept),
        "spans": kept,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))

"""Running workloads: one box under the driver's contract, or all five.

One workload run is one process: set-up (several times, for a steady
``setup_s``), an untimed warm-up of the same loop, ``gc.collect();
gc.freeze()``, then the measured box.  ``--trace 0`` measures the end-to-end
metrics with tracing off.  ``--trace 1`` measures the per-layer metrics: a
short untraced box, a traced box of the same loop (spans in memory, written
to ``erbench/out/trace_<workload>.json`` when it ends), then the layer pass.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Any, Dict, Iterable, List, Sequence

from . import OUT_DIR, ROOT
from .catalog import BUDGET_LAYERS, END_TO_END, PER_LAYER, WORKLOADS
from .layers import run_layer_pass
from .spans import SpanRecorder, layer_self_seconds, name_seconds, write_trace
from .stats import MIN_BEYOND, geomean, percentile, quartile_spread
from .workloads import REGISTRY, Scratch, Workload
from .workloads.base import Box

#: set-ups per untraced run (``setup_s`` is their median): at least three,
#: then more until five seconds are spent — a 0.3 s set-up needs more
#: repeats than a 2 s one to give a steady median
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 10
SETUP_BUDGET_S = 5.0
#: untimed warm-up, as a share of the box
WARMUP_SHARE = 0.1
#: ``--trace 1``: shares of ``--seconds`` for the untraced and the traced box
UNTRACED_SHARE = 0.25
TRACED_SHARE = 0.35
BENCH_SCHEMA = "erbench/1"


def _over_slices(box: Box, kinds: Iterable[str], q: float, strict: bool) -> float:
    """Median over the box's slices of each slice's ``q``-percentile (ms)
    over the given kinds.

    Where a slice holds too few samples to support the percentile under the
    >=10-beyond rule, neighbouring slices are pooled — by twos, by fives,
    then the whole box — until every pool supports it.
    """

    kinds = list(kinds)
    per_slice = [
        [ns for kind in kinds for ns in piece.samples.get(kind, ())] for piece in box.slices
    ]
    count = len(per_slice)
    for width in (1, 2, 5, max(count, 1)):
        pools = [sum(per_slice[i : i + width], []) for i in range(0, count - width + 1, width)]
        values = [percentile(pool, q, MIN_BEYOND if strict else 1) for pool in pools]
        if values and all(value is not None for value in values):
            return median(values) / 1e6
    everything = sum(per_slice, [])
    if strict and everything:
        print(
            f"erbench: p{int(q * 100)} over {len(everything)} samples is below the "
            f"{MIN_BEYOND}-beyond rule",
            file=sys.stderr,
        )
    return (percentile(everything, q, 0) or 0) / 1e6


def _median_rate(box: Box) -> float:
    """Work per second of the median slice."""

    return median(piece.work / piece.seconds for piece in box.slices)


def _kind_medians(box: Box) -> Dict[str, float]:
    """Per kind: the median over slices of the slice's median latency (ms)."""

    per_kind: Dict[str, List[float]] = {}
    for piece in box.slices:
        for kind, values in piece.samples.items():
            if values:
                per_kind.setdefault(kind, []).append(median(values) / 1e6)
    return {kind: median(values) for kind, values in per_kind.items()}


def _setup(cls: type, seed: int, scratch: Scratch, smoke: bool) -> Any:
    workload: Workload = cls(seed, scratch, smoke=smoke)
    gc.collect()  # every set-up starts from a collected heap
    started = perf_counter()
    info = workload.setup()
    return workload, perf_counter() - started, info


def _settle(workload: Workload, seconds: float) -> None:
    workload.warm_up(seconds * WARMUP_SHARE)
    gc.collect()
    gc.freeze()


def _verdict(workload: Workload, boxes: Sequence[Box]) -> Dict[str, Any]:
    checks, failures = workload.verify()
    attempted = sum(box.attempted for box in boxes) + checks
    failed = sum(box.failed for box in boxes) + len(failures)
    for message in [e for box in boxes for e in box.errors] + failures:
        print(f"erbench: {workload.name}: {message}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def _kind_detail(box: Box) -> Dict[str, Any]:
    medians = _kind_medians(box)
    return {
        kind: {"n": len(values), "p50_ms": medians[kind]}
        for kind, values in box.samples.items()
        if values
    }


def run_untraced(name: str, seed: int, seconds: float, smoke: bool = False) -> Dict[str, Any]:
    """The end-to-end metrics of one workload, tracing off."""

    scratch = Scratch()
    strict = not smoke
    try:
        setups: List[float] = []
        loads: List[float] = []
        workload = None
        for done in range(1 if smoke else SETUP_MAX_REPEATS):
            if done >= SETUP_MIN_REPEATS and sum(setups) >= SETUP_BUDGET_S:
                break
            if workload is not None:
                workload.teardown()
            workload, setup_seconds, info = _setup(REGISTRY[name], seed, scratch, smoke)
            setups.append(setup_seconds)
            loads.append(info.instances / info.load_seconds)
        _settle(workload, seconds)
        box = workload.run_box(seconds)
        result = _verdict(workload, [box])
        workload.teardown()
    finally:
        scratch.cleanup()
    op_kinds = workload.op_kinds or workload.kinds
    values = {
        "setup_s": median(setups),
        "ops_per_s": _median_rate(box),
        "op_ms_p50": _over_slices(box, op_kinds, 0.50, strict),
        "op_geomean_ms": geomean(_kind_medians(box).values()),
        "read_ms_p50": _over_slices(box, workload.read_kinds, 0.50, strict),
        "load_instances_per_s": median(loads),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["metrics"] = _with_units(values, END_TO_END)
    result["detail"] = {"kinds": _kind_detail(box), "slices": len(box.slices)}
    return result


def run_traced(name: str, seed: int, seconds: float, smoke: bool = False) -> Dict[str, Any]:
    """The per-layer metrics: traced box of the workload, then the layer pass."""

    scratch = Scratch()
    try:
        workload, _setup_seconds, _info = _setup(REGISTRY[name], seed, scratch, smoke)
        _settle(workload, seconds)
        # program counters are read over the untraced box: the traced box
        # walks the compile pipeline itself and never probes the plan cache
        counters_before = workload.program_counters()
        plain = workload.run_box(seconds * UNTRACED_SHARE)
        counters = {
            key: value - counters_before[key] for key, value in workload.program_counters().items()
        }
        recorder = SpanRecorder()
        traced = workload.run_box(seconds * TRACED_SHARE, recorder)
        result = _verdict(workload, [plain, traced])
        workload.teardown()
        os.makedirs(OUT_DIR, exist_ok=True)
        write_trace(os.path.join(OUT_DIR, f"trace_{name}.json"), name, recorder.spans)
        values = run_layer_pass(seed, scratch, smoke=smoke)
    finally:
        scratch.cleanup()

    spans = recorder.spans
    by_layer = layer_self_seconds(spans)
    total_self = sum(by_layer.values())
    for layer in BUDGET_LAYERS:
        values[f"share.{layer}"] = by_layer.get(layer, 0.0) / total_self
    unknown = set(by_layer) - set(BUDGET_LAYERS)
    if unknown:
        raise RuntimeError(f"spans in undeclared layers: {sorted(unknown)}")
    values["harness.budget_closure"] = total_self / traced.thread_seconds
    values["harness.trace_overhead_fraction"] = 1.0 - _median_rate(traced) / _median_rate(plain)
    values["relational.materialize_share"] = (
        name_seconds(spans, "relational", "materialize") / total_self
    )
    tracer = workload.tracer
    values["relational.batch_share"] = (
        tracer.batch_executions / tracer.executions if tracer and tracer.executions else 0.0
    )
    lookups = counters.get("cache_hits", 0.0) + counters.get("plans", 0.0)
    values["session.plan_cache_hit_ratio"] = counters.get("cache_hits", 0.0) / lookups if lookups else 0.0
    values["session.plan_cache_evictions"] = counters.get("evictions", 0.0)
    values["api.requests"] = counters.get("api_requests", 0.0)
    values["api.shed"] = counters.get("api_shed", 0.0)
    write_kinds = workload.write_kinds
    values["ops.op_ms_p95"] = _over_slices(plain, workload.op_kinds or workload.kinds, 0.95, False)
    values["ops.read_ms_p50"] = _over_slices(plain, workload.read_kinds, 0.50, False)
    values["ops.read_ms_p95"] = _over_slices(plain, workload.read_kinds, 0.95, False)
    values["ops.write_ms_p50"] = _over_slices(plain, write_kinds, 0.50, False)
    values["ops.write_ms_p95"] = _over_slices(plain, write_kinds, 0.95, False)
    result["metrics"] = _with_units(values, PER_LAYER)
    result["detail"] = {"kinds": _kind_detail(plain), "spans": len(spans)}
    return result


def _with_units(values: Dict[str, float], declared: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    missing = [m.name for m in declared if m.name not in values]
    extra = sorted(set(values) - {m.name for m in declared})
    if missing or extra:
        raise RuntimeError(f"metrics out of step with the catalogue: missing {missing}, extra {extra}")
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in declared}


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> Dict[str, Any]:
    run = run_traced if trace else run_untraced
    return run(name, seed, seconds, smoke)


def contract_line(result: Dict[str, Any]) -> str:
    """The one JSON object the driver reads: exactly these four keys."""

    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


# -- all five workloads, one child process each ---------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, Any]:
    command = [
        sys.executable, "-m", "erbench", "run", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail",
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name} (trace {trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "fsync_policy": "commit",
    }


def run_all(seed: int, seconds: float, repeats: int = 1, smoke: bool = False) -> Dict[str, Any]:
    """One BENCH document: every workload, untraced ``repeats`` times (the
    end-to-end medians and quartile spreads) and traced once."""

    document: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "env": environment(),
        "seed": seed,
        "run_seconds": seconds,
        "repeats": repeats,
        "workloads": {},
    }
    for declared in WORKLOADS:
        name = declared.name
        runs = [_child(name, seed, seconds, 0, smoke) for _ in range(repeats)]
        traced = _child(name, seed, seconds, 1, smoke)
        end_to_end = {}
        for metric in END_TO_END:
            observed = [run["metrics"][metric.name]["value"] for run in runs]
            end_to_end[metric.name] = {
                "value": median(observed),
                "unit": metric.unit,
                "spread": quartile_spread(observed) if len(observed) >= 2 else None,
                "runs": observed,
            }
        document["workloads"][name] = {
            "correct": all(run["correct"] for run in runs + [traced]),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs + [traced]),
            "end_to_end": end_to_end,
            "layers": {
                key: {"value": entry["value"], "unit": entry["unit"]}
                for key, entry in traced["metrics"].items()
            },
            "kinds": runs[-1]["detail"]["kinds"],
        }
        print(format_workload(name, document["workloads"][name]), flush=True)
    return document


def format_workload(name: str, entry: Dict[str, Any]) -> str:
    lines = [f"== {name}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}"]
    for metric, value in entry["end_to_end"].items():
        spread = "" if value["spread"] is None else f"  (spread {value['spread']:.3f})"
        lines.append(f"  {metric:28s} {value['value']:14.6g} {value['unit']}{spread}")
    for metric, value in entry["layers"].items():
        lines.append(f"    {metric:42s} {value['value']:14.6g} {value['unit']}")
    return "\n".join(lines)

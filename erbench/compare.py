"""``compare A.json B.json`` and ``report``: reading BENCH documents.

``compare`` gives one row per (workload, end-to-end metric): both medians,
the ratio with its base, the bound, and a verdict.  ``report`` renders the
trajectory over every committed ``erbench/results/BENCH_*.json``.
"""

from __future__ import annotations

import glob
import json
import os
import re
from typing import Any, Dict, List, Tuple

from . import HERE
from .catalog import END_TO_END

RESULTS_GLOB = os.path.join(HERE, "results", "BENCH_*.json")


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(base: Dict[str, Any], other: Dict[str, Any], better: str, bound: float) -> str:
    """``better`` / ``unchanged`` / ``worse`` by more than ``bound`` of the
    base median; ``unresolved`` when either side's own run-to-run spread is
    wider than the bound (the difference cannot be told from noise)."""

    if max(base.get("spread") or 0.0, other.get("spread") or 0.0) > bound:
        return "unresolved"
    a, b = base["value"], other["value"]
    change = (b - a) / a if a else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows for every pairing present in both documents; True if any is worse."""

    rows: List[Dict[str, Any]] = []
    for name, entry in base["workloads"].items():
        theirs = other["workloads"].get(name)
        if theirs is None:
            continue
        for metric in END_TO_END:
            a = entry["end_to_end"].get(metric.name)
            b = theirs["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "base": a["value"],
                    "other": b["value"],
                    "ratio": b["value"] / a["value"] if a["value"] else float("nan"),
                    "bound": metric.bound,
                    "verdict": verdict(a, b, metric.better, metric.bound),
                }
            )
    return rows, any(row["verdict"] == "worse" for row in rows)


def format_compare(rows: List[Dict[str, Any]]) -> str:
    lines = [
        "| workload | metric | base | other | other/base | bound | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) | {row['base']:.6g} | "
            f"{row['other']:.6g} | {row['ratio']:.3f} (base {row['base']:.6g}) | "
            f"{row['bound']:.2f} | {row['verdict']} |"
        )
    return "\n".join(lines)


def report(paths: List[str] = ()) -> str:
    """Markdown trajectory: one row per (workload, metric), one column per
    committed BENCH document, in PR order."""

    paths = list(paths) or sorted(
        glob.glob(RESULTS_GLOB), key=lambda p: int(re.search(r"BENCH_(\d+)", p).group(1))
    )
    documents = [(os.path.basename(p)[: -len(".json")], load(p)) for p in paths]
    lines = [
        "| workload | metric | " + " | ".join(label for label, _doc in documents) + " |",
        "|---|---|" + "---|" * len(documents),
    ]
    workloads = list(dict.fromkeys(w for _label, doc in documents for w in doc["workloads"]))
    for name in workloads:
        for metric in END_TO_END:
            cells = []
            for _label, doc in documents:
                entry = doc["workloads"].get(name, {}).get("end_to_end", {}).get(metric.name)
                cells.append(f"{entry['value']:.6g}" if entry else "-")
            lines.append(f"| {name} | {metric.name} ({metric.unit}) | " + " | ".join(cells) + " |")
    return "\n".join(lines)

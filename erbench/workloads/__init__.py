"""The five workloads, by name."""

from __future__ import annotations

from typing import Dict, Type

from .analytic_scan import AnalyticScan
from .base import Scratch, Workload
from .lifecycle_durable import LifecycleDurable
from .mixed_snapshot import MixedSnapshot
from .oltp_point import OltpPoint
from .rest_mix import RestMix

REGISTRY: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (AnalyticScan, OltpPoint, RestMix, MixedSnapshot, LifecycleDurable)
}

__all__ = ["REGISTRY", "Scratch", "Workload"]

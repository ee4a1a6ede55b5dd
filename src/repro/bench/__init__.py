"""The paper's Section 6 experiments: the E1–E8 registry with the paper's
reported outcomes, best-of-k timing across mapped systems, and claim
evaluation (:mod:`repro.bench.experiments`)."""

from .experiments import (
    EXPERIMENTS,
    ClaimOutcome,
    Experiment,
    PaperClaim,
    all_experiments,
    evaluate_claim,
    get_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ClaimOutcome",
    "Experiment",
    "PaperClaim",
    "all_experiments",
    "evaluate_claim",
    "get_experiment",
]

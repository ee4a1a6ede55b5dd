"""Registry of the paper's Section 6 experiments (E1–E8).

Each :class:`Experiment` records:

* the ERQL query (or operation) that realizes the paper's prose description;
* which mappings it compares;
* the paper's reported outcome (direction + rough factor), which the
  benchmark assertions check as *direction* (who wins) rather than absolute
  numbers — the paper reports ratios because absolute numbers depend on the
  machine, and ours additionally depend on the pure-Python substrate.

:meth:`Experiment.run` times one experiment across loaded mapped systems and
:func:`evaluate_claim` judges the measurement against one paper claim.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..system import ErbiumDB

#: Timed runs per mapping; direction claims compare the best of them.
DEFAULT_REPEATS = 7
#: Untimed runs first, so the plan cache and table snapshots are warm.
DEFAULT_WARMUP = 2


@dataclass
class PaperClaim:
    """The paper's reported comparison for one experiment."""

    faster_mapping: str
    slower_mapping: str
    factor: float
    paper_numbers: str

    def describe(self) -> Dict[str, object]:
        return {
            "faster": self.faster_mapping,
            "slower": self.slower_mapping,
            "reported_factor": self.factor,
            "paper_numbers": self.paper_numbers,
        }


@dataclass
class Experiment:
    """One reproducible experiment."""

    id: str
    title: str
    description: str
    query: Optional[str]
    mappings: Tuple[str, ...]
    claims: List[PaperClaim] = field(default_factory=list)
    operation: Optional[Callable[[ErbiumDB], object]] = None

    def run(self, systems: Mapping[str, ErbiumDB]) -> Dict[str, float]:
        """Best wall-clock seconds per compared mapping.

        ``DEFAULT_WARMUP`` untimed rounds, then ``DEFAULT_REPEATS`` timed
        rounds; a round runs the operation once on each compared mapping in
        turn (A, B, A, B, ...), so a burst of noise lands on both sides
        alike.  Each timed call starts after a ``gc.collect()`` and runs with
        the collector off, so no mapping pays for garbage another one left;
        what existed before the timed rounds is frozen out of those
        collections, so each one costs only the garbage since.
        The minimum per mapping is kept: interruptions only ever add time,
        so it is the steady-state estimator least sensitive to scheduler
        noise.
        """

        operation = self.operation or (lambda system: system.query(self.query))
        compared = [(mapping, systems[mapping]) for mapping in self.mappings]
        for _ in range(DEFAULT_WARMUP):
            for _, system in compared:
                operation(system)
        best = {mapping: float("inf") for mapping, _ in compared}
        gc.collect()
        gc.freeze()  # the loaded systems outlive the run: keep them out of each collect
        try:
            for _ in range(DEFAULT_REPEATS):
                for mapping, system in compared:
                    best[mapping] = min(best[mapping], _timed(operation, system))
        finally:
            gc.unfreeze()
        return best


def _timed(operation: Callable[[ErbiumDB], object], system: ErbiumDB) -> float:
    """Seconds one ``operation(system)`` takes, collector drained and off."""

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        operation(system)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class ClaimOutcome:
    """Measured outcome for one paper claim."""

    experiment_id: str
    title: str
    faster_mapping: str
    slower_mapping: str
    reported_factor: float
    measured_factor: float
    faster_seconds: float
    slower_seconds: float
    direction_reproduced: bool
    paper_numbers: str

    def describe(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "faster": self.faster_mapping,
            "slower": self.slower_mapping,
            "reported_factor": self.reported_factor,
            "measured_factor": round(self.measured_factor, 2),
            "faster_seconds": round(self.faster_seconds, 6),
            "slower_seconds": round(self.slower_seconds, 6),
            "direction_reproduced": self.direction_reproduced,
            "paper_numbers": self.paper_numbers,
        }


def evaluate_claim(claim: PaperClaim, results: Mapping[str, float],
                   experiment: Experiment, tolerance: float = 0.65) -> ClaimOutcome:
    """Compare one :meth:`Experiment.run` result against the paper's claim.

    The measured factor is how many times slower the claimed-slower mapping
    ran.  ``direction_reproduced`` is lenient for claims of parity
    (factor == 1.0): the two mappings must be within ``1/tolerance`` of each
    other.
    """

    fast = results[claim.faster_mapping]
    slow = results[claim.slower_mapping]
    measured = slow / fast if fast > 0 else float("inf")
    if claim.factor == 1.0:
        direction = tolerance <= measured <= 1.0 / tolerance
    else:
        direction = measured > 1.0
    return ClaimOutcome(
        experiment_id=experiment.id,
        title=experiment.title,
        faster_mapping=claim.faster_mapping,
        slower_mapping=claim.slower_mapping,
        reported_factor=claim.factor,
        measured_factor=measured,
        faster_seconds=fast,
        slower_seconds=slow,
        direction_reproduced=direction,
        paper_numbers=claim.paper_numbers,
    )


def _e7a_operation(system: ErbiumDB) -> object:
    """Fetch all information across S, S1 and S2 for a set of s_ids.

    Uses the document-fetch CRUD template: one keyed read per owner under the
    nested mapping (M5), keyed owner reads plus one pass per weak-entity table
    under the normalized mapping (M1).
    """

    keys = [(k,) for k in range(0, 120)]
    return system.crud.get_documents("S", keys, include_weak=True)


def _e4_operation(system: ErbiumDB) -> object:
    """Intersection of r_mv1 and r_mv2 for every R entity.

    Realized through the mapping-aware access path: a side-table mapping (M1)
    joins the two side tables on (r_id, value); an array mapping (M2)
    intersects the two arrays per row, paying the unnesting overhead the paper
    points to.
    """

    builder = system.access_paths()
    plan = builder.multivalued_intersection("R", "r", "r_mv1", "r_mv2")
    return system.db.execute(plan)


EXPERIMENTS: Dict[str, Experiment] = {}


def _register(experiment: Experiment) -> Experiment:
    EXPERIMENTS[experiment.id] = experiment
    return experiment


_register(
    Experiment(
        id="E1",
        title="All three multi-valued attributes for every R entity",
        description="M1 needs a multi-way join over the three side tables; "
        "M2 reads three array columns in a single scan.",
        query="select r_id, r_mv1, r_mv2, r_mv3 from R",
        mappings=("M1", "M2"),
        claims=[
            PaperClaim("M2", "M1", 22.0, "M1 = 66.42 s vs M2 = 2.88 s (≈22×)"),
        ],
    )
)

_register(
    Experiment(
        id="E2",
        title="All values of a single multi-valued attribute (unnested)",
        description="M1 scans just the side table; M2 pays array unnesting.",
        query="select unnest(r_mv1) as v from R",
        mappings=("M1", "M2"),
        claims=[
            PaperClaim("M1", "M2", 1.3, "M1 = 0.39 s vs M2 = 0.5 s (M1 ≈30% faster)"),
        ],
    )
)

_register(
    Experiment(
        id="E3",
        title="Multi-valued attribute values for one r_id (point lookup)",
        description="r_id is the physical key under M2 (index lookup); the M1 side "
        "table has no index usable for an r_id-only lookup.",
        query="select r_mv1 from R where r_id = 137",
        mappings=("M1", "M2"),
        claims=[
            PaperClaim("M2", "M1", 145.0, "M1 = 40 ms vs M2 = 0.3 ms (≈145×)"),
        ],
    )
)

_register(
    Experiment(
        id="E4",
        title="Intersection of r_mv1 and r_mv2 across all entities",
        description="M1 joins the two side tables on (r_id, value); M2 intersects "
        "arrays per row, paying unnesting overhead.",
        query=None,  # realized as an operation: the idiomatic query differs per mapping
        mappings=("M1", "M2"),
        claims=[
            PaperClaim("M1", "M2", 3.6, "M1 = 0.63 s vs M2 = 2.29 s (M1 ≈3.6× faster)"),
        ],
        operation=_e4_operation,
    )
)

_register(
    Experiment(
        id="E5",
        title="List all information for the R3 entities",
        description="M1 needs a three-way join up the hierarchy; M3 scans one wide "
        "table with a type filter; M4 scans only the R3 table.",
        query="select r_id, r_x.r_x1, r_x.r_x2, r_y, r1_x, r3_x from R3",
        mappings=("M1", "M3", "M4"),
        claims=[
            PaperClaim("M3", "M1", 5.0, "M1 ≈ 2 s vs M3 ≈ 0.4 s (≈5×)"),
            PaperClaim("M4", "M3", 2.7, "M4 scans less data than M3 (≈2.7×)"),
        ],
    )
)

_register(
    Experiment(
        id="E6",
        title="Join R with S with predicates on both",
        description="Despite M4 requiring a five-relation union to enumerate R, its "
        "performance is close to M1 for this selective join.",
        query="select r.r_id, s.s_x from R r join S s on r_s "
        "where r.r_y < 30 and s.s_x < 300",
        mappings=("M1", "M4"),
        claims=[
            PaperClaim("M1", "M4", 1.0, "M1 and M4 performed very similarly"),
        ],
    )
)

_register(
    Experiment(
        id="E7a",
        title="All information across S, S1, S2 for a given set of s_ids",
        description="M5 reads each owner's nested document; M1 needs joins against "
        "the S1 and S2 tables.",
        query=None,
        mappings=("M1", "M5"),
        claims=[
            PaperClaim("M5", "M1", 2.2, "M1 ≈2.2× slower than M5"),
        ],
        operation=_e7a_operation,
    )
)

_register(
    Experiment(
        id="E7b",
        title="Join S1 with R2 (through r2_s1)",
        description="Under M5 the S1 instances must first be unnested out of S; "
        "under M1 the S1 table joins directly.",
        query="select r2.r_id, s1.s1_x from R2 r2 join S1 s1 on r2_s1",
        mappings=("M1", "M5"),
        claims=[
            PaperClaim("M1", "M5", 4.0, "the S1 ⋈ R query runs ≈4× slower on M5 than M1"),
        ],
    )
)

_register(
    Experiment(
        id="E8a",
        title="Query that can use the pre-computed R2 ⋈ S1 join",
        description="M6 stores the join; M1 must compute it through the join table.",
        query="select r2.r2_x, s1.s1_x from R2 r2 join S1 s1 on r2_s1",
        mappings=("M1", "M6"),
        claims=[
            PaperClaim("M6", "M1", 1.5, "the pre-computed join runs significantly faster on M6"),
        ],
    )
)

_register(
    Experiment(
        id="E8b",
        title="Query touching only one of the co-stored entity sets",
        description="Under M6, reading just R2 (or just S1) must scan the wide "
        "duplicated table and deduplicate.",
        query="select r2_x from R2",
        mappings=("M1", "M6"),
        claims=[
            PaperClaim("M1", "M6", 1.5, "queries that only involve one of the two tables get more expensive on M6"),
        ],
    )
)


def all_experiments() -> List[Experiment]:
    return [EXPERIMENTS[key] for key in sorted(EXPERIMENTS)]


def get_experiment(experiment_id: str) -> Experiment:
    return EXPERIMENTS[experiment_id]

"""The frozen (query, mapping) pairs of ``analytic_scan``.

The paper's E1-E8 on their paper mappings (texts copied from
``repro.bench.experiments`` and frozen here, so the benchmark does not move
when that registry does) plus five aggregate shapes A1-A5 on M1 and M4.
31 pairs; every query must give the same answer on every mapping it runs on.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple


class Query(NamedTuple):
    id: str
    mappings: Tuple[str, ...]
    #: ERQL text, or ``None`` for the two experiments the paper realizes as
    #: mapping-aware operations (E4, E7a)
    text: Optional[str]


QUERIES: Tuple[Query, ...] = (
    Query("E1", ("M1", "M2"), "select r_id, r_mv1, r_mv2, r_mv3 from R"),
    Query("E2", ("M1", "M2"), "select unnest(r_mv1) as v from R"),
    Query("E3", ("M1", "M2"), "select r_mv1 from R where r_id = 137"),
    Query("E4", ("M1", "M2"), None),
    Query(
        "E5",
        ("M1", "M3", "M4"),
        "select r_id, r_x.r_x1, r_x.r_x2, r_y, r1_x, r3_x from R3",
    ),
    Query(
        "E6",
        ("M1", "M4"),
        "select r.r_id, s.s_x from R r join S s on r_s where r.r_y < 30 and s.s_x < 300",
    ),
    Query("E7a", ("M1", "M5"), None),
    Query("E7b", ("M1", "M5"), "select r2.r_id, s1.s1_x from R2 r2 join S1 s1 on r2_s1"),
    Query("E8a", ("M1", "M6"), "select r2.r2_x, s1.s1_x from R2 r2 join S1 s1 on r2_s1"),
    Query("E8b", ("M1", "M6"), "select r2_x from R2"),
    # aggregate shapes: group-by, join + group-by, range filter,
    # order-by-limit, count-distinct
    Query(
        "A1",
        ("M1", "M4"),
        "select r_y, count(*) as n, sum(r_x.r_x1) as total from R group by r_y",
    ),
    Query(
        "A2",
        ("M1", "M4"),
        "select s.s_y, count(*) as n, sum(r.r_y) as total from R r join S s on r_s group by s.s_y",
    ),
    Query("A3", ("M1", "M4"), "select r_id, r_y from R where r_y >= 20 and r_y < 40"),
    Query(
        "A4",
        ("M1", "M4"),
        "select s_id, s1_id, s1_x from S1 order by s1_x desc, s_id, s1_id limit 50",
    ),
    Query("A5", ("M1", "M4"), "select count(distinct s1_x) as n from S1"),
)

#: ``get_documents`` keys of E7a (the paper fetches "a given set of s_ids")
E7A_KEYS = [(k,) for k in range(120)]


def pairs() -> List[Tuple[Query, str]]:
    return [(query, mapping) for query in QUERIES for mapping in query.mappings]

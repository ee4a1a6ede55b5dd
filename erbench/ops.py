"""Seeded operation sequences for the point workloads.

The sequence is drawn lazily from one ``random.Random(seed)``: equal seeds
give identical sequences, different seeds different ones.  :class:`Ledger`
mirrors what the sequence has done to the data (live keys, last written
values, current links), so every drawn op is valid when it runs — no op is
expected to fail — and the final state is known without asking the program.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.workloads.synthetic import SyntheticDataset


class Ledger:
    """The generator's model of ``S`` and ``r_s``.

    ``base`` keys come from the generated dataset and are never deleted (the
    dataset's relationships point at them); ``extra`` keys were inserted by
    the sequence and are the only ones it deletes.
    """

    def __init__(self, dataset: SyntheticDataset, rng: random.Random) -> None:
        self.rng = rng
        self.base: List[int] = list(dataset.s_ids)
        self.extra: List[int] = []
        self.next_key = max(self.base) + 1_000_000
        self.r_ids: List[int] = list(dataset.r_ids)
        #: key -> last ``s_x`` the sequence wrote (inserts and updates)
        self.s_x: Dict[int, int] = {}
        #: r_id -> the S it is currently linked to through ``r_s``
        self.r_to_s: Dict[int, int] = {
            rel.endpoints["R"][0]: rel.endpoints["S"][0]
            for rel in dataset.relationships
            if rel.relationship_set == "r_s"
        }

    def live_key(self) -> int:
        index = self.rng.randrange(len(self.base) + len(self.extra))
        return self.base[index] if index < len(self.base) else self.extra[index - len(self.base)]

    def fresh_row(self) -> Dict[str, Any]:
        key = self.next_key
        self.next_key += 1
        self.extra.append(key)
        value = self.rng.randint(0, 1000)
        self.s_x[key] = value
        return {"s_id": key, "s_x": value, "s_y": f"n-{key % 97}"}

    def update(self) -> Tuple[int, int]:
        key, value = self.live_key(), self.rng.randint(0, 1000)
        self.s_x[key] = value
        return key, value

    def drop_extra(self) -> int:
        index = self.rng.randrange(len(self.extra))
        self.extra[index], self.extra[-1] = self.extra[-1], self.extra[index]
        key = self.extra.pop()
        self.s_x.pop(key, None)
        return key

    def relink(self) -> Tuple[int, int, int]:
        """(r_id, the S it leaves, the base S it moves to)."""

        r_id = self.rng.choice(self.r_ids)
        old = self.r_to_s[r_id]
        new = self.rng.choice(self.base)
        while new == old and len(self.base) > 1:
            new = self.rng.choice(self.base)
        self.r_to_s[r_id] = new
        return r_id, old, new

    def count_s(self) -> int:
        return len(self.base) + len(self.extra)


#: (kind, share by count, draws the payload from the ledger)
Mix = Sequence[Tuple[str, int, Callable[[Ledger], Any]]]


def op_sequence(mix: Mix, ledger: Ledger, fallback: Dict[str, str]) -> Iterator[Tuple[int, Any]]:
    """Endless ``(kind index, payload)`` stream with the mix's shares.

    ``fallback`` maps a kind that needs an ``extra`` key to the kind drawn
    instead while none exists yet (a delete before any insert).
    """

    names = [kind for kind, _share, _draw in mix]
    draws = [draw for _kind, _share, draw in mix]
    cumulative = list(accumulate(share for _kind, share, _draw in mix))
    total = cumulative[-1]
    redirect = {names.index(k): names.index(v) for k, v in fallback.items()}
    rng = ledger.rng
    while True:
        kind = bisect(cumulative, rng.randrange(total))
        if kind in redirect and not ledger.extra:
            kind = redirect[kind]
        yield kind, draws[kind](ledger)


def one_of_each(mix: Mix, ledger: Ledger) -> Iterator[Tuple[int, Any]]:
    """Every kind once, in mix order (inserts come before the deletes that
    need them): the cold pass of a set-up, the same length for every seed."""

    for kind, (_name, _share, draw) in enumerate(mix):
        yield kind, draw(ledger)

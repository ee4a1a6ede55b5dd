import random
from itertools import islice

from erbench.data import make_dataset
from erbench.ops import Ledger, op_sequence
from erbench.workloads import oltp_point, rest_mix


def first_ops(module, seed, count=2000):
    dataset = make_dataset(60, seed)
    ledger = Ledger(dataset, random.Random(seed))
    return list(islice(op_sequence(module.MIX, ledger, module.FALLBACK), count)), ledger


def test_equal_seeds_give_identical_sequences():
    for module in (oltp_point, rest_mix):
        assert first_ops(module, 7)[0] == first_ops(module, 7)[0]


def test_different_seeds_give_different_sequences():
    for module in (oltp_point, rest_mix):
        assert first_ops(module, 7)[0] != first_ops(module, 8)[0]


def test_shares_follow_the_mix_and_ledger_tracks_the_keys():
    ops, ledger = first_ops(oltp_point, 3, count=20_000)
    names = [kind for kind, _share, _draw in oltp_point.MIX]
    counts = {name: 0 for name in names}
    for kind, _payload in ops:
        counts[names[kind]] += 1
    reads = sum(counts[name] for name in oltp_point.READ_KINDS)
    assert 0.83 < reads / len(ops) < 0.87
    assert 0.48 < counts["prepared_point"] / len(ops) < 0.52
    inserted = counts["insert_S"] + 3 * counts["txn"]
    assert ledger.count_s() == len(ledger.base) + inserted - counts["delete_S"]
    assert len(set(ledger.extra)) == len(ledger.extra)


def test_a_delete_is_never_drawn_before_an_insert():
    ops, _ledger = first_ops(oltp_point, 5, count=500)
    names = [kind for kind, _share, _draw in oltp_point.MIX]
    live = 0
    for kind, _payload in ops:
        name = names[kind]
        live += {"insert_S": 1, "txn": 3, "delete_S": -1}.get(name, 0)
        assert live >= 0

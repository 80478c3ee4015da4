"""Utility measures, and the two upper bounds on the example dataset.

The bounds are read from the code the miner prunes with: matched rows and
maximum utility from the dense kernel, which the miner's scorer equals bit
for bit, the top-k masses (`miner._masses`, which sums
`weighted_utilization` over the top-k rows of `encode_dataset`) and the
strategy bound (`miner._bound`). Golden values come from the worked
example; the derived ones (27 for <{C,E}>, 72 for the capped projected
value of <{A}>, the {2,5} utility set) were computed with the brute-force
oracle before being frozen here.
"""
import random

import numpy as np
import pytest

from intervalmine import miner
from intervalmine.encoding import encode_dataset, summarize_scores, weighted_utilization
from intervalmine.model import (
    CEventset,
    Coincidence,
    CSequence,
    CSequenceDataset,
    LSequence,
    UtilityTable,
    left_sum,
)
from intervalmine.oracle import (
    GeneratorParams,
    match_utilities,
    pattern_max_utility,
    random_dataset,
    top_k_eventsets_utility,
)
from intervalmine.transform import transform_dataset
from intervalmine.utility import (
    UpperBound,
    csequence_utility,
    dataset_utility,
    eventset_utility,
)

from conftest import evaluate, pruning_context, weighted

AB = LSequence.of(["A"], ["B"])
A = LSequence.of(["A"])
B = LSequence.of(["B"])
C = LSequence.of(["C"])
CE = LSequence.of(["C", "E"])
UNMATCHED = LSequence.of(["A"], ["F"])  # A and F never share a sequence


def test_event_utility(example_table):
    # one label over one window: p(label) * duration
    assert eventset_utility(CEventset(Coincidence.of(["A"]), 4), example_table) == 8.0
    assert eventset_utility(CEventset(Coincidence.of(["F"]), 3), example_table) == 15.0


def test_eventset_utility(cs, example_table):
    c1 = cs[1]
    assert eventset_utility(c1.eventsets[5], example_table) == 6.0  # ({C,E},2)
    assert eventset_utility(c1.eventsets[3], example_table) == 0.0  # empty window
    c2 = cs[2]
    assert eventset_utility(c2.eventsets[1], example_table) == 12.0  # ({A,B,D},2)


def test_csequence_utilities(cs, example_table):
    assert csequence_utility(cs[1], example_table) == 29.0
    assert csequence_utility(cs[2], example_table) == 46.0
    assert csequence_utility(cs[3], example_table) == 28.0
    assert csequence_utility(cs[4], example_table) == 31.0
    assert csequence_utility(CSequence(id=9, eventsets=()), example_table) == 0.0


def test_dataset_utility(example_cdata, cs, example_table):
    assert dataset_utility(example_cdata) == 134.0
    single = CSequenceDataset((cs[3],), example_table)
    assert dataset_utility(single) == 28.0
    assert dataset_utility(CSequenceDataset((), UtilityTable({}))) == 0.0


def test_max_k_utility(example_cdata, cs):
    enc = encode_dataset(example_cdata)
    first = np.array([True, False, False, False])  # sequence 1 alone
    assert weighted(enc, first, 2, 1) == [14.0, 8.0]
    # budget at least the sequence length takes everything
    assert weighted(enc, first, len(cs[1]), 99) == [29.0, 29.0]
    # an empty budget contributes nothing
    assert weighted(enc, first, 0, -1) == [0.0, 0.0]


def test_batched_masses_sum_each_candidate_on_its_own(example_cdata):
    """One call sums every candidate of a batch over its own hits, at every
    budget, whatever else shares the batch; a candidate without hits sums
    to 0."""
    enc = encode_dataset(example_cdata)
    rows = np.array([1, 2, 3])  # sequences 2-4
    matched = np.array([[True, False, True], [False, False, False], [True, True, True]])
    candidate, position = np.nonzero(matched)
    got = weighted_utilization(enc, candidate, rows[position], 3, (1, 3))
    assert got.shape == (2, 3)
    for i, flags in enumerate(matched):
        assert got[:, i].tolist() == [
            sum(enc.topk[k, r] for r in rows[flags]) for k in (1, 3)
        ]
        alone = weighted_utilization(
            enc, np.zeros(flags.sum(), dtype=np.intp), rows[flags], 1, (1, 3)
        )
        assert alone[:, 0].tolist() == got[:, i].tolist()


def test_max_k_utility_matches_exhaustive_search():
    rng = random.Random(11)
    for seed in range(30):
        p = GeneratorParams(seed=seed, num_sequences=1,
                            max_intervals_per_seq=rng.randint(1, 5))
        es, table = random_dataset(p)
        d = transform_dataset(es, table)
        c = d.csequences[0]
        if len(c.eventsets) > 8:
            continue
        enc = encode_dataset(d)
        budgets = range(1, len(c.eventsets) + 2)
        assert weighted(enc, np.array([True]), *budgets) == [
            top_k_eventsets_utility(c, k, table) for k in budgets
        ]


def test_utility_set(cs, example_table):
    assert sorted(match_utilities(AB, cs[1], example_table)) == [9.0, 10.0, 13.0]
    assert sorted(match_utilities(B, cs[1], example_table)) == [2.0, 5.0]
    assert match_utilities(AB, cs[4], example_table) == []


def test_max_match_utility(example_cdata):
    enc = encode_dataset(example_cdata)
    _, best = summarize_scores(evaluate(pruning_context(enc, 2), AB).scores)
    assert list(best) == [13.0, 9.0, 0.0, 0.0]


def test_max_match_utility_equals_exhaustive_maximum(example_cdata, example_table):
    enc = encode_dataset(example_cdata)
    ctx = pruning_context(enc, 3)
    rng = random.Random(5)
    labels = example_cdata.labels()
    for _ in range(200):
        length = rng.randint(1, 3)
        l = LSequence.of(*[rng.sample(labels, rng.randint(1, 2)) for _ in range(length)])
        e = evaluate(ctx, l)
        _, best = summarize_scores(e.scores)
        for s, c in enumerate(example_cdata.csequences):
            exhaustive = match_utilities(l, c, example_table)
            assert e.matched[s] == bool(exhaustive)
            assert best[s] == (max(exhaustive) if exhaustive else 0.0)


def test_max_utility(example_cdata):
    ctx = pruning_context(encode_dataset(example_cdata), 2)
    assert evaluate(ctx, AB).umax == 22.0
    assert evaluate(ctx, CE).umax == 27.0  # the {C,E,F} window counts
    assert evaluate(ctx, UNMATCHED).umax == 0.0


def test_contains_match(example_cdata):
    ctx = pruning_context(encode_dataset(example_cdata), 2)
    assert list(evaluate(ctx, AB).matched) == [True, True, False, False]
    assert evaluate(ctx, CE).matched[3]


def test_lwu(example_cdata):
    enc = encode_dataset(example_cdata)
    # at K=3 the full budget is 3 and the rest after <{A}{B}> is 1
    e = evaluate(pruning_context(enc, 3), AB)
    assert (e.full, e.rest) == (50.0, 20.0)
    # at the length cap the rest is empty
    assert evaluate(pruning_context(enc, 2), AB).rest == 0.0
    e = evaluate(pruning_context(enc, 3), UNMATCHED)
    assert (e.full, e.rest) == (0.0, 0.0)


def test_projected_utilization(example_cdata):
    enc = encode_dataset(example_cdata)
    ctx = pruning_context(enc, 3)
    e = evaluate(ctx, AB)
    assert miner._bound(ctx, e.umax, e.full, e.rest) == 42.0
    # at full length the remaining budget is zero, so the value is u_max
    ctx = pruning_context(enc, 2)
    e = evaluate(ctx, AB)
    assert miner._bound(ctx, e.umax, e.full, e.rest) == e.umax == 22.0


def test_projected_utilization_is_capped(example_cdata):
    enc = encode_dataset(example_cdata)
    # u_max(<{A}>) = 22 and the weighted bound at the remaining budget 2 is
    # 56; the raw sum 78 exceeds the weighted bound at 3, 72, so the capped
    # value is 72.
    ctx = pruning_context(enc, 3)
    e = evaluate(ctx, A)
    assert (e.umax, e.rest, e.full) == (22.0, 56.0, 72.0)
    assert miner._bound(ctx, e.umax, e.full, e.rest) == 72.0
    # and a case where the cap stays inactive: 9 + 102 for <{C}> at K=4
    ctx = pruning_context(enc, 4)
    e = evaluate(ctx, C)
    assert (e.umax, e.rest, e.full) == (9.0, 102.0, 116.0)
    assert miner._bound(ctx, e.umax, e.full, e.rest) == 111.0


def test_upper_bound_from_name():
    assert UpperBound.from_name("pdc") is UpperBound.PROJECTED
    assert UpperBound.from_name(" LDC ") is UpperBound.LWU
    assert UpperBound.from_name("none") is UpperBound.NONE
    with pytest.raises(ValueError):
        UpperBound.from_name("twu")


def random_cdata(seed, rng):
    p = GeneratorParams(
        seed=seed,
        num_sequences=rng.randint(1, 5),
        max_intervals_per_seq=rng.randint(1, 6),
        alphabet_size=rng.randint(1, 4),
    )
    es, table = random_dataset(p)
    return transform_dataset(es, table)


def random_pattern(labels, rng, max_len=3, max_size=2):
    length = rng.randint(1, max_len)
    return LSequence.of(
        *[rng.sample(labels, rng.randint(1, min(max_size, len(labels))))
          for _ in range(length)]
    )


def test_bound_inequalities_on_random_instances():
    """projected <= weighted at the same budget, u_max <= weighted at |l|,
    and u_max <= projected, with u_max found by brute force. On all the
    values as one batch, `miner._bound` equals its value on each candidate
    alone, bit for bit, under every strategy."""
    rng = random.Random(99)
    values = []
    for seed in range(60):
        d = random_cdata(seed, rng)
        labels = d.labels()
        if not labels:
            continue
        enc = encode_dataset(d)
        for _ in range(8):
            l = random_pattern(labels, rng)
            k = rng.randint(len(l), len(l) + 2)
            ctx = pruning_context(enc, k)
            e = evaluate(ctx, l)
            p = miner._bound(ctx, e.umax, e.full, e.rest)
            exact, _ = pattern_max_utility(l, d)
            assert p <= e.full + 1e-9
            assert exact <= evaluate(pruning_context(enc, len(l)), l).full + 1e-9
            assert exact <= p + 1e-9
            values.append((e.umax, e.full, e.rest))
    umax, full, rest = np.array(values).T
    for strategy in UpperBound:
        ctx = pruning_context(enc, 2, strategy)
        batch = np.broadcast_to(miner._bound(ctx, umax, full, rest), umax.shape)
        alone = [miner._bound(ctx, *v) for v in values]
        assert [float(b).hex() for b in batch] == [float(a).hex() for a in alone], strategy


def test_lwu_monotone_in_budget_and_pattern():
    rng = random.Random(123)
    for seed in range(40):
        d = random_cdata(seed, rng)
        labels = d.labels()
        if not labels:
            continue
        enc = encode_dataset(d)
        ctx = pruning_context(enc, 3)
        for _ in range(6):
            l = random_pattern(labels, rng, max_len=2)
            matched = evaluate(ctx, l).matched
            # growing the budget never shrinks the weighted bound
            values = weighted(enc, matched, *range(0, 5))
            assert values == sorted(values)
            # extending the pattern never grows the weighted bound
            extended = LSequence(l.coincidences + random_pattern(labels, rng, 1).coincidences)
            extended_values = weighted(enc, evaluate(ctx, extended).matched, *range(0, 5))
            for k in range(1, 5):
                assert extended_values[k] <= values[k] + 1e-9


def test_reference_sums_add_left_to_right():
    """Ten windows worth 0.1 each total 0.9999999999999999 added left to
    right, as the encoded arrays add them; a compensated sum (`sum()` of
    floats since Python 3.12, `math.fsum`) gives 1.0."""
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([]) == 0.0
    table = UtilityTable({"A": 0.1})
    c = CSequence(1, tuple(CEventset(Coincidence.of(["A"]), 1) for _ in range(10)))
    d = CSequenceDataset((c,), table)
    assert csequence_utility(c, table) == 0.9999999999999999
    assert dataset_utility(d) == 0.9999999999999999
    assert top_k_eventsets_utility(c, 10, table) == 0.9999999999999999
    assert encode_dataset(d).total_utility == 0.9999999999999999
    # ten labels of one window
    labels = [f"L{i}" for i in range(10)]
    wide = UtilityTable({lab: 0.1 for lab in labels})
    window = CEventset(Coincidence.of(labels), 1)
    assert eventset_utility(window, wide) == 0.9999999999999999
    l = LSequence.of(labels)
    assert match_utilities(l, CSequence(1, (window,)), wide) == [0.9999999999999999]

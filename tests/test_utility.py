"""Utility measures and the two upper bounds on the example dataset.

Golden values come from the worked example; the derived ones (27 for
<{C,E}>, 72 for the capped projected value of <{A}>, the {2,5} utility
set) were computed with the brute-force oracle before being frozen here.
"""
import random

import pytest

from intervalmine.model import (
    CEventset,
    Coincidence,
    CSequence,
    CSequenceDataset,
    LSequence,
    UtilityTable,
)
from intervalmine.oracle import (
    GeneratorParams,
    match_utilities,
    random_dataset,
    top_k_eventsets_utility,
)
from intervalmine.transform import transform_dataset
from intervalmine.utility import (
    UpperBound,
    contains_match,
    csequence_utility,
    dataset_utility,
    eventset_utility,
    lwu,
    max_k_utility,
    max_match_utility,
    max_utility,
    projected_utilization,
)

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


def test_max_k_utility(cs, example_table):
    assert max_k_utility(cs[1], 2, example_table) == 14.0
    assert max_k_utility(cs[1], 1, example_table) == 8.0
    # budget at least the sequence length takes everything
    assert max_k_utility(cs[1], len(cs[1]), example_table) == 29.0
    assert max_k_utility(cs[1], 99, example_table) == 29.0
    with pytest.raises(ValueError):
        max_k_utility(cs[1], 0, example_table)


def test_max_k_utility_matches_exhaustive_search():
    rng = random.Random(11)
    for seed in range(30):
        p = GeneratorParams(seed=seed, num_sequences=1,
                            max_intervals_per_seq=rng.randint(1, 5))
        es, table = random_dataset(p)
        c = transform_dataset(es, table).csequences[0]
        if len(c.eventsets) > 8:
            continue
        for k in range(1, len(c.eventsets) + 2):
            assert max_k_utility(c, k, table) == top_k_eventsets_utility(c, k, table)


def test_utility_set(cs, example_table):
    assert sorted(match_utilities(AB, cs[1], example_table)) == [9.0, 10.0, 13.0]
    assert sorted(match_utilities(B, cs[1], example_table)) == [2.0, 5.0]
    assert match_utilities(AB, cs[4], example_table) == []


def test_max_match_utility(cs, example_table):
    assert max_match_utility(AB, cs[1], example_table) == 13.0
    assert max_match_utility(AB, cs[2], example_table) == 9.0
    assert max_match_utility(AB, cs[3], example_table) == 0.0
    assert max_match_utility(AB, cs[4], example_table) == 0.0


def test_max_match_utility_equals_exhaustive_maximum(example_cdata, example_table):
    rng = random.Random(5)
    labels = example_cdata.labels()
    for _ in range(200):
        length = rng.randint(1, 3)
        l = LSequence.of(*[rng.sample(labels, rng.randint(1, 2)) for _ in range(length)])
        for c in example_cdata.csequences:
            exhaustive = match_utilities(l, c, example_table)
            expected = max(exhaustive) if exhaustive else 0.0
            assert max_match_utility(l, c, example_table) == expected


def test_max_utility(example_cdata):
    assert max_utility(AB, example_cdata) == 22.0
    assert max_utility(CE, example_cdata) == 27.0  # the {C,E,F} window counts
    assert max_utility(UNMATCHED, example_cdata) == 0.0


def test_contains_match(cs):
    assert contains_match(AB, cs[1])
    assert not contains_match(AB, cs[4])
    assert contains_match(CE, cs[4])


def test_lwu(example_cdata):
    assert lwu(AB, 3, example_cdata) == 50.0
    assert lwu(AB, 1, example_cdata) == 20.0
    assert lwu(UNMATCHED, 3, example_cdata) == 0.0
    assert lwu(AB, 0, example_cdata) == 0.0
    with pytest.raises(ValueError):
        lwu(AB, -1, example_cdata)


def test_projected_utilization(example_cdata):
    assert projected_utilization(AB, 3, example_cdata) == 42.0
    # at full length the remaining budget is zero, so the value is u_max
    assert projected_utilization(AB, 2, example_cdata) == max_utility(AB, example_cdata)
    with pytest.raises(ValueError):
        projected_utilization(AB, 1, example_cdata)


def test_projected_utilization_is_capped(example_cdata):
    # u_max(<{A}>) = 22 and lwu at the remaining budget 2 is 56; the raw sum
    # 78 exceeds lwu(<{A}>, 3) = 72, so the capped value is 72.
    assert max_utility(A, example_cdata) == 22.0
    assert lwu(A, 2, example_cdata) == 56.0
    assert lwu(A, 3, example_cdata) == 72.0
    assert projected_utilization(A, 3, example_cdata) == 72.0
    # and a case where the cap stays inactive: 9 + lwu(C, 3) = 9 + 102
    assert projected_utilization(C, 4, example_cdata) == 111.0
    assert lwu(C, 4, example_cdata) == 116.0


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
    """projected <= lwu at the same budget, and u_max <= lwu at |l|."""
    rng = random.Random(99)
    for seed in range(60):
        d = random_cdata(seed, rng)
        labels = d.labels()
        if not labels:
            continue
        for _ in range(8):
            l = random_pattern(labels, rng)
            k = rng.randint(len(l), len(l) + 2)
            p = projected_utilization(l, k, d)
            w = lwu(l, k, d)
            assert p <= w + 1e-9
            assert max_utility(l, d) <= lwu(l, len(l), d) + 1e-9
            assert max_utility(l, d) <= p + 1e-9


def test_lwu_monotone_in_budget_and_pattern():
    rng = random.Random(123)
    for seed in range(40):
        d = random_cdata(seed, rng)
        labels = d.labels()
        if not labels:
            continue
        for _ in range(6):
            l = random_pattern(labels, rng, max_len=2)
            # growing the budget never shrinks the bound
            values = [lwu(l, k, d) for k in range(0, 5)]
            assert values == sorted(values)
            # extending the pattern never grows the bound
            extended = LSequence(l.coincidences + random_pattern(labels, rng, 1).coincidences)
            for k in range(1, 5):
                assert lwu(extended, k, d) <= lwu(l, k, d) + 1e-9

"""The brute-force reference: enumeration, exhaustive utilities, generator."""
import io
import itertools
import random
from dataclasses import replace

import pytest

from intervalmine.encoding import encode_dataset
from intervalmine.io import parse_dataset
from intervalmine.miner import MiningConfig, mine
from intervalmine.model import LSequence, UtilityTable
from intervalmine.oracle import (
    GeneratorParams,
    ORACLE_BUDGET,
    brute_force_mine,
    count_lsequences,
    enumerate_coincidences,
    enumerate_lsequences,
    match_utilities,
    pattern_max_utility,
    random_dataset,
    top_k_eventsets_utility,
)
from intervalmine.transform import transform_dataset
from intervalmine.utility import dataset_utility

from conftest import evaluate, pruning_context


def test_enumerate_coincidences_order():
    got = [c.labels for c in enumerate_coincidences(("B", "A"), 2)]
    assert got == [("A",), ("B",), ("A", "B")]


def test_enumerate_lsequences_counts():
    assert len(list(enumerate_lsequences(("A", "B"), 1, 1))) == 2
    assert len(list(enumerate_lsequences(("A", "B"), 1, 2))) == 3
    assert len(list(enumerate_lsequences(("A", "B"), 2, 2))) == 12
    assert count_lsequences(2, 1, 2) == 3
    assert count_lsequences(2, 2, 2) == 12


def test_enumerate_lsequences_no_duplicates():
    seqs = list(enumerate_lsequences(("A", "B", "C"), 2, 2))
    assert len(seqs) == len(set(seqs)) == count_lsequences(3, 2, 2)


def test_enumerate_rejects_bad_caps():
    with pytest.raises(ValueError):
        list(enumerate_lsequences(("A",), 0, 1))


def test_budget_guard(example_cdata):
    big = MiningConfig(xi=0.0, max_length=7, max_size=6)
    assert count_lsequences(6, 7, 6) > ORACLE_BUDGET
    with pytest.raises(ValueError, match="too large"):
        brute_force_mine(example_cdata, big)


def test_brute_force_on_the_example(example_cdata):
    patterns = brute_force_mine(
        example_cdata, MiningConfig(xi=22.0, max_length=3, max_size=2)
    )
    as_set = {(str(p.lsequence), p.umax) for p in patterns}
    assert ("<{A}{B}>", 22.0) in as_set


def test_brute_force_above_total_utility(example_cdata):
    assert brute_force_mine(
        example_cdata, MiningConfig(xi=135.0, max_length=2, max_size=2)
    ) == []


def utility_set(l, c, table):
    """Utility of every match of l in c, over all increasing position tuples."""
    putils = [sum(table.utility(lab) for lab in coin) for coin in l.coincidences]
    out = []
    for positions in itertools.combinations(range(len(c.eventsets)), len(putils)):
        windows = [c.eventsets[j] for j in positions]
        if all(
            set(coin) <= set(es.coincidence)
            for coin, es in zip(l.coincidences, windows)
        ):
            out.append(sum(u * es.duration for u, es in zip(putils, windows)))
    return out


def test_match_utilities_agree_with_utility_set(example_cdata):
    rng = random.Random(17)
    labels = example_cdata.labels()
    for _ in range(100):
        l = LSequence.of(
            *[rng.sample(labels, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        )
        for c in example_cdata.csequences:
            assert sorted(match_utilities(l, c, example_cdata.utilities)) == sorted(
                utility_set(l, c, example_cdata.utilities)
            )


def test_pattern_max_utility_agrees_with_dp(example_cdata):
    """The enumerated maximum equals the kernel's dynamic program."""
    ctx = pruning_context(encode_dataset(example_cdata), 3)
    rng = random.Random(23)
    labels = example_cdata.labels()
    for _ in range(150):
        l = LSequence.of(
            *[rng.sample(labels, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        )
        total, occurs = pattern_max_utility(l, example_cdata)
        e = evaluate(ctx, l)
        assert total == e.umax
        assert occurs == e.matched.any()
        if not occurs:
            assert total == 0.0


def test_top_k_subset_search_never_needs_partial_eventsets(example_cdata):
    # whole-eventset top-k equals the general subset optimum (checked
    # elsewhere against the miner's top-k rows; here: monotone in k, capped
    # at u_s)
    c = example_cdata.csequences[0]
    table = example_cdata.utilities
    values = [top_k_eventsets_utility(c, k, table) for k in range(1, 9)]
    assert values == sorted(values)
    assert values[-1] == 29.0


def test_generator_is_deterministic():
    a = random_dataset(GeneratorParams(seed=99))
    b = random_dataset(GeneratorParams(seed=99))
    assert a[0] == b[0]
    assert a[1].entries == b[1].entries


def test_generator_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        GeneratorParams(seed=1, num_sequences=0)
    with pytest.raises(ValueError):
        GeneratorParams(seed=1, alphabet_size=27)


def test_generator_seed_one_snapshot():
    """Frozen fingerprint of the default generator output."""
    es, table = random_dataset(GeneratorParams(seed=1))
    cdata = transform_dataset(es, table)
    assert len(es.sequences) == 4
    assert sum(len(s.intervals) for s in es.sequences) == 15
    assert dataset_utility(cdata) == 130.0


def test_generator_respects_bounds():
    p = GeneratorParams(seed=3, num_sequences=6, max_intervals_per_seq=4,
                        alphabet_size=2, max_time=9, max_duration=2,
                        max_external_utility=3)
    es, table = random_dataset(p)
    assert len(es.sequences) == 6
    for s in es.sequences:
        assert 1 <= len(s.intervals) <= 4
        for e in s.intervals:
            assert e.label in ("A", "B")
            assert 0 <= e.begin < e.finish <= 9 + 2
            assert 1 <= e.finish - e.begin <= 2
    for v in table.entries.values():
        assert 0.0 <= v <= 3.0


def test_generator_draws_fractional_utilities_in_tenths():
    """With `fractional`, every utility is a multiple of 0.1 up to the
    maximum, and the intervals are those of the integer draw."""
    p = GeneratorParams(seed=4, alphabet_size=8, max_external_utility=2, fractional=True)
    es, table = random_dataset(p)
    assert es == random_dataset(replace(p, fractional=False))[0]
    tenths = {v: round(v * 10) for v in table.entries.values()}
    assert all(v == k / 10 and 0 <= k <= 20 for v, k in tenths.items())
    assert any(k % 10 for k in tenths.values())


def test_oracle_equals_miner_on_one_fixed_instance():
    """A generated instance, and one where <{A}{B}> holds all of the
    dataset's utility, 0.7 as one left-to-right sum of window utilities, so
    the relative threshold 1.0 sits on its value."""
    es, table = random_dataset(GeneratorParams(seed=5))
    on_the_total = parse_dataset(io.StringIO("1 A 0 1\n1 B 1 2\n2 A 0 2\n2 B 2 5\n"))
    instances = [
        (transform_dataset(es, table), MiningConfig(xi=7.5, max_length=2, max_size=2)),
        (
            transform_dataset(on_the_total, UtilityTable({"A": 0.1, "B": 0.1})),
            MiningConfig(xi=1.0, max_length=2, max_size=1, xi_mode="relative"),
        ),
    ]
    for d, cfg in instances:
        expected = {(str(p.lsequence), p.umax) for p in brute_force_mine(d, cfg)}
        got, _ = mine(d, cfg)
        assert {(str(p.lsequence), p.umax) for p in got} == expected
    # the second instance keeps the pattern that sits on its threshold
    assert expected == {("<{A}{B}>", 0.7)}

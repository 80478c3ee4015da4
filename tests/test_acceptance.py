"""Acceptance gate: the eight checks the package must pass end to end.

Each test records a PASS/FAIL/SKIPPED line that conftest prints after the
run. Criteria 4-6 share one set of 110 seeded random instances; the bound
property checks sample well over a thousand (pattern, budget) pairs from
them. The block-stacking dataset check runs only when a local copy is
provided (INTERVALMINE_BLOCKS=/path/to/file); it is never weakened, just
skipped when the file is absent.
"""
import functools
import io
import os
import random
import time

import pytest

import _acceptance_log
from conftest import EXAMPLE_DATA, EXAMPLE_UTILITIES, evaluate, pruning_context, weighted

from intervalmine import miner
from intervalmine.encoding import encode_dataset, summarize_scores
from intervalmine.io import fill_utilities, parse_dataset
from intervalmine.miner import MiningConfig, mine
from intervalmine.model import Coincidence, LSequence, UtilityTable
from intervalmine.oracle import (
    GeneratorParams,
    brute_force_mine,
    match_utilities,
    pattern_max_utility,
    random_dataset,
)
from intervalmine.transform import transform_dataset
from intervalmine.utility import UpperBound, csequence_utility, dataset_utility


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except pytest.skip.Exception as e:
                _acceptance_log.record(number, name, f"SKIPPED ({e})")
                raise
            except BaseException:
                _acceptance_log.record(number, name, "FAIL")
                raise
            _acceptance_log.record(number, name, "PASS")

        return run

    return wrap


def example_cdata():
    dataset = parse_dataset(io.StringIO(EXAMPLE_DATA))
    return transform_dataset(dataset, UtilityTable(EXAMPLE_UTILITIES))


AB = LSequence.of(["A"], ["B"])


@criterion(1, "golden transform")
def test_criterion_1_golden_transform():
    start = time.perf_counter()
    cdata = example_cdata()
    got = {
        c.id: [(tuple(es.coincidence.labels), es.duration) for es in c.eventsets]
        for c in cdata.csequences
    }
    assert got == {
        1: [(("A",), 4), (("A", "B"), 2), (("B",), 5), ((), 2),
            (("C",), 2), (("C", "E"), 2), (("C",), 2)],
        2: [(("A",), 3), (("A", "B", "D"), 2), (("B", "D"), 3), (("D",), 2),
            ((), 4), (("C",), 2), (("C", "E"), 2), (("C",), 2)],
        3: [(("B",), 2), (("A", "B"), 4), (("A",), 2), (("C",), 2),
            (("C", "E"), 2), (("C",), 2)],
        4: [(("B",), 4), ((), 3), (("C",), 1), (("C", "E", "F"), 3), (("C",), 2)],
    }
    assert time.perf_counter() - start < 1.0


@criterion(2, "golden utilities")
def test_criterion_2_golden_utilities():
    cdata = example_cdata()
    table = cdata.utilities
    per_seq = {c.id: csequence_utility(c, table) for c in cdata.csequences}
    assert per_seq == {1: 29.0, 2: 46.0, 3: 28.0, 4: 31.0}
    assert dataset_utility(cdata) == 134.0


@criterion(3, "golden bounds")
def test_criterion_3_golden_bounds():
    """The bounds of <{A}{B}>, from the arrays and code the miner prunes with."""
    cdata = example_cdata()
    c1 = cdata.csequences[0]
    enc = encode_dataset(cdata)
    assert enc.topk[2, 0] == 14.0
    assert sorted(match_utilities(AB, c1, cdata.utilities)) == [9.0, 10.0, 13.0]
    ctx = pruning_context(enc, 3)
    e = evaluate(ctx, AB)
    assert summarize_scores(e.scores)[1][0] == 13.0  # the best of c1's matches
    assert e.umax == 22.0
    assert e.full == 50.0
    assert miner._bound(ctx, e.umax, e.full, e.rest) == 42.0
    ldc = pruning_context(enc, 3, UpperBound.LWU)
    e = evaluate(ldc, AB)
    assert miner._bound(ldc, e.umax, e.full, e.rest) == 50.0


def test_golden_bounds_of_the_pruning_code():
    """Every strategy's bound along the chain <{A}> -> <{A}{B}>, as the
    miner grows it: matched rows shrink, and the bound falls from 72 to the
    golden 50 (ldc) or 42 (pdc); with no bound nothing is ever pruned."""
    enc = encode_dataset(example_cdata())
    expected = {
        UpperBound.NONE: [float("inf"), float("inf")],
        UpperBound.LWU: [72.0, 50.0],
        UpperBound.PROJECTED: [72.0, 42.0],
    }
    for strategy, bounds in expected.items():
        ctx = pruning_context(enc, 3, strategy)
        got, rows = [], []
        for prefix in (LSequence.of(["A"]), AB):
            e = evaluate(ctx, prefix)
            assert e.umax == 22.0
            rows.append([bool(m) for m in e.matched])
            got.append(miner._bound(ctx, e.umax, e.full, e.rest))
        assert got == bounds
        assert rows == [[True, True, True, False], [True, True, False, False]]


# --- shared instance pool for criteria 4-6 ----------------------------------

N_INSTANCES = 110
_POOL = {}


def pattern_set(patterns):
    return {
        (tuple(c.labels for c in p.lsequence.coincidences), p.umax) for p in patterns
    }


def instance_pool():
    """110 seeded instances, each mined with every strategy and brute force."""
    if "runs" in _POOL:
        return _POOL
    rng = random.Random(20260814)
    runs = []
    start = time.perf_counter()
    for _ in range(N_INSTANCES):
        params = GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 5),
            max_intervals_per_seq=rng.randint(1, 6),
            alphabet_size=rng.randint(1, 4),
        )
        es, table = random_dataset(params)
        d = transform_dataset(es, table)
        xi_abs = rng.uniform(0.0, dataset_utility(d))
        cfg = MiningConfig(
            xi=xi_abs,
            max_length=rng.randint(1, 3),
            max_size=rng.randint(1, 2),
        )
        expected = pattern_set(brute_force_mine(d, cfg))
        mined = {}
        stats = {}
        for strategy in UpperBound:
            patterns, st = mine(d, cfg.with_strategy(strategy))
            mined[strategy] = pattern_set(patterns)
            stats[strategy] = st
        runs.append((d, cfg, expected, mined, stats))
    _POOL["runs"] = runs
    _POOL["elapsed"] = time.perf_counter() - start
    return _POOL


@criterion(4, "oracle equivalence")
def test_criterion_4_oracle_equivalence():
    pool = instance_pool()
    assert len(pool["runs"]) >= 100
    for i, (d, cfg, expected, mined, _) in enumerate(pool["runs"]):
        for strategy in UpperBound:
            assert mined[strategy] == expected, (i, cfg.xi, strategy)
    assert pool["elapsed"] < 60.0


def sub_pattern(l, rng):
    """A strictly smaller pattern contained in l, or None."""
    coins = list(l.coincidences)
    droppable = [i for i, c in enumerate(coins) if len(c) > 1]
    if len(coins) > 1 and (not droppable or rng.random() < 0.5):
        del coins[rng.randrange(len(coins))]
        return LSequence(tuple(coins))
    if droppable:
        i = rng.choice(droppable)
        labels = list(coins[i].labels)
        labels.remove(rng.choice(labels))
        coins[i] = Coincidence.of(labels)
        return LSequence(tuple(coins))
    return None


@criterion(5, "bound properties")
def test_criterion_5_bound_properties():
    """The miner's bounds (the batched top-k masses over the kernel's
    matched rows, and `miner._bound` under pdc with the length budget as
    max_length) against pattern utilities found by brute force."""
    pool = instance_pool()
    rng = random.Random(5150)
    pairs = 0
    chain_checks = 0
    for d, _, _, _, _ in pool["runs"]:
        labels = d.labels()
        if not labels:
            continue
        enc = encode_dataset(d)
        for _ in range(10):
            length = rng.randint(1, 3)
            l = LSequence.of(
                *[rng.sample(labels, rng.randint(1, min(2, len(labels))))
                  for _ in range(length)]
            )
            k = rng.randint(len(l), len(l) + 2)
            pairs += 1
            ctx = pruning_context(enc, k)
            e = evaluate(ctx, l)
            exact, _ = pattern_max_utility(l, d)
            assert e.umax == exact
            projected = miner._bound(ctx, e.umax, e.full, e.rest)
            # the projected bound never exceeds the weighted bound
            assert projected <= e.full + 1e-9
            # both bounds really bound the mined measure
            at_length = evaluate(pruning_context(enc, len(l)), l)
            assert exact <= at_length.full + 1e-9
            assert exact <= projected + 1e-9
            # growing the budget never shrinks the weighted bound
            k_small = rng.randint(0, k)
            (wu_small,) = weighted(enc, e.matched, k_small)
            assert wu_small <= e.full + 1e-9
            sub = sub_pattern(l, rng)
            if sub is not None:
                # extending a pattern never grows the weighted bound,
                # including with a smaller budget on the extended side
                wu_sub = evaluate(ctx, sub).full
                assert e.full <= wu_sub + 1e-9
                assert wu_small <= wu_sub + 1e-9
        # pruning bounds along depth-first extension chains: the effective
        # (running minimum) bound never increases and always dominates the
        # mined measure of everything grown from the prefix
        occurring = sorted(
            {es.coincidence for c in d.csequences for es in c.eventsets
             if es.coincidence},
            key=lambda c: (len(c), c.labels),
        )
        if not occurring:
            continue
        for _ in range(2):
            k = rng.randint(2, 4)
            ctx = pruning_context(enc, k)
            chain = [rng.choice(occurring) for _ in range(k)]
            prefixes = [LSequence(tuple(chain[:i])) for i in range(1, k + 1)]
            bounds = []
            running = float("inf")
            for p in prefixes:
                e = evaluate(ctx, p)
                running = min(running, miner._bound(ctx, e.umax, e.full, e.rest))
                bounds.append(running)
            umaxes = [pattern_max_utility(p, d)[0] for p in prefixes]
            assert bounds == sorted(bounds, reverse=True)
            for i, b in enumerate(bounds):
                chain_checks += 1
                assert b >= max(umaxes[i:]) - 1e-9, (i, bounds, umaxes)
    assert pairs >= 1000
    assert chain_checks > 0


@criterion(6, "pruning dominance")
def test_criterion_6_pruning_dominance():
    pool = instance_pool()
    for i, (_, cfg, _, _, stats) in enumerate(pool["runs"]):
        pdc = stats[UpperBound.PROJECTED].candidates_generated
        ldc = stats[UpperBound.LWU].candidates_generated
        assert pdc <= ldc, (i, cfg.xi, pdc, ldc)


BLOCKS_ENV = "INTERVALMINE_BLOCKS"


def blocks_path():
    candidate = os.environ.get(BLOCKS_ENV, "").strip()
    if candidate and os.path.exists(candidate):
        return candidate
    here = os.path.join(os.path.dirname(__file__), "..", "data", "blocks.tsv")
    if os.path.exists(here):
        return here
    return None


@criterion(7, "blocks dataset pattern counts")
def test_criterion_7_blocks_pattern_counts():
    path = blocks_path()
    if path is None:
        pytest.skip(
            f"block-stacking dataset not provided; set {BLOCKS_ENV}=/path/to/file"
        )
    dataset = parse_dataset(path)
    table = fill_utilities(dataset, None, default=1.0)
    cdata = transform_dataset(dataset, table)

    def count(xi, k):
        start = time.perf_counter()
        patterns, _ = mine(
            cdata,
            MiningConfig(xi=xi, max_length=k, max_size=5, xi_mode="relative"),
        )
        assert time.perf_counter() - start < 300.0
        return len(patterns)

    by_threshold = [count(xi, 4) for xi in (0.01, 0.05, 0.1, 0.15, 0.2, 0.25)]
    assert by_threshold == [15548, 3020, 1252, 508, 114, 12]
    by_length = [count(0.25, k) for k in (2, 3, 4, 5, 6)]
    assert by_length == [6, 9, 12, 23, 61]


@criterion(8, "pruning speed trend")
def test_criterion_8_speed_trend():
    params = GeneratorParams(
        seed=42, num_sequences=220, max_intervals_per_seq=10,
        alphabet_size=8, max_time=30, max_duration=4, max_external_utility=5,
    )
    es, table = random_dataset(params)
    d = transform_dataset(es, table)
    assert len(d) >= 200
    cfg = MiningConfig(xi=0.05, max_length=4, max_size=2, xi_mode="relative")

    strategies = (UpperBound.PROJECTED, UpperBound.LWU)
    configs = {s: cfg.with_strategy(s) for s in strategies}
    stats = {s: mine(d, configs[s])[1] for s in strategies}  # also warms caches
    # the tighter bound must do strictly less work here, otherwise the
    # wall-clock comparison would be measuring noise
    assert (
        stats[UpperBound.PROJECTED].candidates_generated
        < stats[UpperBound.LWU].candidates_generated
    )

    # alternate the strategies round by round, so a burst of load from
    # other processes slows both rather than only the one running then; with
    # 5 rounds a loaded machine failed about one run in 100
    best = {s: float("inf") for s in strategies}
    for _ in range(9):
        for s in strategies:
            best[s] = min(best[s], mine(d, configs[s])[1].elapsed_ms)
    assert best[UpperBound.PROJECTED] <= best[UpperBound.LWU]
